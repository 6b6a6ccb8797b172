//! Runs every regenerator in sequence (the full §7 evaluation). Respects
//! `TD_SCALE=smoke|paper`; paper scale takes several minutes.

use td_bench::experiments::{
    ablation, churn, fig04, fig06, fig07, fig08, fig09, fig09d, fig_quantiles, labdata_sum, rms,
    stream_windows, tab01, tab02,
};
use td_bench::Scale;

fn main() {
    let scale = Scale::from_env_or(Scale::paper());
    let t0 = std::time::Instant::now();
    println!(
        "Running the full evaluation at sensors={}, epochs={}, runs={} (TD_SCALE to change)",
        scale.sensors, scale.epochs, scale.runs
    );

    let t = tab02::table();
    t.print();
    t.write_csv("tab02_domination");
    println!("{}", tab02::summary());

    let points = rms::figure2(scale, 0xF1602);
    let t = rms::table("Figure 2: RMS error of Count under Global(p)", &points);
    t.print();
    t.write_csv("fig02_count_rms");

    let a = rms::figure5a(scale, 0xF1605A);
    rms::table("Figure 5(a): Sum RMS under Global(p)", &a).write_csv("fig05a_sum_global");
    rms::table("Figure 5(a): Sum RMS under Global(p)", &a).print();
    let b = rms::figure5b(scale, 0xF1605B);
    rms::table("Figure 5(b): Sum RMS under Regional(p, 0.05)", &b).write_csv("fig05b_sum_regional");
    rms::table("Figure 5(b): Sum RMS under Regional(p, 0.05)", &b).print();

    let snaps = fig04::run(scale, 0xF1604);
    let t = fig04::table(&snaps);
    t.print();
    t.write_csv("fig04_delta_summary");

    let timeline = fig06::run(scale, 0xF1606);
    fig06::full_table(&timeline).write_csv("fig06_timeline");
    fig06::phase_means(&timeline).print();

    let trials = (scale.runs * 3).max(3);
    let d = fig07::density_sweep(trials, 0xF1607A);
    fig07::table("Figure 7(a): domination vs density", "density", &d).print();
    fig07::table("Figure 7(a): domination vs density", "density", &d).write_csv("fig07a_density");
    let w = fig07::width_sweep(trials, 0xF1607B);
    fig07::table("Figure 7(b): domination vs width", "width", &w).print();
    fig07::table("Figure 7(b): domination vs width", "width", &w).write_csv("fig07b_width");
    let (lab_tag, lab_ours) = fig07::labdata_factor(trials, 0xF1607C);
    println!("LabData domination: TAG {lab_tag:.2}, ours {lab_ours:.2} (paper 2.25)");

    let rows = fig08::run(scale, 0xF1608);
    let t = fig08::table(&rows);
    t.print();
    t.write_csv("fig08_freq_load");

    let f9a = fig09::run(0, scale, 0xF1609A);
    fig09::table("Figure 9(a): false negatives", &f9a).print();
    fig09::table("Figure 9(a): false negatives", &f9a).write_csv("fig09a_false_negatives");
    let f9b = fig09::run(2, scale, 0xF1609B);
    fig09::table("Figure 9(b): with retransmissions", &f9b).print();
    fig09::table("Figure 9(b): with retransmissions", &f9b)
        .write_csv("fig09b_false_negatives_retx");
    let f9c = fig09::run_regional(scale, 0xF1609C);
    fig09::table("§7.4.3 ext: Regional(p, 0.05)", &f9c).print();
    fig09::table("§7.4.3 ext: Regional(p, 0.05)", &f9c)
        .write_csv("fig09c_false_negatives_regional");
    let f9d = fig09d::run(scale, 0xF1609D);
    fig09::table("Figure 9(d) ext: windowed false negatives", &f9d).print();
    fig09::table("Figure 9(d) ext: windowed false negatives", &f9d)
        .write_csv("fig09d_false_negatives_windowed");

    let lab = labdata_sum::run(scale, 0x1AB5);
    labdata_sum::table(&lab).print();
    labdata_sum::table(&lab).write_csv("labdata_sum");

    let rows = tab01::run(scale, 0x7AB01);
    tab01::table(&rows).print();
    tab01::table(&rows).write_csv("tab01_comparison");

    let rows = stream_windows::run(scale, 0x57E2EA);
    stream_windows::table(&rows).print();
    stream_windows::table(&rows).write_csv("stream_windows");

    let cells = fig_quantiles::run(scale, 0xF1610);
    fig_quantiles::table(&cells).print();
    fig_quantiles::table(&cells).write_csv("quantiles");

    let rows = churn::run(scale, 0xC4012);
    churn::table(&rows).print();
    churn::table(&rows).write_csv("churn");

    ablation::signal_ablation(scale, 0xAB1A).print();
    ablation::tree_construction_ablation(scale, 0xAB1B).print();
    ablation::damping_ablation(scale, 0xAB1C).print();

    println!(
        "\nAll experiments done in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}
