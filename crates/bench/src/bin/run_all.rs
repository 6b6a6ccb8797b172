//! Runs every regenerator in sequence (the full §7 evaluation), so it
//! writes exactly what the per-figure binaries write. Respects
//! `TD_SCALE=smoke|paper`; paper scale takes several minutes.

use td_bench::experiments::{
    ablation, churn, fig02, fig04, fig05, fig06, fig07, fig08, fig09, fig09d, fig_quantiles,
    labdata_sum, stream_windows, tab01, tab02,
};
use td_bench::Scale;

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env_or(Scale::paper());
    let t0 = std::time::Instant::now();
    println!(
        "Running the full evaluation at sensors={}, epochs={}, runs={} (TD_SCALE to change)",
        scale.sensors, scale.epochs, scale.runs
    );
    tab02::regenerate()?;
    fig02::regenerate(scale)?;
    fig05::regenerate(scale)?;
    fig04::regenerate(scale)?;
    fig06::regenerate(scale)?;
    fig07::regenerate(scale)?;
    fig08::regenerate(scale)?;
    fig09::regenerate(scale)?;
    fig09d::regenerate(scale)?;
    labdata_sum::regenerate(scale)?;
    tab01::regenerate(scale)?;
    stream_windows::regenerate(scale)?;
    fig_quantiles::regenerate(scale)?;
    churn::regenerate(scale)?;
    ablation::regenerate(scale)?;
    println!(
        "\nAll experiments done in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}
