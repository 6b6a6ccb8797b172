//! Figure 4: evolution of the TD delta region under regional failures.
//!
//! Under `Regional(p1, 0.05)` the fine-grained TD strategy grows its
//! delta *toward the failure quadrant* rather than uniformly around the
//! base station. The regenerator reports, for `p1 ∈ {0.3, 0.8}`, the
//! delta membership after convergence, the fraction of the delta inside
//! the failure region, and an ASCII scatter of the deployment (the
//! paper's dots-and-big-dots plot).

use crate::report::Table;
use crate::Scale;
use td_netsim::network::Network;
use td_netsim::node::Rect;
use td_netsim::rng::substream;
use td_workloads::scenario;
use td_workloads::synthetic::Synthetic;
use tributary_delta::driver::{Driver, TrialPool};
use tributary_delta::session::{Scheme, SessionBuilder};

/// One converged snapshot.
#[derive(Clone, Debug)]
pub struct DeltaSnapshot {
    /// The inner loss rate p1.
    pub p1: f64,
    /// The outer loss rate p2.
    pub p2: f64,
    /// Scheme (TD or TD-Coarse).
    pub scheme: &'static str,
    /// Delta coordinates.
    pub delta: Vec<(f64, f64)>,
    /// Total connected sensors.
    pub sensors: usize,
    /// Fraction of delta nodes inside the failure region.
    pub frac_inside: f64,
    /// Fraction of *all* nodes inside the failure region (the null
    /// hypothesis for localization).
    pub baseline_frac: f64,
}

fn converge(
    scheme: Scheme,
    p1: f64,
    p2: f64,
    region: td_netsim::node::Rect,
    net: &Network,
    scale: Scale,
    seed: u64,
) -> Vec<(f64, f64)> {
    let model = td_netsim::loss::Regional::new(region, p1, p2);
    let mut rng = substream(seed, 0xF04);
    let session = SessionBuilder::new(scheme).build(net, &mut rng);
    let mut driver = Driver::new(session, scale.warmup);
    driver.run_scalar(
        &td_aggregates::count::Count::default(),
        &Synthetic::count_workload(net),
        &model,
        scale.epochs,
        |_| net.num_sensors() as f64,
        &mut rng,
    );
    // A non-empty delta always holds the base station, which is no
    // sensor: the snapshot lists the delta's sensors only.
    driver
        .session()
        .delta_nodes()
        .into_iter()
        .filter(|n| !n.is_base())
        .map(|n| {
            let p = net.position(n);
            (p.x, p.y)
        })
        .collect()
}

/// Run the experiment for both loss rates of Figure 4 (plus TD-Coarse for
/// the §7.2 contrast).
pub fn run(scale: Scale, seed: u64) -> Vec<DeltaSnapshot> {
    let spec = Synthetic::sized(scale.sensors);
    let net = spec.build(seed);
    let region = scenario::failure_region_for(spec.width, spec.height);
    let baseline = net
        .sensor_ids()
        .filter(|&n| region.contains(net.position(n)))
        .count() as f64
        / net.num_sensors() as f64;
    // The paper's two loss rates with its p2 = 0.05, plus a low-noise
    // variant where the outside network is healthy enough that a partial
    // delta meets the 90% target — the regime where fine-grained
    // localization is visible: its TD delta is the smallest of the three
    // and the most concentrated in the region
    // (`results/fig04_delta_summary.csv`).
    // Each (loss rates, scheme) snapshot converges independently on the
    // trial pool.
    let cells: Vec<(f64, f64, Scheme, &'static str)> = [(0.3, 0.05), (0.8, 0.05), (0.3, 0.005)]
        .into_iter()
        .flat_map(|(p1, p2)| {
            [(Scheme::Td, "TD"), (Scheme::TdCoarse, "TD-Coarse")]
                .into_iter()
                .map(move |(scheme, name)| (p1, p2, scheme, name))
        })
        .collect();
    TrialPool::new().map(&cells, |&(p1, p2, scheme, name)| {
        let delta = converge(scheme, p1, p2, region, &net, scale, seed);
        let inside = delta
            .iter()
            .filter(|&&(x, y)| region.contains(td_netsim::node::Position::new(x, y)))
            .count();
        let frac_inside = if delta.is_empty() {
            0.0
        } else {
            inside as f64 / delta.len() as f64
        };
        DeltaSnapshot {
            p1,
            p2,
            scheme: name,
            delta,
            sensors: net.num_sensors(),
            frac_inside,
            baseline_frac: baseline,
        }
    })
}

/// ASCII scatter of a snapshot: `.` sensor, `#` delta member, `B` base.
pub fn ascii_map(net: &Network, delta: &[(f64, f64)], region: Rect) -> String {
    const W: usize = 40;
    const H: usize = 20;
    let (max_x, max_y) = net
        .positions()
        .iter()
        .fold((1.0f64, 1.0f64), |(mx, my), p| (mx.max(p.x), my.max(p.y)));
    let mut grid = vec![vec![' '; W]; H];
    let cell = move |x: f64, y: f64| {
        let cx = ((x / max_x) * (W as f64 - 1.0)).round() as usize;
        let cy = ((y / max_y) * (H as f64 - 1.0)).round() as usize;
        (cx.min(W - 1), H - 1 - cy.min(H - 1))
    };
    for n in net.sensor_ids() {
        let p = net.position(n);
        let (cx, cy) = cell(p.x, p.y);
        if grid[cy][cx] == ' ' {
            grid[cy][cx] = '.';
        }
    }
    for &(x, y) in delta {
        let (cx, cy) = cell(x, y);
        grid[cy][cx] = '#';
    }
    let base = net.position(td_netsim::node::BASE_STATION);
    let (bx, by) = cell(base.x, base.y);
    grid[by][bx] = 'B';
    let mut out = String::new();
    out.push_str(&format!(
        "failure region: ({:.0},{:.0})-({:.0},{:.0}); '#' = delta vertex, 'B' = base\n",
        region.min.x, region.min.y, region.max.x, region.max.y
    ));
    for row in grid {
        out.push_str(&row.into_iter().collect::<String>());
        out.push('\n');
    }
    out
}

/// Summarize snapshots as a table.
pub fn table(snapshots: &[DeltaSnapshot]) -> Table {
    let mut t = Table::new(
        "Figure 4: delta region under Regional(p1, p2)",
        &[
            "p1",
            "p2",
            "scheme",
            "delta_size",
            "sensors",
            "frac_delta_in_region",
            "frac_nodes_in_region",
        ],
    );
    for s in snapshots {
        t.row(vec![
            format!("{:.2}", s.p1),
            format!("{:.3}", s.p2),
            s.scheme.to_string(),
            s.delta.len().to_string(),
            s.sensors.to_string(),
            format!("{:.3}", s.frac_inside),
            format!("{:.3}", s.baseline_frac),
        ]);
    }
    t
}

/// Regenerate Figure 4: the summary table
/// (`results/fig04_delta_summary.csv`), then for each TD snapshot an
/// ASCII map and its delta coordinates (`results/fig04_delta_p<p1>.csv`).
pub fn regenerate(scale: Scale) -> std::io::Result<()> {
    println!(
        "Figure 4 — delta evolution (sensors={}, warmup={})",
        scale.sensors, scale.warmup
    );
    let snapshots = run(scale, 0xF1604);
    table(&snapshots).publish("fig04_delta_summary")?;

    let spec = Synthetic::sized(scale.sensors);
    let net = spec.build(0xF1604);
    let region = scenario::failure_region_for(spec.width, spec.height);
    for snap in snapshots.iter().filter(|s| s.scheme == "TD") {
        println!("\n--- TD delta under Regional({}, 0.05) ---", snap.p1);
        println!("{}", ascii_map(&net, &snap.delta, region));
        let mut t = Table::new(format!("delta coordinates p1={}", snap.p1), &["x", "y"]);
        for &(x, y) in &snap.delta {
            t.row(vec![format!("{x:.2}"), format!("{y:.2}")]);
        }
        t.write_csv(&format!("fig04_delta_p{}", (snap.p1 * 100.0) as u32))?;
    }
    println!(
        "paper shape: the TD delta concentrates in the failure quadrant\n\
         (frac_delta_in_region >> frac_nodes_in_region), growing with p1;\n\
         TD-Coarse expands uniformly around the base station instead"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn td_localizes_more_than_baseline() {
        let scale = Scale {
            runs: 1,
            epochs: 20,
            warmup: 120,
            sensors: 250,
            items_per_node: 0,
        };
        let snaps = run(scale, 31);
        let td_03 = snaps
            .iter()
            .find(|s| s.scheme == "TD" && (s.p1 - 0.3).abs() < 1e-9 && s.p2 < 0.01)
            .unwrap();
        assert!(
            td_03.frac_inside > td_03.baseline_frac,
            "TD delta not enriched in failure region: {} vs baseline {}",
            td_03.frac_inside,
            td_03.baseline_frac
        );
    }

    #[test]
    fn ascii_map_renders() {
        let net = Synthetic::small(60).build(1);
        let map = ascii_map(&net, &[(5.0, 5.0)], scenario::paper_failure_region());
        assert!(map.contains('B'));
        assert!(map.contains('#'));
    }
}
