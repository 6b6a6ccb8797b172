//! Figure 5: RMS error of Sum under (a) `Global(p)` and (b)
//! `Regional(p, 0.05)` for `p ∈ {0, 0.125, …, 1.0}`, all four schemes,
//! over the [`rms`] sweep.

use crate::experiments::rms::{self, SweepAggregate, SweepFailure};
use crate::Scale;

/// Regenerate Figures 5(a) and 5(b) (`results/fig05a_sum_global.csv`,
/// `results/fig05b_sum_regional.csv`).
pub fn regenerate(scale: Scale) -> std::io::Result<()> {
    println!(
        "Figure 5 — Sum RMS vs loss (sensors={}, epochs={}, runs={})",
        scale.sensors, scale.epochs, scale.runs
    );
    let ps: Vec<f64> = (0..=8).map(|i| i as f64 * 0.125).collect();
    let sweep = |failure, seed| rms::sweep(SweepAggregate::Sum, failure, &ps, scale, seed);
    rms::table(
        "Figure 5(a): Sum RMS under Global(p)",
        &sweep(SweepFailure::Global, 0xF1605A),
    )
    .publish("fig05a_sum_global")?;
    rms::table(
        "Figure 5(b): Sum RMS under Regional(p, 0.05)",
        &sweep(SweepFailure::Regional, 0xF1605B),
    )
    .publish("fig05b_sum_regional")?;
    println!(
        "\npaper shape: (a) TD tracks best-of-both with a visible gain at low p;\n\
         (b) TD clearly below TD-Coarse (localized delta keeps exact tree regions)"
    );
    Ok(())
}
