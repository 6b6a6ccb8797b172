//! Figure 2: RMS error of a Count query under `Global(p)` for
//! `p ∈ {0, 0.05, …, 0.4}`, all four schemes, over the [`rms`] sweep.

use crate::experiments::rms::{self, SweepAggregate, SweepFailure};
use crate::Scale;

/// Regenerate Figure 2 (`results/fig02_count_rms.csv`).
pub fn regenerate(scale: Scale) -> std::io::Result<()> {
    println!(
        "Figure 2 — Count RMS vs loss (sensors={}, epochs={}, runs={})",
        scale.sensors, scale.epochs, scale.runs
    );
    let ps: Vec<f64> = (0..=8).map(|i| i as f64 * 0.05).collect();
    let points = rms::sweep(
        SweepAggregate::Count,
        SweepFailure::Global,
        &ps,
        scale,
        0xF1602,
    );
    rms::table("Figure 2: RMS error of Count under Global(p)", &points)
        .publish("fig02_count_rms")?;
    println!(
        "\npaper shape: TAG lowest at p=0; crossover at small p; SD flat ~0.12;\n\
         TD/TD-Coarse <= min(TAG, SD) with up to ~3x reduction at moderate p"
    );
    Ok(())
}
