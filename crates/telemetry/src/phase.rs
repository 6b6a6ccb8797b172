//! Epoch-lifecycle phase profiling.
//!
//! The epoch runner's time goes to seven places: plan **compile**,
//! in-place plan rebuild (**patch**), **precompute-randomness** (the epoch's loss
//! draws, taken on the calling thread in step order before any query
//! column runs, which is what makes any thread count bit-identical,
//! and, on a plan with a delta, the broadcast lists derived from them),
//! **per-level execute** (the query columns, and the envelope column on
//! a plan with a delta), **merge** (send accounting and the
//! base-station fold), the stream layer's **window fold**, and the
//! service layer's **outbox drain**.
//! Each hook wraps its phase in a [`stopwatch`]/[`record`] pair; the
//! samples land in per-phase histograms (`phase.*_ns`) in the
//! process-global registry, from which the benchmark reads per-phase
//! shares and exporters write `results/telemetry_snapshot.json`.

use crate::registry::Histogram;
use std::sync::OnceLock;
use std::time::Instant;

/// The profiled phases of an epoch's lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Full schedule compilation: the one plan builder, run by
    /// `compile_td` or `compile_tag`.
    Compile,
    /// In-place rebuild of a stale plan after adaptation or churn.
    Patch,
    /// Pre-draw of the epoch's loss outcomes and, on a plan with a
    /// delta, its broadcast lists, on every run.
    Randomness,
    /// Running the epoch's query columns, and the envelope column on a
    /// plan with a delta, over every level (on one thread or several).
    LevelExecute,
    /// Send accounting, base-station fold and final evaluation.
    Merge,
    /// Stream-layer pane absorption and window re-fold.
    WindowFold,
    /// Service-layer outbox drain call.
    OutboxDrain,
}

impl Phase {
    /// Every phase, in lifecycle order.
    pub const ALL: [Phase; 7] = [
        Phase::Compile,
        Phase::Patch,
        Phase::Randomness,
        Phase::LevelExecute,
        Phase::Merge,
        Phase::WindowFold,
        Phase::OutboxDrain,
    ];

    /// Name of the histogram this phase records into.
    pub const fn metric_name(self) -> &'static str {
        match self {
            Phase::Compile => "phase.compile_ns",
            Phase::Patch => "phase.patch_ns",
            Phase::Randomness => "phase.randomness_ns",
            Phase::LevelExecute => "phase.level_execute_ns",
            Phase::Merge => "phase.merge_ns",
            Phase::WindowFold => "phase.window_fold_ns",
            Phase::OutboxDrain => "phase.outbox_drain_ns",
        }
    }

    const fn index(self) -> usize {
        match self {
            Phase::Compile => 0,
            Phase::Patch => 1,
            Phase::Randomness => 2,
            Phase::LevelExecute => 3,
            Phase::Merge => 4,
            Phase::WindowFold => 5,
            Phase::OutboxDrain => 6,
        }
    }
}

/// A started phase timer.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

fn histograms() -> &'static [Histogram; 7] {
    static HISTS: OnceLock<[Histogram; 7]> = OnceLock::new();
    HISTS.get_or_init(|| Phase::ALL.map(|p| crate::global().histogram(p.metric_name())))
}

/// Start timing a phase.
#[inline]
pub fn stopwatch() -> Stopwatch {
    Stopwatch(Instant::now())
}

/// Record the elapsed time since `sw` into `phase`'s global histogram.
#[inline]
pub fn record(phase: Phase, sw: Stopwatch) {
    histograms()[phase.index()].record_duration(sw.0.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_have_distinct_metrics_and_indices() {
        let mut names: Vec<_> = Phase::ALL.iter().map(|p| p.metric_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn record_lands_in_global_histogram() {
        let sw = stopwatch();
        record(Phase::OutboxDrain, sw);
        let snap = crate::global().snapshot();
        assert!(snap.histogram("phase.outbox_drain_ns").unwrap().count() >= 1);
    }
}
