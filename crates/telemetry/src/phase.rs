//! Epoch-lifecycle phase profiling.
//!
//! The epoch runner's time goes to seven places: plan **compile**,
//! incremental **patch**, **precompute-randomness** (each level's loss
//! draws, taken on the calling thread in step order before the level
//! runs, which is what makes any chunk count bit-identical),
//! **per-level execute**, **merge** (base-station fold), the stream
//! layer's **window fold**, and the service layer's **outbox drain**.
//! Each hook wraps its phase in a [`stopwatch`]/[`record`] pair; the
//! samples land in per-phase histograms (`phase.*_ns`) in the
//! process-global registry, from which the benchmark reads per-phase
//! shares and exporters write `results/telemetry_snapshot.json`.
//!
//! With the `telemetry` feature off, [`Stopwatch`] is a zero-sized
//! type and both functions are empty inline stubs — the hooks cost
//! nothing.

/// The profiled phases of an epoch's lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Full schedule compilation (`compile_td` / `compile_tag`).
    Compile,
    /// Incremental plan patch after topology churn.
    Patch,
    /// Pre-draw of one level's loss outcomes, on every run.
    Randomness,
    /// Executing one level's sends (one chunk or many).
    LevelExecute,
    /// Base-station fold and final evaluation.
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

    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
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

#[cfg(feature = "telemetry")]
mod imp {
    use super::Phase;
    use crate::registry::Histogram;
    use std::sync::OnceLock;
    use std::time::Instant;

    /// A started phase timer.
    #[derive(Clone, Copy, Debug)]
    pub struct Stopwatch(Instant);

    fn histograms() -> &'static [Histogram; 7] {
        static HISTS: OnceLock<[Histogram; 7]> = OnceLock::new();
        HISTS.get_or_init(|| Phase::ALL.map(|p| crate::global().histogram(p.metric_name())))
    }

    #[inline]
    pub fn stopwatch() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    #[inline]
    pub fn record(phase: Phase, sw: Stopwatch) {
        histograms()[phase.index()].record_duration(sw.0.elapsed());
    }
}

#[cfg(not(feature = "telemetry"))]
mod imp {
    use super::Phase;

    /// A started phase timer (zero-sized: telemetry compiled out).
    #[derive(Clone, Copy, Debug)]
    pub struct Stopwatch;

    #[inline(always)]
    pub fn stopwatch() -> Stopwatch {
        Stopwatch
    }

    #[inline(always)]
    pub fn record(_phase: Phase, _sw: Stopwatch) {}
}

pub use imp::Stopwatch;

/// Start timing a phase. Free when telemetry is compiled out.
#[inline]
pub fn stopwatch() -> Stopwatch {
    imp::stopwatch()
}

/// Record the elapsed time since `sw` into `phase`'s global histogram.
#[inline]
pub fn record(phase: Phase, sw: Stopwatch) {
    imp::record(phase, sw)
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

    #[cfg(feature = "telemetry")]
    #[test]
    fn record_lands_in_global_histogram() {
        let sw = stopwatch();
        record(Phase::OutboxDrain, sw);
        let snap = crate::global().snapshot();
        assert!(snap.histogram("phase.outbox_drain_ns").unwrap().count() >= 1);
    }
}
