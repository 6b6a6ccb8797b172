//! The streaming-window experiment (extension): window-answer accuracy
//! and communication cost versus window length and hop, across schemes.
//!
//! A drifting `SyntheticSum` stream (seasonal swing + regime shifts)
//! runs under 20% global loss; each `(scheme, window)` cell answers a
//! windowed `Sum` through a [`StreamSession`] and is scored by the RMS
//! relative error of its window answers against the exact windowed
//! truth recomputed from the workload. Expected shape: TAG's RMS
//! *shrinks* with window length for totals-style windows only when its
//! per-epoch losses are unbiased — they are not (subtree losses only
//! subtract), so TAG stays biased-low at every length, while SD's
//! zero-mean sketch noise averages out and TD tracks the best of both;
//! bytes/epoch are flat in window length (panes are merged, never
//! recomputed — the whole point of the pane architecture).

use crate::report::{f, Table};
use crate::Scale;
use td_netsim::loss::Global;
use td_netsim::rng::substream;
use td_stream::{EpochMerge, StreamQuery, StreamSession, WindowSpec};
use td_workloads::synthetic::Synthetic;
use td_workloads::workload::DriftingStream;
use tributary_delta::driver::{Driver, TrialPool, Workload};
use tributary_delta::metrics::rms_error_series;
use tributary_delta::session::{Scheme, SessionBuilder};

/// One `(scheme, window)` cell of the sweep.
#[derive(Clone, Debug)]
pub struct StreamRow {
    /// Scheme display name.
    pub scheme: &'static str,
    /// Window length in panes.
    pub len: u32,
    /// Hop in panes (== `len` for tumbling windows).
    pub hop: u32,
    /// Window reports emitted over the measured run.
    pub reports: usize,
    /// RMS relative error of window answers vs the exact windowed truth.
    pub rms: f64,
    /// Mean payload bytes per epoch (cost is per-epoch, not per-window:
    /// panes are shared, windows merge them for free).
    pub bytes_per_epoch: f64,
    /// Mean contributor coverage across all panes.
    pub mean_coverage: f64,
}

/// The default `(len, hop)` grid: tumbling windows of growing length
/// plus sliding variants of the longest.
pub const WINDOWS: [(u32, u32); 6] = [(1, 1), (4, 4), (16, 16), (8, 1), (16, 1), (16, 4)];

fn one_scheme(scheme: Scheme, windows: &[(u32, u32)], scale: Scale, seed: u64) -> Vec<StreamRow> {
    let net = Synthetic::sized(scale.sensors).build(seed ^ 0x57EA);
    let workload = DriftingStream::new(Synthetic::sum_workload(&net, seed ^ 0xD21F), seed ^ 1);
    let model = Global::new(0.2);

    let mut topo_rng = substream(seed, 0xA0 + scheme.index());
    let session = SessionBuilder::new(scheme).build(&net, &mut topo_rng);
    let mut stream = StreamSession::new(Driver::new(session, scale.warmup));
    // Every window config rides ONE query's pane series — the sweep
    // exercises the sharing it measures: one simulation per scheme,
    // however many window shapes are scored.
    let mut query = StreamQuery::scalar(td_aggregates::sum::Sum::default());
    for &(len, hop) in windows {
        let spec = if hop == len {
            WindowSpec::tumbling(len)
        } else {
            WindowSpec::sliding(len, hop)
        };
        query = query.window(spec, EpochMerge::Add);
    }
    let handles = stream.register(query);
    let mut rng = substream(seed, 0xB0 + scheme.index());
    let reports = stream.run(&workload, &model, scale.epochs, &mut rng);

    // Exact windowed truth from the workload itself: regenerate each
    // epoch's readings once, then answer every report's range from a
    // prefix-sum instead of re-deriving readings per overlapping window.
    let total_epochs = scale.warmup + scale.epochs;
    let mut prefix = vec![0.0f64; total_epochs as usize + 1];
    for epoch in 0..total_epochs {
        let truth = workload.readings(epoch)[1..].iter().sum::<u64>() as f64;
        prefix[epoch as usize + 1] = prefix[epoch as usize] + truth;
    }
    let truth_over = |start: u64, end: u64| prefix[end as usize + 1] - prefix[start as usize];
    let stats = stream.session().stats();
    let epochs_run = stream.stream_stats().epochs_run.max(1);
    let bytes_per_epoch = stats.total_bytes() as f64 / epochs_run as f64;
    let mean_coverage = stream.stream_stats().mean_pane_coverage();
    windows
        .iter()
        .zip(&handles)
        .map(|(&(len, hop), handle)| {
            let (estimates, actuals): (Vec<f64>, Vec<f64>) = reports
                .iter()
                .filter(|r| r.handle == *handle)
                .map(|r| (r.answer, truth_over(r.start_epoch, r.end_epoch)))
                .unzip();
            StreamRow {
                scheme: scheme.name(),
                len,
                hop,
                reports: estimates.len(),
                rms: rms_error_series(&estimates, &actuals),
                bytes_per_epoch,
                mean_coverage,
            }
        })
        .collect()
}

/// Run the sweep over `windows` for all four schemes, one flat
/// [`TrialPool`] cell per scheme (all window shapes share that cell's
/// single simulated stream).
pub fn run_windows(windows: &[(u32, u32)], scale: Scale, seed: u64) -> Vec<StreamRow> {
    let schemes = Scheme::all();
    TrialPool::new()
        .map(seed, &schemes, |_, &scheme, _rng| {
            one_scheme(scheme, windows, scale, seed)
        })
        .into_iter()
        .flatten()
        .collect()
}

/// The full default sweep.
pub fn run(scale: Scale, seed: u64) -> Vec<StreamRow> {
    run_windows(&WINDOWS, scale, seed)
}

/// Render the sweep as a report table (`results/stream_windows.csv`).
pub fn table(rows: &[StreamRow]) -> Table {
    let mut t = Table::new(
        "Streaming windows: RMS + bytes vs window length/hop",
        &[
            "scheme",
            "window_len",
            "hop",
            "reports",
            "rms",
            "bytes_per_epoch",
            "mean_coverage",
        ],
    );
    for r in rows {
        t.row(vec![
            r.scheme.to_string(),
            r.len.to_string(),
            r.hop.to_string(),
            r.reports.to_string(),
            f(r.rms),
            format!("{:.1}", r.bytes_per_epoch),
            f(r.mean_coverage),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_has_sane_shape() {
        let scale = Scale {
            runs: 1,
            epochs: 24,
            warmup: 10,
            sensors: 120,
            items_per_node: 0,
        };
        let rows = run_windows(&[(1, 1), (8, 1)], scale, 4242);
        assert_eq!(rows.len(), Scheme::all().len() * 2);
        for r in &rows {
            assert!(r.reports > 0, "{} emitted nothing", r.scheme);
            assert!(r.rms.is_finite() && r.rms >= 0.0);
            assert!(r.bytes_per_epoch > 0.0);
            assert!(r.mean_coverage > 0.0 && r.mean_coverage <= 1.0);
        }
        // Pane sharing: every window shape of a scheme rides the same
        // single simulation, so bytes/epoch is identical per scheme.
        for scheme in Scheme::all() {
            let of_len = |len: u32| {
                rows.iter()
                    .find(|r| r.scheme == scheme.name() && r.len == len)
                    .unwrap()
                    .bytes_per_epoch
            };
            assert_eq!(
                of_len(1),
                of_len(8),
                "{}: window shapes did not share one traversal",
                scheme.name()
            );
        }
    }
}
