//! The window oracle shared by the stream e2e tests: every window
//! report re-derived as a plain left fold of the per-pane reports of a
//! `tumbling(1)` window riding the same query. It shares no code with
//! the window accumulator — only each pane kind's own `merge`.

use td_suite::stream::{FreqPane, PanePartial, QuantilePane, WindowReport, WindowSpec};

/// Pin every report of query `query` to the left fold of its span's
/// per-pane reports, which window `per_pane` (a `tumbling(1)` window of
/// that query, merge `Add`) emitted. Value, set-valued payloads, epochs,
/// panes, `min_coverage`, relabels, churn and bytes must match bit for
/// bit. `coverage` is bit-exact until the window's first eviction; after
/// it the accumulator's running sum subtracts each evictee, whose
/// rounding a from-scratch mean does not share, so it is pinned to 1e-12
/// there (the batch ≡ step, worker and digest pins guard its bits).
/// Returns how many reports were checked.
pub fn assert_matches_pane_fold(reports: &[WindowReport], query: usize, per_pane: usize) -> usize {
    let panes: Vec<&WindowReport> = reports
        .iter()
        .filter(|r| r.handle.query == query && r.handle.window == per_pane)
        .collect();
    assert!(
        panes.iter().all(|p| p.spec == WindowSpec::tumbling(1)),
        "window {per_pane} is not the per-pane window"
    );
    let mut checked = 0;
    for r in reports
        .iter()
        .filter(|r| r.handle.query == query && r.handle.window != per_pane)
    {
        let lo = panes
            .iter()
            .position(|p| p.end_epoch == r.start_epoch)
            .expect("window starts on a pane");
        let hi = panes
            .iter()
            .position(|p| p.end_epoch == r.end_epoch)
            .expect("window ends on a pane");
        let span = &panes[lo..=hi];
        let at = format!("{} [{}, {}]", r.spec.name(), r.start_epoch, r.end_epoch);
        assert_eq!(r.panes, span.len(), "{at}: pane count");
        let (first, rest) = span.split_first().expect("a window has panes");
        if let Some(f) = &first.freq {
            let mut fold = FreqPane::clone(f);
            for p in rest {
                fold.merge(p.freq.as_ref().expect("freq pane"));
            }
            let got = r.freq.as_ref().expect("freq window");
            let bits = |f: &FreqPane| {
                let counts = f.counts().iter().map(|(&u, &c)| (u, c.to_bits()));
                (f.total().to_bits(), counts.collect::<Vec<_>>())
            };
            assert_eq!(bits(got), bits(&fold), "{at}: freq payload");
            assert_eq!(r.answer.to_bits(), fold.total().to_bits(), "{at}: answer");
        } else if let Some(q) = &first.quantile {
            let mut fold = QuantilePane::clone(q);
            for p in rest {
                fold.merge(p.quantile.as_ref().expect("quantile pane"));
            }
            assert_eq!(r.quantile.as_deref(), Some(&fold), "{at}: quantile payload");
            assert_eq!(r.answer.to_bits(), fold.median().to_bits(), "{at}: answer");
        } else {
            let mut fold = PanePartial::of(first.answer);
            for p in rest {
                fold.merge(&PanePartial::of(p.answer));
            }
            let want = fold.evaluate(r.merge);
            assert_eq!(r.answer.to_bits(), want.to_bits(), "{at}: answer");
        }
        let covs = span.iter().map(|p| p.coverage);
        let min_cov = covs.clone().fold(f64::INFINITY, f64::min);
        assert_eq!(
            r.min_coverage.to_bits(),
            min_cov.to_bits(),
            "{at}: min coverage"
        );
        let mean = covs.fold(0.0, |s, c| s + c) / span.len() as f64;
        let evicted =
            matches!(r.spec, WindowSpec::Sliding { len, hop } if hop < len && hi >= len as usize);
        if evicted {
            assert!((r.coverage - mean).abs() <= 1e-12, "{at}: coverage");
        } else {
            assert_eq!(r.coverage.to_bits(), mean.to_bits(), "{at}: coverage");
        }
        let between = &span[..span.len() - 1];
        assert_eq!(
            (r.relabels, r.nodes_joined, r.nodes_left, r.bytes),
            (
                between.iter().filter(|p| p.last_pane.relabeled).count() as u32,
                span.iter().map(|p| p.nodes_joined).sum::<u64>(),
                span.iter().map(|p| p.nodes_left).sum::<u64>(),
                span.iter().map(|p| p.bytes).sum::<u64>(),
            ),
            "{at}: relabels, churn and bytes"
        );
        checked += 1;
    }
    checked
}
