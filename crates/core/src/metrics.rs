//! Error metrics used by the evaluation (§7).

/// Relative root-mean-square error of a series of answers against a
/// per-epoch truth series (§7.3): the RMS of `V_t − V` over the RMS of
/// `V`. Against a constant truth this is `(1/V)·√(Σ (V_t − V)² / T)`.
///
/// Returns 0 for an empty series.
///
/// # Panics
/// Panics if any actual value is 0 (the metric is undefined).
pub fn rms_error_series(estimates: &[f64], actuals: &[f64]) -> f64 {
    assert_eq!(estimates.len(), actuals.len());
    if estimates.is_empty() {
        return 0.0;
    }
    let mut mse = 0.0;
    let mut scale = 0.0;
    for (v, a) in estimates.iter().zip(actuals) {
        assert!(*a != 0.0, "RMS error undefined for a zero actual value");
        mse += (v - a) * (v - a);
        scale += a * a;
    }
    (mse / estimates.len() as f64).sqrt() / (scale / estimates.len() as f64).sqrt()
}

/// Relative error of a single answer: `|V_t − V| / V` (Figure 6 plots
/// these per epoch).
pub fn relative_error(estimate: f64, actual: f64) -> f64 {
    assert!(actual != 0.0);
    (estimate - actual).abs() / actual.abs()
}

/// False-negative rate: the fraction of `truth` items missing from
/// `reported` (Figure 9's y-axis). Returns 0 when `truth` is empty.
pub fn false_negative_rate(reported: &[u64], truth: &[u64]) -> f64 {
    if truth.is_empty() {
        return 0.0;
    }
    let reported: std::collections::BTreeSet<u64> = reported.iter().copied().collect();
    let missing = truth.iter().filter(|u| !reported.contains(u)).count();
    missing as f64 / truth.len() as f64
}

/// False-positive rate: the fraction of `reported` items not in `truth`.
/// Returns 0 when nothing is reported.
pub fn false_positive_rate(reported: &[u64], truth: &[u64]) -> f64 {
    if reported.is_empty() {
        return 0.0;
    }
    let truth: std::collections::BTreeSet<u64> = truth.iter().copied().collect();
    let junk = reported.iter().filter(|u| !truth.contains(u)).count();
    junk as f64 / reported.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rms_of_exact_series_is_zero() {
        assert_eq!(rms_error_series(&[100.0; 3], &[100.0; 3]), 0.0);
    }

    #[test]
    fn rms_matches_hand_computation() {
        // Errors -10 and +10 around 100: sqrt((100+100)/2)/100 = 0.1.
        let e = rms_error_series(&[90.0, 110.0], &[100.0, 100.0]);
        assert!((e - 0.1).abs() < 1e-12);
    }

    #[test]
    fn rms_total_loss_is_one() {
        // Estimating 0 for everything gives RMS error 1.0 — the upper
        // plateau of Figure 5(a) at p = 1.
        assert!((rms_error_series(&[0.0, 0.0], &[500.0, 500.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rms_series_weighted() {
        let e = rms_error_series(&[90.0, 220.0], &[100.0, 200.0]);
        assert!(e > 0.0 && e < 0.2, "{e}");
    }

    #[test]
    fn relative_error_basic() {
        assert!((relative_error(88.0, 100.0) - 0.12).abs() < 1e-12);
        assert_eq!(relative_error(100.0, 100.0), 0.0);
    }

    #[test]
    fn false_rates() {
        let truth = vec![1, 2, 3, 4];
        let reported = vec![1, 2, 9];
        assert!((false_negative_rate(&reported, &truth) - 0.5).abs() < 1e-12);
        assert!((false_positive_rate(&reported, &truth) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(false_negative_rate(&[], &[]), 0.0);
        assert_eq!(false_positive_rate(&[], &truth), 0.0);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn rms_zero_actual_panics() {
        let _ = rms_error_series(&[1.0], &[0.0]);
    }
}
