//! Point-in-time snapshots of a [`Registry`](crate::Registry), with
//! quantile estimation, merge, and JSON / Prometheus-text export.
//!
//! Snapshot merge is **associative and commutative** (counters and
//! histogram buckets add; gauges add, which is the right semantics for
//! the occupancy-style gauges this suite uses) — pinned by property
//! tests — so snapshots from per-runtime registries, per-process
//! registries, or repeated scrapes can be folded in any order.

use std::collections::BTreeMap;

use crate::json::{num, JsonObject, JsonValue};

/// Merged view of one histogram: bucket counts plus total sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive bucket upper bounds (strictly increasing).
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts; `counts.len() == bounds.len() + 1`,
    /// the final entry being the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all recorded samples (wrapping).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation inside the bucket holding the target rank.
    ///
    /// The overflow bucket interpolates toward twice the last bound
    /// (the geometric continuation of the default bucket layout).
    /// Returns 0.0 for an empty histogram. Monotone in `q` by
    /// construction: a larger `q` lands at the same bucket with a
    /// larger in-bucket fraction, or at a later bucket whose range
    /// starts where the earlier one ended.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let prev = cum;
            cum += c;
            if cum as f64 >= rank {
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let upper = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.bounds.last().copied().unwrap_or(0).saturating_mul(2)
                };
                let frac = ((rank - prev as f64) / c as f64).clamp(0.0, 1.0);
                return lower as f64 + (upper - lower) as f64 * frac;
            }
        }
        // Unreachable for total > 0, but fall back to the top bound.
        self.bounds.last().copied().unwrap_or(0) as f64
    }

    /// Fold `other` into `self` (bucket-wise add).
    ///
    /// # Panics
    /// If the two snapshots have different bucket bounds.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// Point-in-time values of every metric in a registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value by name, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name, 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// True when the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold `other` into `self`: counters and gauges add, histograms
    /// merge bucket-wise. Associative and commutative.
    ///
    /// # Panics
    /// If a histogram name collides with different bucket bounds.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// Render the snapshot as a pretty-printed JSON document.
    ///
    /// Histograms carry `count`, `sum`, `mean`, interpolated
    /// `p50`/`p90`/`p99`, and the non-empty `[upper_bound, count]`
    /// bucket pairs. This is the encoder behind
    /// `results/telemetry_snapshot.json`.
    pub fn to_json(&self) -> String {
        let mut root = JsonObject::new();
        let mut counters = JsonObject::new();
        for (name, v) in &self.counters {
            counters.set(name, *v);
        }
        root.set("counters", counters);
        let mut gauges = JsonObject::new();
        for (name, v) in &self.gauges {
            gauges.set(name, *v);
        }
        root.set("gauges", gauges);
        let mut hists = JsonObject::new();
        for (name, h) in &self.histograms {
            let mut obj = JsonObject::new();
            obj.set("count", h.count());
            obj.set("sum", h.sum);
            obj.set("mean", num(h.mean(), 1));
            obj.set("p50", num(h.quantile(0.50), 1));
            obj.set("p90", num(h.quantile(0.90), 1));
            obj.set("p99", num(h.quantile(0.99), 1));
            let buckets: Vec<JsonValue> = h
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| {
                    let bound = if i < h.bounds.len() {
                        JsonValue::from(h.bounds[i])
                    } else {
                        // Overflow bucket: no finite upper bound.
                        JsonValue::Str("+inf".to_string())
                    };
                    JsonValue::Array(vec![bound, JsonValue::from(c)])
                })
                .collect();
            obj.set("buckets", JsonValue::Array(buckets));
            hists.set(name, obj);
        }
        root.set("histograms", hists);
        root.to_string_pretty()
    }

    /// Render the snapshot in the Prometheus text exposition format.
    ///
    /// Metric names are sanitized (`.` and `-` become `_`) and
    /// prefixed with `td_`; histograms emit cumulative `_bucket{le=}`
    /// series plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut s = String::with_capacity(name.len() + 3);
            s.push_str("td_");
            for ch in name.chars() {
                if ch.is_ascii_alphanumeric() {
                    s.push(ch);
                } else {
                    s.push('_');
                }
            }
            s
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                cum += c;
                if i < h.bounds.len() {
                    out.push_str(&format!("{n}_bucket{{le=\"{}\"}} {cum}\n", h.bounds[i]));
                } else {
                    out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {cum}\n"));
                }
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(counts: Vec<u64>) -> HistogramSnapshot {
        let bounds: Vec<u64> = (0..counts.len() as u64 - 1).map(|i| 10 * (i + 1)).collect();
        let sum = counts.iter().sum::<u64>() * 5;
        HistogramSnapshot {
            bounds,
            counts,
            sum,
        }
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        // 10 samples, all in the (10, 20] bucket.
        let h = HistogramSnapshot {
            bounds: vec![10, 20, 30],
            counts: vec![0, 10, 0, 0],
            sum: 150,
        };
        // Median interpolates to the bucket midpoint.
        assert_eq!(h.quantile(0.5), 15.0);
        assert_eq!(h.quantile(0.0), 10.0);
        assert_eq!(h.quantile(1.0), 20.0);
    }

    #[test]
    fn quantile_empty_is_zero() {
        let h = hist(vec![0, 0, 0]);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn overflow_bucket_interpolates_past_last_bound() {
        let h = HistogramSnapshot {
            bounds: vec![10],
            counts: vec![0, 4],
            sum: 100,
        };
        let p50 = h.quantile(0.5);
        assert!(p50 > 10.0 && p50 <= 20.0, "p50 {p50}");
    }

    #[test]
    fn snapshot_merge_adds_everything() {
        let mut a = Snapshot::default();
        a.counters.insert("c".into(), 2);
        a.gauges.insert("g".into(), 5);
        a.histograms.insert("h".into(), hist(vec![1, 2, 0]));
        let mut b = Snapshot::default();
        b.counters.insert("c".into(), 3);
        b.counters.insert("d".into(), 1);
        b.gauges.insert("g".into(), -2);
        b.histograms.insert("h".into(), hist(vec![0, 1, 4]));
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.counter("d"), 1);
        assert_eq!(a.gauge("g"), 3);
        assert_eq!(a.histogram("h").unwrap().counts, vec![1, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = hist(vec![1, 0]);
        let b = HistogramSnapshot {
            bounds: vec![99],
            counts: vec![0, 1],
            sum: 0,
        };
        a.merge(&b);
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let mut s = Snapshot::default();
        s.histograms.insert("h".into(), hist(vec![1, 2, 3]));
        let text = s.to_prometheus();
        assert!(text.contains("td_h_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("td_h_bucket{le=\"20\"} 3\n"));
        assert!(text.contains("td_h_bucket{le=\"+Inf\"} 6\n"));
        assert!(text.contains("td_h_count 6\n"));
    }
}
