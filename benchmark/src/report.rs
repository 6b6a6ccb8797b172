//! Printing results: one line per metric for people, and the one JSON
//! object the builder's contract asks for as the last line.

use std::fmt::Write;

use crate::catalog::Entry;

/// One measured value.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Its catalog entry.
    pub entry: Entry,
    /// The value, as measured.
    pub value: f64,
}

/// `name value unit` lines, aligned.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<42} {:>18} {}",
            m.entry.name,
            format_value(m.value),
            m.entry.unit
        );
    }
    out
}

fn format_value(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.001 && v.abs() < 1e7) {
        let digits = if v.abs() >= 1000.0 { 1 } else { 6 };
        format!("{v:.digits$}")
    } else {
        format!("{v:e}")
    }
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`
/// with every value at full precision.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest digits that read back to the same
        // f64, and always as a JSON number for finite values.
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.entry.name,
            if m.value.is_finite() { m.value } else { 0.0 },
            m.entry.unit
        );
    }
    out.push_str("}}");
    out
}

/// Read a result object written by [`json_line`] back: the `correct`
/// flag and every `(name, value)` of `metrics`. `None` if `line` is not
/// such an object.
pub fn parse_json_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let mut rest = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut metrics = Vec::new();
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let name = &after[..after.find('"')?];
        let value_at = after.find("\"value\": ")? + "\"value\": ".len();
        let tail = &after[value_at..];
        let value = tail[..tail.find([',', '}'])?].trim().parse().ok()?;
        metrics.push((name.to_string(), value));
        rest = &tail[tail.find('}')? + 1..];
    }
    Some((correct, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::END_TO_END;

    #[test]
    fn json_line_reads_back() {
        let metrics: Vec<Metric> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, &entry)| Metric {
                entry,
                value: 0.1 + i as f64 * 1234.5678,
            })
            .collect();
        let line = json_line(true, 7, 0, &metrics);
        let (correct, back) = parse_json_line(&line).expect("parses");
        assert!(correct);
        assert_eq!(back.len(), metrics.len());
        for (m, (name, value)) in metrics.iter().zip(&back) {
            assert_eq!(m.entry.name, name);
            assert_eq!(m.value, *value, "full precision survives");
        }
        assert!(
            !parse_json_line(&json_line(false, 1, 1, &[]))
                .expect("parses")
                .0
        );
    }
}
