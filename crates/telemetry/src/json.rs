//! A tiny dependency-free JSON encoder.
//!
//! Used by the telemetry snapshot export and the structured-event
//! JSONL export. Encode-only.
//!
//! Insertion order is preserved ([`JsonObject`] is a `Vec` of pairs),
//! so exported files keep their hand-authored key order and diffs stay
//! readable. Floats carry an optional fixed number of decimals, which
//! is how callers control precision per key.

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Float, optionally rendered with a fixed number of decimals.
    /// Non-finite values render as `null` (JSON has no NaN/Inf).
    Float {
        /// The value itself.
        value: f64,
        /// `Some(d)` renders `{value:.d$}`; `None` uses the shortest
        /// round-trip form.
        decimals: Option<usize>,
    },
    /// String (escaped on output).
    Str(String),
    /// Array of values.
    Array(Vec<JsonValue>),
    /// Nested object.
    Object(JsonObject),
}

/// A float rendered with a fixed number of decimals: `num(x, 3)`
/// encodes as `{x:.3}`.
pub fn num(value: f64, decimals: usize) -> JsonValue {
    JsonValue::Float {
        value,
        decimals: Some(decimals),
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float {
            value: v,
            decimals: None,
        }
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl From<JsonObject> for JsonValue {
    fn from(v: JsonObject) -> Self {
        JsonValue::Object(v)
    }
}

/// An insertion-ordered JSON object.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JsonObject {
    entries: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Append (or overwrite) `key` with `value`; returns `self` for
    /// chaining.
    pub fn set(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut Self {
        let value = value.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key.to_string(), value));
        }
        self
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the object has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render with two-space indentation and a trailing newline — the
    /// layout the committed `results/*.json` files use.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value_pretty(&JsonValue::Object(self.clone()), &mut out, 0);
        out.push('\n');
        out
    }

    /// Render on a single line (no trailing newline) — the JSONL form.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value_compact(&JsonValue::Object(self.clone()), &mut out);
        out
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_scalar(v: &JsonValue, out: &mut String) -> bool {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Int(i) => out.push_str(&i.to_string()),
        JsonValue::UInt(u) => out.push_str(&u.to_string()),
        JsonValue::Float { value, decimals } => {
            if !value.is_finite() {
                out.push_str("null");
            } else {
                match decimals {
                    Some(d) => out.push_str(&format!("{value:.prec$}", prec = *d)),
                    None => out.push_str(&format!("{value}")),
                }
            }
        }
        JsonValue::Str(s) => escape_into(s, out),
        _ => return false,
    }
    true
}

fn write_value_compact(v: &JsonValue, out: &mut String) {
    if write_scalar(v, out) {
        return;
    }
    match v {
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value_compact(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(obj) => {
            out.push('{');
            for (i, (k, val)) in obj.entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                out.push(':');
                write_value_compact(val, out);
            }
            out.push('}');
        }
        _ => unreachable!("scalars handled above"),
    }
}

fn write_value_pretty(v: &JsonValue, out: &mut String, indent: usize) {
    if write_scalar(v, out) {
        return;
    }
    let pad = "  ".repeat(indent + 1);
    let close_pad = "  ".repeat(indent);
    match v {
        // Arrays stay compact even in pretty mode: the only arrays in
        // the exported files are short bucket pairs.
        JsonValue::Array(_) => write_value_compact(v, out),
        JsonValue::Object(obj) => {
            if obj.entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, val)) in obj.entries.iter().enumerate() {
                out.push_str(&pad);
                escape_into(k, out);
                out.push_str(": ");
                write_value_pretty(val, out, indent + 1);
                if i + 1 < obj.entries.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&close_pad);
            out.push('}');
        }
        _ => unreachable!("scalars handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_flat_object_matches_results_layout() {
        let mut obj = JsonObject::new();
        obj.set("sensors", 150u64)
            .set("speedup", num(1.2345, 3))
            .set("label", "pool");
        assert_eq!(
            obj.to_string_pretty(),
            "{\n  \"sensors\": 150,\n  \"speedup\": 1.234,\n  \"label\": \"pool\"\n}\n"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut obj = JsonObject::new();
        obj.set("k", "a\"b\\c\nd\u{1}");
        assert_eq!(
            obj.to_string_compact(),
            "{\"k\":\"a\\\"b\\\\c\\nd\\u0001\"}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut obj = JsonObject::new();
        obj.set("bad", f64::NAN).set("inf", f64::INFINITY);
        assert_eq!(obj.to_string_compact(), "{\"bad\":null,\"inf\":null}");
    }

    #[test]
    fn nested_objects_and_arrays_render() {
        let mut inner = JsonObject::new();
        inner.set("p50", num(10.0, 1));
        let mut obj = JsonObject::new();
        obj.set("hist", inner);
        obj.set(
            "buckets",
            JsonValue::Array(vec![JsonValue::from(1u64), JsonValue::from(2u64)]),
        );
        assert_eq!(
            obj.to_string_compact(),
            "{\"hist\":{\"p50\":10.0},\"buckets\":[1,2]}"
        );
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut obj = JsonObject::new();
        obj.set("a", 1u64).set("b", 2u64).set("a", 9u64);
        assert_eq!(obj.to_string_compact(), "{\"a\":9,\"b\":2}");
    }
}
