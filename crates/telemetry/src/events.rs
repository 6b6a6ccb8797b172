//! Structured events keyed by the logical clock, with a `TD_LOG`-style
//! runtime level filter, a bounded ring-buffer sink, and JSONL export.
//!
//! # Logical clock
//!
//! Wall-clock timestamps are nearly useless for correlating a
//! deterministic simulation: two runs of the same seed differ in every
//! nanosecond but agree in every *(epoch, level, slot, tenant)*
//! coordinate. Events here are therefore keyed by [`LogicalClock`] —
//! the coordinates the engine actually schedules by — with wall time
//! (nanoseconds since first telemetry use) attached as an annotation.
//!
//! # Filtering
//!
//! The filter is off by default, so instrumented code is silent unless
//! asked. `TD_LOG` accepts a comma list of a bare level and/or
//! `target=level` overrides, e.g. `TD_LOG=info,adapt=trace`. Tests and
//! tools can call [`set_level`] / [`set_target_level`] instead. The
//! hot-path check ([`enabled`]) is one relaxed atomic load when
//! everything is off.
//!
//! Enabled events go to a bounded in-memory ring (oldest dropped
//! first; capacity via `TD_LOG_RING`, default 4096) and — when `TD_LOG`
//! came from the environment — are echoed to stderr, preserving the
//! "set an env var, see the decisions" workflow that the old
//! `TD_DEBUG_ADAPT` `eprintln!`s provided. Programmatic callers can
//! turn the echo off with [`set_echo`]. Each event the full ring evicts
//! is counted in the process-global registry as
//! `telemetry.events_dropped`, so an exported snapshot says how much
//! of the event stream is missing.

use crate::registry::Counter;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// Name of the counter of events evicted from the full ring.
pub const DROPPED_METRIC: &str = "telemetry.events_dropped";

/// Event severity, ordered from most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unexpected, needs attention.
    Error = 1,
    /// Suspicious but tolerated.
    Warn = 2,
    /// High-level lifecycle (tenant added, adapter decision).
    Info = 3,
    /// Per-epoch detail.
    Debug = 4,
    /// Per-report / per-node detail.
    Trace = 5,
}

impl Level {
    /// Parse a level name (`error`/`warn`/`info`/`debug`/`trace`,
    /// case-insensitive; `off`/`0` yields `None`).
    pub fn parse(s: &str) -> Option<Option<Level>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(None),
            "error" => Some(Some(Level::Error)),
            "warn" => Some(Some(Level::Warn)),
            "info" => Some(Some(Level::Info)),
            "debug" => Some(Some(Level::Debug)),
            "trace" => Some(Some(Level::Trace)),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The logical coordinates an event is keyed by: where in the
/// deterministic schedule it happened, independent of wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogicalClock {
    /// Epoch number, when the event is inside an epoch.
    pub epoch: Option<u64>,
    /// Ring level (distance band from the base station).
    pub level: Option<u32>,
    /// Schedule slot within the epoch plan.
    pub slot: Option<u32>,
    /// Tenant id, for service-layer events.
    pub tenant: Option<u64>,
}

impl LogicalClock {
    /// A clock with no coordinates (process-level events).
    pub const NONE: LogicalClock = LogicalClock {
        epoch: None,
        level: None,
        slot: None,
        tenant: None,
    };

    /// Clock positioned at `epoch`.
    pub fn at_epoch(epoch: u64) -> Self {
        LogicalClock {
            epoch: Some(epoch),
            ..LogicalClock::NONE
        }
    }

    /// Attach a tenant id.
    pub fn with_tenant(mut self, tenant: u64) -> Self {
        self.tenant = Some(tenant);
        self
    }
}

/// A typed event field value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

macro_rules! field_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self { FieldValue::$variant(v as $conv) }
        }
    )*};
}
field_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64, f64 => F64 as f64);
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:.4}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One structured event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Severity.
    pub level: Level,
    /// Subsystem the event belongs to (`"adapt"`, `"service"`, ...).
    pub target: &'static str,
    /// Event name within the target (`"expand"`, `"park"`, ...).
    pub name: &'static str,
    /// Logical-clock coordinates.
    pub clock: LogicalClock,
    /// Wall-clock annotation: nanoseconds since first telemetry use.
    pub wall_ns: u64,
    /// Named payload fields, in call-site order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Render as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        use crate::json::JsonObject;
        let mut obj = JsonObject::new();
        obj.set("level", self.level.name());
        obj.set("target", self.target);
        obj.set("name", self.name);
        if let Some(e) = self.clock.epoch {
            obj.set("epoch", e);
        }
        if let Some(l) = self.clock.level {
            obj.set("ring_level", l);
        }
        if let Some(s) = self.clock.slot {
            obj.set("slot", s);
        }
        if let Some(t) = self.clock.tenant {
            obj.set("tenant", t);
        }
        obj.set("wall_ns", self.wall_ns);
        for (k, v) in &self.fields {
            match v {
                FieldValue::U64(x) => obj.set(k, *x),
                FieldValue::I64(x) => obj.set(k, *x),
                FieldValue::F64(x) => obj.set(k, *x),
                FieldValue::Bool(x) => obj.set(k, *x),
                FieldValue::Str(x) => obj.set(k, x.as_str()),
            };
        }
        obj.to_string_compact()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}/{}", self.level, self.target, self.name)?;
        if let Some(e) = self.clock.epoch {
            write!(f, " epoch={e}")?;
        }
        if let Some(l) = self.clock.level {
            write!(f, " level={l}")?;
        }
        if let Some(s) = self.clock.slot {
            write!(f, " slot={s}")?;
        }
        if let Some(t) = self.clock.tenant {
            write!(f, " tenant={t}")?;
        }
        write!(f, "]")?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// Highest level any filter enables — the one-load fast-path gate.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);
/// Global (target-less) level.
static GLOBAL_LEVEL: AtomicU8 = AtomicU8::new(0);
static ECHO: AtomicBool = AtomicBool::new(false);
static INIT: Once = Once::new();

struct TargetFilter {
    overrides: Mutex<Vec<(String, u8)>>,
}

fn targets() -> &'static TargetFilter {
    static T: OnceLock<TargetFilter> = OnceLock::new();
    T.get_or_init(|| TargetFilter {
        overrides: Mutex::new(Vec::new()),
    })
}

/// The bounded ring and the counter of events it evicted.
struct Sink {
    ring: Mutex<VecDeque<Event>>,
    dropped: Counter,
}

fn sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| Sink {
        ring: Mutex::new(VecDeque::new()),
        dropped: crate::global().counter(DROPPED_METRIC),
    })
}

fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("TD_LOG_RING")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(4096)
    })
}

fn epoch_instant() -> Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    *T0.get_or_init(Instant::now)
}

fn recompute_max() {
    let global = GLOBAL_LEVEL.load(Ordering::Relaxed);
    let overrides = targets().overrides.lock().unwrap();
    let max = overrides
        .iter()
        .map(|(_, l)| *l)
        .chain(std::iter::once(global))
        .max()
        .unwrap_or(0);
    MAX_LEVEL.store(max, Ordering::Relaxed);
}

/// Apply a `TD_LOG`-style spec (`info,adapt=trace`) to the filters.
/// Must stay `ensure_init`-free: it runs inside the `INIT` closure,
/// and `Once` deadlocks on recursive `call_once`.
fn apply_spec(spec: &str) {
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some((target, level)) = part.split_once('=') {
            if let Some(l) = Level::parse(level) {
                apply_target_level(target, l);
            }
        } else if let Some(l) = Level::parse(part) {
            apply_level(l);
        }
    }
}

fn ensure_init() {
    INIT.call_once(|| {
        epoch_instant();
        let Ok(spec) = std::env::var("TD_LOG") else {
            return;
        };
        // Env-driven filters echo to stderr, like the old
        // TD_DEBUG_ADAPT debugging flow.
        ECHO.store(true, Ordering::Relaxed);
        apply_spec(&spec);
    });
}

fn apply_level(level: Option<Level>) {
    GLOBAL_LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
    recompute_max();
}

fn apply_target_level(target: &str, level: Option<Level>) {
    let mut overrides = targets().overrides.lock().unwrap();
    overrides.retain(|(t, _)| t != target);
    if let Some(l) = level {
        overrides.push((target.to_string(), l as u8));
    }
    drop(overrides);
    recompute_max();
}

/// Whether an event at `level` for `target` would be recorded.
///
/// One relaxed atomic load when every filter is off.
pub fn enabled(level: Level, target: &str) -> bool {
    ensure_init();
    let max = MAX_LEVEL.load(Ordering::Relaxed);
    if level as u8 > max {
        return false;
    }
    if level as u8 <= GLOBAL_LEVEL.load(Ordering::Relaxed) {
        return true;
    }
    let overrides = targets().overrides.lock().unwrap();
    overrides
        .iter()
        .any(|(t, l)| t == target && level as u8 <= *l)
}

/// Set the global level filter (`None` = off). Overrides `TD_LOG`.
pub fn set_level(level: Option<Level>) {
    ensure_init();
    apply_level(level);
}

/// Set (or with `None`, clear) a per-target level override.
pub fn set_target_level(target: &str, level: Option<Level>) {
    ensure_init();
    apply_target_level(target, level);
}

/// Enable or disable echoing recorded events to stderr. Defaults to
/// on only when the filter came from the `TD_LOG` environment
/// variable.
pub fn set_echo(on: bool) {
    ECHO.store(on, Ordering::Relaxed);
}

/// Nanoseconds since first telemetry use (the wall-clock annotation).
pub fn wall_ns() -> u64 {
    u64::try_from(epoch_instant().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Push an event into the ring sink (and stderr, when echo is on).
/// A full ring evicts its oldest event and counts it in
/// `telemetry.events_dropped`. Call sites normally go through
/// [`td_event!`](crate::td_event), which checks [`enabled`] first.
pub fn record(event: Event) {
    if ECHO.load(Ordering::Relaxed) {
        eprintln!("{event}");
    }
    let sink = sink();
    let mut ring = sink.ring.lock().unwrap();
    if ring.len() >= ring_capacity() && ring.pop_front().is_some() {
        sink.dropped.inc();
    }
    ring.push_back(event);
}

/// Copy of the ring's current contents, oldest first.
pub fn events() -> Vec<Event> {
    sink().ring.lock().unwrap().iter().cloned().collect()
}

/// Drain the ring, returning its contents oldest first.
pub fn drain() -> Vec<Event> {
    sink().ring.lock().unwrap().drain(..).collect()
}

/// Write every buffered event as JSONL into `w` (one event per line),
/// returning how many were written. Does not drain the ring.
pub fn export_jsonl<W: std::io::Write>(w: &mut W) -> std::io::Result<usize> {
    let evs = events();
    for e in &evs {
        writeln!(w, "{}", e.to_jsonl())?;
    }
    Ok(evs.len())
}

/// Record a structured event: severity, target, name, logical clock,
/// then `key = value` fields.
///
/// ```
/// use td_telemetry::{td_event, Level, LogicalClock};
/// td_event!(Level::Debug, "adapt", "expand", LogicalClock::at_epoch(4),
///           switched = 3u64, pct = 0.82);
/// ```
///
/// The filter check happens before any field is materialized, so a
/// disabled event costs one atomic load and evaluates no field
/// expression.
#[macro_export]
macro_rules! td_event {
    ($lvl:expr, $target:expr, $name:expr, $clock:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        let lvl = $lvl;
        if $crate::events::enabled(lvl, $target) {
            $crate::events::record($crate::events::Event {
                level: lvl,
                target: $target,
                name: $name,
                clock: $clock,
                wall_ns: $crate::events::wall_ns(),
                fields: vec![
                    $((stringify!($k), $crate::events::FieldValue::from($v))),*
                ],
            });
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_levels() {
        assert_eq!(Level::parse("TRACE"), Some(Some(Level::Trace)));
        assert_eq!(Level::parse("off"), Some(None));
        assert_eq!(Level::parse("bogus"), None);
    }

    #[test]
    fn target_override_enables_only_that_target() {
        set_echo(false);
        set_level(None);
        set_target_level("evtest", Some(Level::Debug));
        assert!(enabled(Level::Debug, "evtest"));
        assert!(!enabled(Level::Trace, "evtest"));
        assert!(!enabled(Level::Debug, "other-target"));
        set_target_level("evtest", None);
        assert!(!enabled(Level::Debug, "evtest"));
    }

    #[test]
    fn event_jsonl_and_display() {
        let e = Event {
            level: Level::Info,
            target: "svc",
            name: "park",
            clock: LogicalClock::at_epoch(7).with_tenant(3),
            wall_ns: 42,
            fields: vec![("queued", FieldValue::U64(5)), ("why", "full".into())],
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"level\":\"info\",\"target\":\"svc\",\"name\":\"park\",\
             \"epoch\":7,\"tenant\":3,\"wall_ns\":42,\"queued\":5,\"why\":\"full\"}"
        );
        assert_eq!(
            format!("{e}"),
            "[info svc/park epoch=7 tenant=3] queued=5 why=full"
        );
    }

    #[test]
    fn macro_records_into_ring() {
        set_echo(false);
        set_target_level("ringtest", Some(Level::Trace));
        crate::td_event!(
            Level::Trace,
            "ringtest",
            "ping",
            LogicalClock::NONE,
            n = 1u64
        );
        set_target_level("ringtest", None);
        let evs = events();
        assert!(evs
            .iter()
            .any(|e| e.target == "ringtest" && e.name == "ping"));
    }
}
