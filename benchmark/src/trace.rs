//! In-memory spans around the harness's calls into each layer, written
//! out as JSON lines when the traced run ends.
//!
//! One process-wide recorder: the stream layer calls back into the
//! harness (`Workload::readings`) from inside a span, and that callback
//! has no way to be handed a recorder. Spans are recorded by the thread
//! driving the workload; the recorder is a mutex only so that it can be
//! a `static`.
//!
//! A span's parent is the span that was open when it began, so the file
//! can be folded back into the ladder: a layer's self time is its span's
//! duration minus the part its child spans cover.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call, e.g. `stream.step`.
    pub name: &'static str,
    /// Ladder rung or probe the call was made for.
    pub rung: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End (0 while open).
    pub end_ns: u64,
    /// Id (index + 1) of the span open when this one began; 0 = none.
    pub parent: u32,
    /// Epoch or round the call belongs to.
    pub epoch: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rung: &'static str,
    dropped: u64,
}

static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

/// Spans kept at most; later ones are counted as dropped.
const CAPACITY: usize = 1 << 20;

fn with<T>(f: impl FnOnce(&mut Recorder) -> T) -> Option<T> {
    RECORDER
        .lock()
        .expect("no span is recorded while panicking")
        .as_mut()
        .map(f)
}

/// Start recording (buffers are harness-owned: hidden from the
/// allocation counters).
pub fn start() {
    let rec = crate::alloc::excluded(|| Recorder {
        origin: Instant::now(),
        spans: Vec::with_capacity(CAPACITY),
        open: Vec::with_capacity(64),
        rung: "",
        dropped: 0,
    });
    *RECORDER.lock().expect("recorder lock") = Some(rec);
}

/// Name the rung the following spans belong to.
pub fn set_rung(rung: &'static str) {
    with(|r| r.rung = rung);
}

/// An open span; ends when dropped.
pub struct Open(Option<u32>);

/// Begin a span. Without a started recorder this is a no-op, so the same
/// drive code serves the traced and the untraced copy.
pub fn begin(name: &'static str, epoch: u64) -> Open {
    Open(
        with(|r| {
            if r.spans.len() == CAPACITY || r.open.len() == r.open.capacity() {
                r.dropped += 1;
                return None;
            }
            let id = r.spans.len() as u32 + 1;
            r.spans.push(Span {
                name,
                rung: r.rung,
                start_ns: r.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: r.open.last().copied().unwrap_or(0),
                epoch,
            });
            r.open.push(id);
            Some(id)
        })
        .flatten(),
    )
}

impl Drop for Open {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            with(|r| {
                r.spans[id as usize - 1].end_ns = r.origin.elapsed().as_nanos() as u64;
                // Spans nest, so the one ending is the innermost open.
                r.open.pop();
            });
        }
    }
}

/// Stop recording and write every span as one JSON line to `path`
/// (creating its directory). Returns (spans written, spans dropped).
pub fn finish(workload: &str, path: &Path) -> std::io::Result<(usize, u64)> {
    let rec = RECORDER.lock().expect("recorder lock").take();
    let Some(rec) = rec else {
        return Ok((0, 0));
    };
    // The buffers were allocated under `excluded`; `rec` moves into the
    // closure so that they are freed under it too.
    crate::alloc::excluded(move || {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in rec.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"rung\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"epoch\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.rung,
                i + 1,
                s.parent,
                s.name,
                s.epoch,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()?;
        Ok((rec.spans.len(), rec.dropped))
    })
}
