//! The correctness gate: every report the workload is expected to emit
//! is counted, validated and, where ground truth exists, scored.
//!
//! An *operation* is one expected window report. It fails if it is
//! missing or invalid. Validity: a finite answer, `0 ≤ min_coverage ≤
//! coverage ≤ 1`, `panes ≤ expected_panes`, and — on TAG, where loss can
//! only remove contributions — a Sum or Count answer never above ground
//! truth. The gate also folds every answer into an FNV-1a digest, so two
//! drives of one scenario can be compared bit for bit.

use rand::rngs::StdRng;
use td_netsim::loss::NoLoss;
use td_stream::{StreamSession, WindowReport};
use tributary_delta::driver::{Driver, Workload};
use tributary_delta::session::Scheme;

use crate::alloc::Hidden;
use crate::scenario::{register_queries, WindowExpect, WindowTruth, World};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// How many failure descriptions a gate keeps for the log.
const MAX_NOTES: usize = 8;

/// What a gate has counted so far.
#[derive(Clone, Debug)]
pub struct GateStats {
    /// Window reports expected.
    pub attempted: u64,
    /// Of those, missing or invalid.
    pub failed: u64,
    /// Σ (relative error)² over the scored Sum-window reports.
    pub sq_rel_err: f64,
    /// Scored reports.
    pub scored: u64,
    /// Σ `WindowReport::coverage` over the same reports.
    pub coverage: f64,
    /// Σ simulated radio payload bytes of the epochs that emitted them
    /// (`last_pane.comm`, one traversal per epoch).
    pub comm_bytes: u64,
    /// FNV-1a over (query, window, end epoch, answer bits) of every
    /// report, in emission order.
    pub digest: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Default for GateStats {
    fn default() -> Self {
        GateStats {
            attempted: 0,
            failed: 0,
            sq_rel_err: 0.0,
            scored: 0,
            coverage: 0.0,
            comm_bytes: 0,
            digest: FNV_OFFSET,
            notes: Vec::new(),
        }
    }
}

impl GateStats {
    /// RMS relative error of the scored answers.
    pub fn rel_error_rms(&self) -> f64 {
        (self.sq_rel_err / self.scored.max(1) as f64).sqrt()
    }

    /// Mean coverage of the scored reports.
    pub fn mean_coverage(&self) -> f64 {
        self.coverage / self.scored.max(1) as f64
    }

    /// Fold another gate's counts in (per-tenant gates into one).
    pub fn absorb(&mut self, other: &GateStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.sq_rel_err += other.sq_rel_err;
        self.scored += other.scored;
        self.coverage += other.coverage;
        self.comm_bytes += other.comm_bytes;
        self.digest = fnv(self.digest, other.digest);
        for note in &other.notes {
            self.note(note.clone());
        }
    }

    fn note(&mut self, note: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }
}

/// The gate of one session: knows its windows and the exact Σ readings
/// of every epoch driven so far.
pub struct Gate {
    expect: Vec<WindowExpect>,
    /// TAG: answers of Sum/Count windows are bounded by ground truth.
    bounded_above: bool,
    sensors: u64,
    warmup: u64,
    /// `prefix[e]` = Σ true sums of epochs `0..e` (harness-owned: hidden
    /// from the allocation counters).
    prefix: Hidden<Vec<u64>>,
    /// The counts.
    pub stats: GateStats,
}

impl Gate {
    /// A gate for `expect` on a session of `scheme` over `sensors`
    /// sensors whose first `warmup` epochs emit nothing. Room for
    /// `epochs` epochs of ground truth is reserved up front.
    pub fn new(
        expect: &[WindowExpect],
        scheme: Scheme,
        sensors: usize,
        warmup: u64,
        epochs: usize,
    ) -> Self {
        let prefix = Hidden::new(|| {
            let mut prefix = Vec::with_capacity(epochs + 1);
            prefix.push(0);
            prefix
        });
        Gate {
            expect: expect.to_vec(),
            bounded_above: scheme == Scheme::Tag,
            sensors: sensors as u64,
            warmup,
            prefix,
            stats: GateStats::default(),
        }
    }

    /// Record the exact Σ readings of the next epoch. Call, in epoch
    /// order, before checking that epoch's reports.
    pub fn push_truth(&mut self, true_sum: u64) {
        let last = *self.prefix.last().expect("prefix starts at 0");
        self.prefix.with(|p| p.push(last + true_sum));
    }

    fn true_sum(&self, start: u64, end: u64) -> u64 {
        self.prefix[end as usize + 1] - self.prefix[start as usize]
    }

    /// Check the reports `epoch` emitted.
    pub fn check_epoch(&mut self, epoch: u64, reports: &[WindowReport]) {
        if epoch < self.warmup {
            if !reports.is_empty() {
                self.stats.failed += reports.len() as u64;
                self.stats.attempted += reports.len() as u64;
                self.stats
                    .note(format!("epoch {epoch}: warm-up epoch emitted reports"));
            }
            return;
        }
        let seq = epoch - self.warmup;
        let mut seen = 0u64;
        for r in reports {
            self.stats.digest = [
                r.handle.query as u64,
                r.handle.window as u64,
                r.end_epoch,
                r.answer.to_bits(),
            ]
            .into_iter()
            .fold(self.stats.digest, fnv);
            let slot = self
                .expect
                .iter()
                .position(|w| w.query == r.handle.query && w.window == r.handle.window);
            let Some(slot) = slot else {
                self.stats.attempted += 1;
                self.stats.failed += 1;
                self.stats
                    .note(format!("epoch {epoch}: report from an unknown window"));
                continue;
            };
            let w = self.expect[slot];
            if !w.emits_after(seq) || seen & (1 << slot) != 0 || r.end_epoch != epoch {
                self.stats.attempted += 1;
                self.stats.failed += 1;
                self.stats.note(format!(
                    "epoch {epoch}: unexpected report from window {}.{}",
                    w.query, w.window
                ));
                continue;
            }
            seen |= 1 << slot;
            if let Err(why) = self.validate(&w, r) {
                self.stats.failed += 1;
                self.stats.note(format!(
                    "epoch {epoch}: window {}.{}: {why}",
                    w.query, w.window
                ));
            }
        }
        for (slot, w) in self.expect.iter().enumerate() {
            if w.emits_after(seq) {
                self.stats.attempted += 1;
                if seen & (1 << slot) == 0 {
                    self.stats.failed += 1;
                    let note = format!(
                        "epoch {epoch}: report of window {}.{} missing",
                        w.query, w.window
                    );
                    self.stats.note(note);
                }
            }
        }
    }

    fn validate(&mut self, w: &WindowExpect, r: &WindowReport) -> Result<(), String> {
        if !r.answer.is_finite() {
            return Err(format!("answer {} is not finite", r.answer));
        }
        // The mean is a rounded quotient of a rounded sum: when every pane
        // has the same coverage it may land one rounding below the minimum
        // or above 1.
        const ROUNDING: f64 = 1e-12;
        if !(0.0 <= r.min_coverage
            && r.min_coverage <= r.coverage + ROUNDING
            && r.coverage <= 1.0 + ROUNDING)
        {
            return Err(format!(
                "coverage out of order: min {} mean {}",
                r.min_coverage, r.coverage
            ));
        }
        if r.panes > r.expected_panes {
            return Err(format!("{} panes of {}", r.panes, r.expected_panes));
        }
        if r.start_epoch > r.end_epoch || r.end_epoch - r.start_epoch + 1 != r.panes as u64 {
            return Err(format!(
                "epochs {}..={} do not span {} panes",
                r.start_epoch, r.end_epoch, r.panes
            ));
        }
        let truth = match w.truth {
            WindowTruth::SumAdd => self.true_sum(r.start_epoch, r.end_epoch) as f64,
            WindowTruth::CountAdd => (self.sensors * r.panes as u64) as f64,
            WindowTruth::Unchecked => return Ok(()),
        };
        if self.bounded_above && r.answer > truth {
            return Err(format!(
                "TAG answer {} above ground truth {truth}",
                r.answer
            ));
        }
        if w.truth == WindowTruth::SumAdd {
            let rel = (r.answer - truth) / truth;
            self.stats.sq_rel_err += rel * rel;
            self.stats.coverage += r.coverage;
            self.stats.comm_bytes += r.last_pane.comm.total_bytes();
            self.stats.scored += 1;
        }
        Ok(())
    }
}

/// Epochs of the lossless prelude.
pub const PRELUDE_EPOCHS: u64 = 3;

/// The lossless prelude: a session of the workload's own configuration
/// over the workload's own deployment, driven for three epochs without
/// loss or churn. TAG must then answer the windowed Sum exactly at
/// coverage 1; TD within 0.5 relative error (its delta counts with FM
/// sketches); and a q-digest median must sit within the digest's
/// self-reported rank uncertainty of the true median.
pub fn prelude(world: &World) -> Result<(), String> {
    let mut rng = world.prelude_rng();
    let mut stream = StreamSession::new(Driver::new(world.session(), 0));
    let expect = register_queries(&mut stream, &world.spec, world.net.len());
    prelude_on(stream, &expect, &world.workload, &mut rng)
}

/// [`prelude`] on a session that already has `expect` registered and no
/// warm-up.
pub fn prelude_on(
    mut stream: StreamSession,
    expect: &[WindowExpect],
    workload: &impl Workload,
    rng: &mut StdRng,
) -> Result<(), String> {
    let scheme = stream.session().config().scheme;
    let sensors = stream.session().sensors();
    let mut gate = Gate::new(expect, scheme, sensors, 0, PRELUDE_EPOCHS as usize);
    let mut window_readings: Vec<u64> = Vec::new();
    for epoch in 0..PRELUDE_EPOCHS {
        let readings = workload.readings(epoch);
        gate.push_truth(readings[1..].iter().sum());
        window_readings.extend_from_slice(&readings[1..]);
        let reports = stream.step(workload, &NoLoss, rng);
        gate.check_epoch(epoch, &reports);
        for r in &reports {
            let w = expect
                .iter()
                .find(|w| w.query == r.handle.query && w.window == r.handle.window)
                .ok_or("prelude report from an unknown window")?;
            if w.truth == WindowTruth::SumAdd {
                let truth = gate.true_sum(r.start_epoch, r.end_epoch) as f64;
                let rel = (r.answer - truth).abs() / truth;
                let exact = scheme == Scheme::Tag;
                if exact && (r.answer != truth || r.coverage != 1.0) {
                    return Err(format!(
                        "lossless TAG Sum {} != truth {truth} (coverage {})",
                        r.answer, r.coverage
                    ));
                }
                if rel > 0.5 {
                    return Err(format!(
                        "lossless Sum {} is {rel:.3} off truth {truth}",
                        r.answer
                    ));
                }
            }
            if let Some(q) = &r.quantile {
                window_readings.sort_unstable();
                let err = median_rank_error(q, &window_readings)?;
                if err > q.uncertainty() {
                    return Err(format!(
                        "lossless q-digest median rank error {err} above its uncertainty {}",
                        q.uncertainty()
                    ));
                }
            }
        }
    }
    if gate.stats.failed > 0 {
        return Err(format!(
            "{} of {} lossless reports failed: {:?}",
            gate.stats.failed, gate.stats.attempted, gate.stats.notes
        ));
    }
    Ok(())
}

/// Rank error of a quantile pane's median against the sorted readings
/// it summarises: how far the pane's rank for its own median value lies
/// outside that value's true rank interval.
pub fn median_rank_error(q: &td_stream::QuantilePane, sorted: &[u64]) -> Result<u64, String> {
    if q.population() != sorted.len() as u64 {
        return Err(format!(
            "quantile pane holds {} readings, {} were contributed",
            q.population(),
            sorted.len()
        ));
    }
    let median = q.quantile(0.5).ok_or("quantile pane is empty")?;
    let lo = sorted.partition_point(|&x| x < median) as u64;
    let hi = sorted.partition_point(|&x| x <= median) as u64;
    let got = q.rank(median);
    Ok(if got < lo {
        lo - got
    } else {
        got.saturating_sub(hi)
    })
}
