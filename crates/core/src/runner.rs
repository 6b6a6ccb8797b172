//! One epoch of level-synchronized aggregation, split into **compile**
//! and **execute** phases.
//!
//! [`EpochPlan`] compiles a topology — a labeled [`TdTopology`] or a
//! plain TAG [`Tree`] — into **one step table** with **one builder**:
//! the sender list ordered by tree depth (deepest first, id order within
//! a depth), per-sender mode, tree parent and height, per-link broadcast
//! delivery lists flattened into one table, each slot's tree children in
//! one more, and the switchability/subtree metadata the §4.2 adaptation
//! signals need. The paper's §4.1 graph has two extremes and both are
//! this table: synopsis diffusion (SD) is an all-`M` labeling, and the
//! pure-TAG baseline is the all-`T` one — [`EpochPlan::compile_tag`] is
//! the builder called without a labeling, so its receiver table is empty.
//! On a TD topology the §4.1 restriction makes tree depth equal to ring
//! level, so the depths are the ring levels. Every plan gives the base
//! station the one slot past the last step and no step of its own. A
//! cached plan makes steady-state epochs **schedule-recomputation-free**
//! (no per-epoch height/subtree/level sorts) and **growth-free**: every
//! per-epoch buffer lives in the plan's arenas and keeps its capacity
//! from epoch to epoch.
//!
//! ## Plan lifecycle: compile once, rebuild in place when stale
//!
//! [`crate::session::Session`] caches one plan per topology. While the
//! topology holds still (`TdTopology::version` unchanged) the plan is
//! reused as-is. When §4.2 adaptation relabels vertices, or a churn
//! reroute (`apply_churn`) switches tree parents, the version moves and
//! the plan is **rebuilt in place** ([`EpochPlan::patch`]): the builder
//! both compilers call clears the schedule's tables — the steps, the
//! broadcast table, the step index, the levels and the tree-children
//! table — and refills them from the topology, so the result is a fresh
//! compile's field for field (pinned by
//! [`EpochPlan::structural_digest`]). A parent switch keeps every depth,
//! so every table refills to the length it had: a refresh grows no
//! buffer, and it never touches the arenas. The rebuild is O(n), a small
//! share of an epoch, which is itself O(n) per query. A TAG plan has no
//! labeling and no version: it is never refreshed, and the session
//! recompiles it after a churn reroute.
//!
//! ## One epoch: draw, run the columns, account, evaluate
//!
//! [`EpochPlan::run_set`] executes one epoch of a [`QuerySet`] in four
//! passes.
//!
//! 1. **Draw.** Every loss outcome of the epoch is drawn up front, on
//!    the calling thread, in step order: the unicast (with the
//!    configured retransmissions) of every `T` step that has a parent
//!    and the per-receiver delivery of every `M` broadcast. No draw
//!    depends on a payload, so the caller's RNG stream is the one a
//!    send-by-send walk would consume. The broadcast outcomes then
//!    become a **broadcast list** per slot, in sender step order: the
//!    `M` senders it heard. The tree inboxes need no per-epoch list:
//!    each slot's tree children are compiled into the plan, and a
//!    reader skips those that are `M` or whose unicast was lost.
//! 2. **Run the columns.** Each registered query owns one typed
//!    **column** — a slot-indexed vector of `Empty | Tree(msg) |
//!    Mp(msg)` — and runs the whole epoch over it as a single job, so
//!    dynamic dispatch happens once per query per epoch and the inner
//!    loop is monomorphised [`Protocol`] calls on values. A `T` step
//!    takes its local message, merges its delivered children's in
//!    delivery order and finalizes at its height; an `M` step takes its
//!    local message, converts (§5) and fuses its delivered tree
//!    children, then fuses every broadcast it heard *by reference*.
//!    Merged tree children are taken out of their slots, a lost unicast
//!    is dropped at once, and a level's broadcasts are dropped as soon
//!    as the level below — their only receivers — has run. On an epoch
//!    that carries the §4.2 envelope ([`RunnerConfig::envelope`] is not
//!    [`EnvelopeFields::Nothing`]; a session carries it only on the
//!    epochs its adapter reads) the **envelope column** is one more job:
//!    the exact tree counts and the in-band count sketches, built in the
//!    same per-slot order. Any other epoch runs no envelope column. A
//!    plan **without a delta** (no `M` vertex, the base station
//!    included: every TAG plan) skips all of the delta's passes — the
//!    broadcast lists, the broadcast drops and the envelope column. Its
//!    base envelope is known without them: a `T` base's exact tree
//!    count is the contributor count, and no switchable `M` vertex
//!    reports an extremum.
//! 3. **Account.** One pass in step order records each send as the sum
//!    of every query's wire size for the slot plus the envelope fields
//!    the epoch carries — none; one tree word, or the count sketch, for
//!    counts alone; two tree words, or the sketch and the extremum
//!    reports, for both — so the `CommStats` sequence is a single send
//!    per node however many queries ride along.
//! 4. **Evaluate.** The exact contributor count is derived from the
//!    draws, and every column is evaluated at the base station. On an
//!    epoch that carries the extrema they are derived too: motes fuse a
//!    top-k set of reports through the delta (pass 3 charges its 8 B
//!    per slot), and since a top-k ignores order and duplicates and
//!    survives truncation at every hop, the base's set is the top-k of
//!    the reports of the switchable `M` steps the contributor walk
//!    marked as reached. An epoch that carries no envelope reports
//!    none.
//!
//! Nothing a job writes is visible to another job, and every job reads
//! only the schedule and the epoch's draws (through one `Frame`), so
//! the columns may run in any order on any thread. With
//! [`RunnerConfig::workers`] above one the epoch spawns
//! `k = min(workers, queries)` threads (the calling thread is one of
//! them) once, and they claim the jobs from an atomic index,
//! longest first by the previous epoch's job times (`parallel.rs`, the
//! crate's one fan-out, which the trial pool shares). One
//! query, or a network smaller than [`RunnerConfig::parallel_min_nodes`],
//! runs on the calling thread alone. Any worker count is bit-identical:
//! answers, accounting and the RNG stream.
//!
//! **Who contributed.** The exact contributor count — the ground truth
//! behind "% contributing" and the §4.2 adaptation signal — is not
//! carried in the envelopes. The loss outcomes are kept for the whole
//! epoch, and one backwards walk over them marks every step whose send
//! reaches the base: a sensor contributes iff its own step is marked,
//! because its message carries its own data and everything it merged
//! or fused.
//!
//! ## Arenas
//!
//! The draws, the broadcast lists, the columns and the envelope column
//! all live in the plan and are reused from epoch to epoch; a plan
//! without a delta never sizes the broadcast lists or the envelope
//! column, and a plan whose epochs never carry an envelope never sizes
//! the envelope column. A column is downcast to its protocol's types
//! once when it runs and once when it is evaluated, and replaced only if
//! a differently typed query takes its position. An epoch therefore
//! allocates only what the protocols allocate inside their own messages
//! (a sketch's bitmaps, a summary's entries) plus a handful of per-epoch
//! objects (the answers, and with a fan-out its threads): about 0.001
//! allocations per node-epoch on the repo benchmark's 10 000-node Sum
//! tree. A delta vertex builds its message in its column's long-lived
//! accumulator and seals it out in one or two allocations whatever its
//! size: a frequent-items set's class headers and one buffer of all its
//! items, or a quantile set's part list, in which a sensor's reading
//! rides inline. The five-query bundle of `tests/alloc_budget.rs` makes
//! about 5.2 allocations per node-epoch; its Sum and Count queries alone
//! make 2.0, the FM bitmaps of their messages. What is live at once is what the radio has in flight: the
//! broadcasts of the level being run and of the level above it, and the
//! tree messages whose parents have not run yet. Nothing is copied per
//! receiver except a message adopted by a vertex that has none of its
//! own to fuse into (the base station).
//!
//! The runner is **multi-query**: every link carries one message per
//! query registered in the epoch's [`QuerySet`], so N concurrent
//! aggregates cost one topology traversal — one unicast/broadcast per
//! node and, when the epoch carries them, one envelope, one in-band
//! count sketch, one set of adaptation extrema — instead of N. Message
//! payload accounting sums the per-query wire sizes; the envelope is
//! charged once per link, not once per query.

use std::any::Any;

use crate::envelope::{
    absorb_tree_counts, extrema, local_pooled, tree_count, BaseEnvelope, EnvelopeFields,
    ExtremaSet, Extremum, COUNT_SKETCH_BITMAPS,
};
use crate::parallel;
use crate::protocol::Protocol;
use crate::query::QuerySet;
use td_netsim::loss::{unicast, LossModel, Retransmit, RetransmitOutcome};
use td_netsim::network::Network;
use td_netsim::node::{NodeId, BASE_STATION};
use td_netsim::stats::CommStats;
use td_sketches::fm::FmSketch;
use td_sketches::rle as sketch_rle;
use td_telemetry::phase::{self, Phase};
use td_topology::td::{Mode, TdTopology};
use td_topology::tree::Tree;

/// Runner knobs.
#[derive(Clone, Copy, Debug)]
pub struct RunnerConfig {
    /// Retransmission policy for tree (tributary) links. Multi-path
    /// broadcasts are never retransmitted (§7.4.3 lets *tree* nodes
    /// retransmit to equalize energy).
    pub tree_retransmit: Retransmit,
    /// Which §4.2 adaptation fields every send of the epoch carries. The
    /// runner builds, charges and reports exactly these: with
    /// [`EnvelopeFields::Nothing`] it runs no envelope column and charges
    /// no send for one. A session sets its scheme's fields here and
    /// narrows them to `Nothing` on epochs its adapter does not read.
    pub envelope: EnvelopeFields,
    /// How many threads an epoch may use. The unit of work is a query
    /// column (plus the envelope column on an epoch that carries an
    /// envelope over a plan with a delta): an epoch
    /// runs on `k = min(workers, queries)` threads — the calling thread
    /// plus `k - 1` scoped ones — so a one-query set never spawns a
    /// thread. `0` = one per available core, `1` =
    /// sequential. Any value produces bit-identical results: every
    /// column writes only its own storage and every loss outcome is
    /// drawn before any column runs.
    pub workers: usize,
    /// Node-count floor below which an epoch runs on the calling thread
    /// even when `workers > 1`: at small scales spawning costs more than
    /// it saves. Safe to tune freely — the thread count never changes
    /// results.
    pub parallel_min_nodes: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            tree_retransmit: Retransmit::default(),
            envelope: EnvelopeFields::CountsAndExtrema,
            workers: 0,
            parallel_min_nodes: 512,
        }
    }
}

impl RunnerConfig {
    /// Resolve the `workers` knob: `0` maps to the machine's available
    /// parallelism (queried once per process), anything else is taken
    /// literally.
    pub fn effective_workers(&self) -> usize {
        match self.workers {
            0 => parallel::available_threads(),
            w => w,
        }
    }
}

/// What one epoch produced at the base station for a whole query set.
/// `outputs[i]` is query `i`'s erased answer (in registration order);
/// the instrumentation fields are shared by every query — that sharing
/// is the point of the bundled traversal.
pub struct SetEpochOutput {
    /// Per-query answers, in registration order.
    pub outputs: Vec<Box<dyn Any>>,
    /// Exact number of contributing sensors (shared across queries;
    /// instrumentation ground truth).
    pub contributing: usize,
    /// The §4.2 envelope as the base station received it, with the
    /// fields [`RunnerConfig::envelope`] put on the air (the extrema are
    /// empty when only counts were). `None` on an epoch that carried no
    /// envelope: nothing can read an in-band estimate that was never
    /// sent.
    pub envelope: Option<BaseEnvelope>,
}

impl std::fmt::Debug for SetEpochOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetEpochOutput")
            .field("queries", &self.outputs.len())
            .field("contributing", &self.contributing)
            .field("envelope", &self.envelope)
            .finish()
    }
}

// ---------------------------------------------------------------------
// Compiled epoch plans
// ---------------------------------------------------------------------

/// One scheduled sender of a compiled epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Step {
    node: NodeId,
    mode: Mode,
    /// §6.1 height (the `finalize_tree` argument for T steps).
    height: u32,
    /// Tree parent: where a T step unicasts. An M step broadcasts
    /// instead; its tree parent only lists it among that slot's
    /// children, which a reader skips.
    parent: NodeId,
    /// Static subtree size (the M-step non-contribution baseline).
    subtree_size: u32,
    /// Whether the vertex is a switchable M vertex under this labeling.
    switchable_m: bool,
    /// Range into the flat receiver table. Compiled for every step of a
    /// TD plan — ring links are label-independent, so the table has the
    /// same layout under every labeling — but only M steps read their
    /// range (T steps unicast to `parent`). Empty on a TAG plan, which
    /// has no labeling.
    recv_start: u32,
    recv_end: u32,
}

impl Step {
    fn recv_range(&self) -> std::ops::Range<usize> {
        self.recv_start as usize..self.recv_end as usize
    }
}

/// The compiled schedule: one step table for every scheme, filled by
/// one builder ([`fill`](Self::fill)).
///
/// The step order (deepest first, id order within a depth), the
/// receiver-table layout, the `step_of` index and the levels depend only
/// on the tree's depths and the rings — never on the labeling, and not
/// on which parent a vertex has, since a parent switch keeps every
/// depth — so every table of a TD schedule has the same length under
/// every labeling and reroute: [`fill`](Self::fill) refills them in
/// place and grows nothing.
struct Schedule {
    /// Topology version a TD plan currently matches (advanced by
    /// [`EpochPlan::patch`], which rebuilds in place); `None` for a TAG
    /// plan, whose tree carries no labeling to track.
    version: Option<u64>,
    /// Senders, deepest first, id order within a depth: every vertex
    /// below the base station. The base station has no step.
    steps: Vec<Step>,
    /// Flat broadcast delivery table: `(receiver, receiver is M)`,
    /// indexed by each step's `recv_start..recv_end`.
    receivers: Vec<(NodeId, bool)>,
    /// `step_of[node.index()]` = index into `steps`, or `NO_STEP` for
    /// the base station and disconnected nodes. The way from a unicast
    /// parent, a broadcast receiver or a relabeled vertex to its
    /// schedule entry.
    step_of: Vec<u32>,
    /// Step ranges per level, deepest first: `steps[start..end]` is one
    /// tree depth's senders, which on a TD plan is one ring level. Tree
    /// parents and broadcast receivers sit exactly one level down, so a
    /// level's broadcasts are dead once the next range has run. Depends
    /// only on the tree's depths.
    levels: Vec<(u32, u32)>,
    /// Each slot's tree children, base slot included, in step order:
    /// every step whose *tree* parent is the slot's vertex, whatever its
    /// mode. Which of them reached the slot in an epoch is filtered where
    /// they are read ([`Frame::children`]).
    children: SlotLists,
    /// How many steps are `M`. With none and a `T` base the plan has no
    /// delta, and its epochs skip every delta-only pass
    /// ([`has_delta`](Self::has_delta)).
    m_steps: u32,
    base_mode: Mode,
    base_height: u32,
    base_subtree: u64,
    base_switchable_m: bool,
}

/// `step_of` marker for nodes without a schedule entry.
const NO_STEP: u32 = u32::MAX;

impl Schedule {
    /// The slot of the base station: one past the last step slot.
    fn base_slot(&self) -> usize {
        self.steps.len()
    }

    /// Whether any vertex, the base station included, is `M`. Without
    /// one an epoch has no broadcast to list, hear or drop and no
    /// envelope to build: the exact tree count of a `T` base is the
    /// contributor count, and no switchable `M` vertex reports an
    /// extremum.
    fn has_delta(&self) -> bool {
        self.m_steps > 0 || self.base_mode == Mode::M
    }

    /// Rebuild [`children`](Self::children) from the steps' tree
    /// parents by a counting sort over the steps, O(n).
    fn index_children(&mut self) {
        let Schedule {
            steps,
            step_of,
            children,
            ..
        } = self;
        let base = steps.len();
        children.fill(base + 1, || {
            steps.iter().enumerate().map(|(slot, step)| {
                let parent = match step_of[step.parent.index()] {
                    NO_STEP => base,
                    s => s as usize,
                };
                (parent, slot)
            })
        });
    }

    /// The arena slot of `u`: its step index, or the base slot for the
    /// base station (the only slot-bearing node without a step — every
    /// unicast parent and broadcast receiver is connected).
    fn slot_or_base(&self, u: NodeId) -> usize {
        match self.step_of[u.index()] {
            NO_STEP => self.base_slot(),
            s => s as usize,
        }
    }

    /// Fill the schedule of `tree` **in place**: labeled by `topo` for a
    /// TD plan (`tree` is then `topo.tree()`), all-`T` without one — the
    /// TAG plan, which has no receiver table and no version. The only
    /// builder: every table is cleared and refilled, so refilling a
    /// schedule from the topology it was filled from — relabeled or
    /// reparented since, but over the same depths — keeps every buffer
    /// and grows nothing. Heights and subtree sizes come from the
    /// children table: a tree child sits one depth out, at an earlier
    /// slot, so one pass in step order meets every child before its
    /// parent.
    fn fill(&mut self, tree: &Tree, topo: Option<&TdTopology>) {
        let mode = |u: NodeId| topo.map_or(Mode::T, |t| t.mode(u));
        self.version = topo.map(TdTopology::version);
        self.steps.clear();
        // Exact on a first fill, so a compile never over-allocates.
        self.steps.reserve(tree.tree_size() - 1);
        self.receivers.clear();
        if let Some(topo) = topo.filter(|_| self.receivers.capacity() == 0) {
            let below_base = tree.tree_nodes().filter(|&u| !u.is_base());
            let links = below_base.map(|u| topo.rings().receivers(u).len());
            self.receivers.reserve_exact(links.sum());
        }
        self.step_of.clear();
        self.step_of.resize(tree.len(), NO_STEP);
        self.levels.clear();
        for depth in (1..=tree.max_depth()).rev() {
            let level_start = self.steps.len() as u32;
            // Filtered in place rather than collected: a refresh
            // allocates nothing.
            for u in tree.tree_nodes().filter(|&u| tree.depth(u) == Some(depth)) {
                // The receiver range is compiled for every vertex (the
                // ring links never change), so the table's layout does
                // not depend on the labeling.
                let recv_start = self.receivers.len() as u32;
                if let Some(topo) = topo {
                    self.receivers.extend(
                        topo.rings()
                            .receivers(u)
                            .iter()
                            .map(|&r| (r, topo.mode(r) == Mode::M)),
                    );
                }
                self.step_of[u.index()] = self.steps.len() as u32;
                self.steps.push(Step {
                    node: u,
                    mode: mode(u),
                    height: 0,
                    parent: tree
                        .parent(u)
                        .expect("a vertex below the base has a parent"),
                    subtree_size: 0,
                    switchable_m: topo.is_some_and(|t| t.is_switchable_m(u)),
                    recv_start,
                    recv_end: self.receivers.len() as u32,
                });
            }
            self.levels.push((level_start, self.steps.len() as u32));
        }
        self.m_steps = self.steps.iter().filter(|s| s.mode == Mode::M).count() as u32;
        self.base_mode = mode(BASE_STATION);
        self.base_switchable_m = topo.is_some_and(|t| t.is_switchable_m(BASE_STATION));
        self.index_children();
        for slot in 0..=self.base_slot() {
            let (mut height, mut subtree) = (1u32, 1u64);
            for &c in self.children.of(slot) {
                let child = &self.steps[c as usize];
                height = height.max(child.height + 1);
                subtree += u64::from(child.subtree_size);
            }
            match self.steps.get_mut(slot) {
                Some(step) => (step.height, step.subtree_size) = (height, subtree as u32),
                None => (self.base_height, self.base_subtree) = (height, subtree),
            }
        }
    }

    /// How many vertices, the base station included, `topo` labels or
    /// tree-parents differently from this TD schedule — one pass over
    /// the children table, each vertex counted once however many of
    /// its fields moved. `topo` must span the schedule's rings.
    fn changed_vertices(&self, topo: &TdTopology) -> usize {
        let tree = topo.tree();
        let mut changed = usize::from(self.base_mode != topo.mode(BASE_STATION));
        for slot in 0..=self.base_slot() {
            let parent = self.steps.get(slot).map_or(BASE_STATION, |s| s.node);
            changed += self
                .children
                .of(slot)
                .iter()
                .map(|&c| &self.steps[c as usize])
                .filter(|s| s.mode != topo.mode(s.node) || tree.parent(s.node) != Some(parent))
                .count();
        }
        changed
    }
}

impl Default for Schedule {
    /// An empty schedule, for [`fill`](Self::fill).
    fn default() -> Self {
        Schedule {
            version: None,
            steps: Vec::new(),
            receivers: Vec::new(),
            step_of: Vec::new(),
            levels: Vec::new(),
            children: SlotLists::default(),
            m_steps: 0,
            base_mode: Mode::T,
            base_height: 0,
            base_subtree: 0,
            base_switchable_m: false,
        }
    }
}

/// One epoch's loss outcomes. Drawn up front on the calling thread, in
/// step order, before any column runs — no draw depends on a payload,
/// so the caller's RNG ends an epoch in the same state however many
/// threads run the columns — and kept for the whole epoch: they decide
/// which tree children reach their parents ([`Frame::children`]), the
/// broadcast lists, and, once the columns have run, which sensors
/// reached the base station ([`Draws::contributing`]). Reused from epoch
/// to epoch.
#[derive(Default)]
struct Draws {
    /// Per slot: the unicast outcome of a T step (`None` for M steps,
    /// which broadcast).
    outcomes: Vec<Option<RetransmitOutcome>>,
    /// Per broadcast-table entry: whether the broadcast reached it
    /// (entries of T steps stay `false`, unread).
    delivered: Vec<bool>,
    /// Per slot, base slot included: whether what the slot sends
    /// reaches the base station (scratch of [`Draws::contributing`]).
    reached: Vec<bool>,
}

impl Draws {
    /// Forget the previous epoch's outcomes.
    fn open(&mut self, sched: &Schedule) {
        self.outcomes.clear();
        self.outcomes.resize(sched.steps.len(), None);
        self.delivered.clear();
        self.delivered.resize(sched.receivers.len(), false);
    }

    /// Draw every outcome of the epoch, step by step. An M step draws
    /// for every receiver, M or not — which receivers count is the
    /// labeling's business, not the channel's.
    fn draw<M: LossModel, R: rand::Rng + ?Sized>(
        &mut self,
        sched: &Schedule,
        net: &Network,
        model: &M,
        retransmit: Retransmit,
        epoch: u64,
        rng: &mut R,
    ) {
        for (slot, step) in sched.steps.iter().enumerate() {
            match step.mode {
                Mode::T => {
                    self.outcomes[slot] = Some(unicast(
                        model,
                        retransmit,
                        step.node,
                        step.parent,
                        net,
                        epoch,
                        rng,
                    ));
                }
                Mode::M => {
                    let range = step.recv_range();
                    let heard = &mut self.delivered[range.clone()];
                    for (d, &(r, _)) in heard.iter_mut().zip(&sched.receivers[range]) {
                        *d = model.delivered(step.node, r, net, epoch, rng);
                    }
                }
            }
        }
    }

    /// The epoch's exact contributor count: how many sensors' data
    /// reached the base station. A step's envelope carries its own
    /// node's data and everything it merged or fused, so a sensor
    /// contributes iff its step's send reaches the base — and that is a
    /// reverse-reachability question over this epoch's outcomes, walked
    /// from the base slot backwards (every destination sits at a later
    /// slot than its sender):
    ///
    /// * a T step is reached iff its unicast was delivered and its
    ///   parent's slot is reached;
    /// * an M step is reached iff some `M` receiver that heard it —
    ///   the only receivers that fuse a broadcast — is reached.
    fn contributing(&mut self, sched: &Schedule) -> usize {
        let base = sched.base_slot();
        self.reached.clear();
        self.reached.resize(base + 1, false);
        self.reached[base] = true;
        let mut count = 0;
        for slot in (0..base).rev() {
            let step = &sched.steps[slot];
            let reached = match step.mode {
                Mode::T => {
                    self.outcomes[slot].is_some_and(|o| o.delivered)
                        && self.reached[sched.slot_or_base(step.parent)]
                }
                Mode::M => {
                    let range = step.recv_range();
                    sched.receivers[range.clone()]
                        .iter()
                        .zip(&self.delivered[range])
                        .any(|(&(r, is_m), &d)| d && is_m && self.reached[sched.slot_or_base(r)])
                }
            };
            self.reached[slot] = reached;
            count += usize::from(reached);
        }
        count
    }
}

/// The reusable execution arenas, indexed by **schedule slot** (a
/// step's position in the level-ordered step list; the base station
/// gets the one extra slot past the last step). Sized on first use and
/// never shrunk, so steady-state epochs grow nothing.
#[derive(Default)]
struct Arenas {
    /// The epoch's loss outcomes.
    draws: Draws,
    /// The epoch's broadcast lists, derived from `draws`: per slot, the
    /// `M` senders it heard. Left unbuilt by an epoch without a delta.
    heard: SlotLists,
    /// One column per registered query, by registration index.
    columns: Vec<Column>,
    /// The envelope column.
    envelopes: Envelopes,
    /// Each job's wall time at the last fan-out (columns by index, then
    /// the envelope column): the longest-first order of the next one.
    job_ns: Vec<u64>,
}

/// A compiled, reusable epoch schedule plus its execution arenas.
///
/// Compile once per topology (version) with [`EpochPlan::compile_td`] /
/// [`EpochPlan::compile_tag`] (one builder under both), then call
/// [`EpochPlan::run_set`] every epoch. Steady-state epochs perform zero
/// schedule recomputation (no height/subtree/level passes) and grow
/// nothing: the draws, broadcast lists, query columns and envelope
/// column keep their capacity across epochs.
pub struct EpochPlan {
    sched: Schedule,
    arenas: Arenas,
}

impl EpochPlan {
    /// Compile the schedule of a labeled Tributary-Delta topology (SD is
    /// the all-multipath special case).
    pub fn compile_td(topo: &TdTopology) -> EpochPlan {
        EpochPlan::compile(topo.tree(), Some(topo))
    }

    /// Compile the schedule of a pure-TAG spanning tree: the all-`T`
    /// plan of the same builder, ordered by the tree's depths, with no
    /// receiver table. The plan has no delta, so its epochs run no
    /// envelope column.
    pub fn compile_tag(tree: &Tree) -> EpochPlan {
        EpochPlan::compile(tree, None)
    }

    fn compile(tree: &Tree, topo: Option<&TdTopology>) -> EpochPlan {
        let mut sched = Schedule::default();
        sched.fill(tree, topo);
        EpochPlan {
            sched,
            arenas: Arenas::default(),
        }
    }

    /// The topology version a TD plan currently matches (`None` for
    /// TAG plans, whose tree never changes). Advanced by
    /// [`patch`](Self::patch), which rebuilds in place.
    pub fn compiled_version(&self) -> Option<u64> {
        self.sched.version
    }

    /// Bring a stale TD plan in line with `topo`'s current labeling
    /// *and tree* by **rebuilding its schedule in place**: the same
    /// builder as [`compile_td`](Self::compile_td) clears and refills
    /// the schedule's tables, so the result is field-for-field a fresh
    /// compile's, no table grows (the depths and the rings, and with them
    /// every table's length, never change), and every arena is kept
    /// untouched. `topo` must be the topology the plan was compiled
    /// from, mutated any number of times since.
    ///
    /// Before rebuilding, one pass counts the **distinct** vertices
    /// whose mode or tree parent differs from the plan's. Returns
    /// `Some(count)` once the plan matches `topo` (`Some(0)`, with no
    /// rebuild, when its version already did), and `None` — the plan
    /// untouched — for a TAG plan, or when more than `max_relabels`
    /// vertices changed.
    pub fn patch(&mut self, topo: &TdTopology, max_relabels: usize) -> Option<usize> {
        if self.sched.version? == topo.version() {
            return Some(0);
        }
        let changed = self.sched.changed_vertices(topo);
        if changed > max_relabels {
            return None;
        }
        self.sched.fill(topo.tree(), Some(topo));
        Some(changed)
    }

    /// A deterministic digest of everything structural: the full
    /// compiled schedule (every step field, the receiver table, the
    /// step index, the levels, the tree-children table, the `M` step
    /// count, the base-station fields, the version) and the node
    /// count — but not the arenas, which a warmed-up plan has sized and
    /// a fresh compile has not. Two plans with equal digests execute epochs
    /// bit-identically; the refresh tests compare refreshed plans
    /// against fresh compiles through this.
    pub fn structural_digest(&self) -> u64 {
        // FNV-1a over a canonical u64 serialization.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut put = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mode_tag = |m: Mode| match m {
            Mode::T => 0u64,
            Mode::M => 1,
        };
        let sched = &self.sched;
        put(sched.version.unwrap_or(u64::MAX));
        put(sched.steps.len() as u64);
        for s in &sched.steps {
            put(s.node.0 as u64);
            put(mode_tag(s.mode));
            put(s.height as u64);
            put(s.parent.0 as u64);
            put(s.subtree_size as u64);
            put(s.switchable_m as u64);
            put(s.recv_start as u64);
            put(s.recv_end as u64);
        }
        put(sched.receivers.len() as u64);
        for &(r, is_m) in &sched.receivers {
            put(r.0 as u64);
            put(is_m as u64);
        }
        for &i in &sched.step_of {
            put(i as u64);
        }
        put(sched.levels.len() as u64);
        for &(s, e) in &sched.levels {
            put(s as u64);
            put(e as u64);
        }
        for table in [&sched.children.start, &sched.children.from] {
            put(table.len() as u64);
            for &i in table {
                put(i as u64);
            }
        }
        put(sched.m_steps as u64);
        put(mode_tag(sched.base_mode));
        put(sched.base_height as u64);
        put(sched.base_subtree);
        put(sched.base_switchable_m as u64);
        put(sched.step_of.len() as u64);
        h
    }

    /// Execute one epoch for every query in `set` over the compiled
    /// schedule. `stats` accumulates communication accounting across
    /// epochs.
    // Every parameter is load-bearing and callers always have all of them
    // in hand (queries, channel, config, clock, accounting, rng);
    // bundling into a context struct would just move the argument list.
    #[allow(clippy::too_many_arguments)]
    pub fn run_set<M: LossModel, R: rand::Rng + ?Sized>(
        &mut self,
        set: &QuerySet<'_>,
        net: &Network,
        model: &M,
        config: RunnerConfig,
        epoch: u64,
        stats: &mut CommStats,
        rng: &mut R,
    ) -> SetEpochOutput {
        let sched = &self.sched;
        let Arenas {
            draws,
            heard,
            columns,
            envelopes,
            job_ns,
        } = &mut self.arenas;
        let delta = sched.has_delta();

        let sw = phase::stopwatch();
        draws.open(sched);
        draws.draw(sched, net, model, config.tree_retransmit, epoch, rng);
        if delta {
            collect_heard(heard, sched, draws);
        }
        phase::record(Phase::Randomness, sw);

        let sw = phase::stopwatch();
        columns.resize_with(set.len(), Column::default);
        let frame = Frame {
            sched,
            draws,
            heard,
        };
        let fields = config.envelope;
        // The envelope column runs only when the epoch carries an
        // envelope over a delta: without one, the base envelope is known
        // without it (below).
        let envelope_job = delta && fields.carried();
        // Any thread count is bit-identical (the jobs write disjoint
        // storage), so this is purely a performance decision.
        let threads = if sched.step_of.len() < config.parallel_min_nodes {
            1
        } else {
            config.effective_workers().min(set.len())
        };
        if threads <= 1 {
            if envelope_job {
                envelopes.run(&frame);
            }
            for (i, column) in columns.iter_mut().enumerate() {
                set.query(i).run_column(&frame, column);
            }
        } else {
            let mut jobs: Vec<Job<'_>> = columns
                .iter_mut()
                .enumerate()
                .map(|(i, column)| Job::Query(i, column))
                .collect();
            if envelope_job {
                jobs.push(Job::Envelopes(envelopes));
            }
            parallel::run_longest_first(threads, jobs, job_ns, |job| match job {
                Job::Query(i, column) => set.query(i).run_column(&frame, column),
                Job::Envelopes(envelopes) => envelopes.run(&frame),
            });
        }
        phase::record(Phase::LevelExecute, sw);

        let sw = phase::stopwatch();
        account(sched, draws, columns, envelopes, fields, stats);
        let outputs = columns
            .iter_mut()
            .enumerate()
            .map(|(i, column)| set.query(i).evaluate(&frame, column))
            .collect();
        let contributing = draws.contributing(sched);
        let envelope = fields.carried().then(|| {
            // Without a delta the column did not run: a `T` base's exact
            // tree count is the contributor count, and no switchable `M`
            // vertex reports an extremum.
            let contributing_est = if delta {
                envelopes.est
            } else {
                contributing as f64
            };
            let (max_noncontrib, min_noncontrib) =
                if delta && fields == EnvelopeFields::CountsAndExtrema {
                    envelopes.noncontrib(&Frame {
                        sched,
                        draws,
                        heard,
                    })
                } else {
                    extrema([])
                };
            BaseEnvelope {
                contributing_est,
                max_noncontrib,
                min_noncontrib,
            }
        });
        let out = SetEpochOutput {
            outputs,
            contributing,
            envelope,
        };
        phase::record(Phase::Merge, sw);
        out
    }
}

/// One job of a fanned-out epoch: a query's column or, when the epoch
/// carries an envelope over a plan with a delta, the envelope column.
enum Job<'c> {
    Query(usize, &'c mut Column),
    Envelopes(&'c mut Envelopes),
}

/// Record every send of the epoch, in step order: a `T` step with a
/// parent pays its payload words plus the envelope's tree words per
/// attempt; an `M` step pays its payload plus — when the epoch carries
/// an envelope — its count sketch's RLE size and, with the extrema, the
/// extremum reports. The payload of a slot is the sum of every query's
/// wire size for it: one send carries the whole set.
fn account(
    sched: &Schedule,
    draws: &Draws,
    columns: &[Column],
    envelopes: &Envelopes,
    fields: EnvelopeFields,
    stats: &mut CommStats,
) {
    let payload = |slot: usize| {
        columns.iter().fold((0, 0), |(bytes, words), column| {
            let wire = column.wire[slot];
            (bytes + wire.bytes as usize, words + wire.words as usize)
        })
    };
    for (slot, step) in sched.steps.iter().enumerate() {
        match step.mode {
            Mode::T => {
                let outcome = draws.outcomes[slot].expect("a T step drew its unicast");
                let words = payload(slot).1 + fields.tree_words();
                stats.record_send(step.node, words * 4, words, outcome.attempts_used as u64);
            }
            Mode::M => {
                let (bytes, words) = payload(slot);
                let overhead = if fields.carried() {
                    envelopes.sketch_bytes[slot] as usize + fields.extrema_bytes()
                } else {
                    0
                };
                stats.record_send(step.node, bytes + overhead, words + overhead.div_ceil(4), 1);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Delivery lists
// ---------------------------------------------------------------------

/// Per-slot lists of sender slots in compressed-row form: the senders
/// of slot `s` are `from[start[s]..start[s + 1]]`, in sender step
/// order.
#[derive(Default)]
struct SlotLists {
    start: Vec<u32>,
    from: Vec<u32>,
}

impl SlotLists {
    fn of(&self, slot: usize) -> &[u32] {
        &self.from[self.start[slot] as usize..self.start[slot + 1] as usize]
    }

    /// Rebuild the lists of `slots` slots from the `(destination,
    /// sender)` pairs `pairs()` yields, senders in step order, by a
    /// counting sort — which keeps every list in sender step order
    /// without sorting. `pairs` is walked twice: once to count, once to
    /// fill.
    fn fill<I: Iterator<Item = (usize, usize)>>(&mut self, slots: usize, pairs: impl Fn() -> I) {
        let SlotLists { start, from } = self;
        start.clear();
        start.resize(slots + 1, 0);
        // Pass 1: count each destination's senders into `start[d + 1]`.
        pairs().for_each(|(dest, _)| start[dest + 1] += 1);
        for d in 1..=slots {
            start[d] += start[d - 1];
        }
        from.clear();
        from.resize(start[slots] as usize, 0);
        // Pass 2: fill, using `start[d]` as destination d's cursor; it
        // ends at `start[d + 1]`'s value, so one shift restores it.
        pairs().for_each(|(dest, sender)| {
            let at = &mut start[dest];
            from[*at as usize] = sender as u32;
            *at += 1;
        });
        start.copy_within(0..slots, 1);
        start[0] = 0;
    }
}

/// Rebuild `heard` from the epoch's draws: per slot, the `M` senders
/// whose broadcast it heard, `M` receivers only — the only ones that
/// fuse. These are the broadcast inboxes of a send-by-send walk,
/// without the sends; the tree inboxes are compiled
/// ([`Schedule::children`]) and filtered where they are read.
fn collect_heard(heard: &mut SlotLists, sched: &Schedule, draws: &Draws) {
    heard.fill(sched.base_slot() + 1, || {
        sched
            .steps
            .iter()
            .enumerate()
            .filter(|(_, step)| step.mode == Mode::M)
            .flat_map(|(slot, step)| {
                let range = step.recv_range();
                sched.receivers[range.clone()]
                    .iter()
                    .zip(&draws.delivered[range])
                    .filter(|&(&(_, is_m), &d)| d && is_m)
                    .map(move |(&(r, _), _)| (sched.slot_or_base(r), slot))
            })
    });
}

/// What every job of an epoch reads: the schedule, the draws and the
/// broadcast lists derived from them. Shared by reference across
/// threads. Every reader of a slot's inbox goes through it: the tree
/// children that reached the slot ([`children`](Self::children), the
/// compiled table filtered by the draws) and the broadcasts it heard
/// (`heard`, read only by `M` vertices, so only on a plan with a delta).
#[derive(Clone, Copy)]
pub(crate) struct Frame<'a> {
    sched: &'a Schedule,
    draws: &'a Draws,
    heard: &'a SlotLists,
}

impl<'a> Frame<'a> {
    /// Whether the step at `slot` unicast its message and it arrived.
    /// Never for an `M` step: it draws no unicast, and its slot holds a
    /// broadcast that other receivers still read and must never be
    /// taken.
    fn tree_kept(&self, slot: usize) -> bool {
        self.draws.outcomes[slot].is_some_and(|o| o.delivered)
    }

    /// The tree children whose message reached `slot` this epoch, in
    /// step order: the compiled children whose unicast is kept.
    fn children(&self, slot: usize) -> impl Iterator<Item = usize> + Clone + 'a {
        let frame = *self;
        self.sched
            .children
            .of(slot)
            .iter()
            .map(|&c| c as usize)
            .filter(move |&c| frame.tree_kept(c))
    }
}

// ---------------------------------------------------------------------
// Query columns
// ---------------------------------------------------------------------

/// One query's message in one slot of its column.
enum Slot<T, M> {
    Empty,
    Tree(T),
    Mp(M),
}

impl<T, M> Slot<T, M> {
    fn take(&mut self) -> Self {
        std::mem::replace(self, Slot::Empty)
    }
}

/// A query's typed column: its messages by slot, the tree parts a
/// tree-mode base station evaluates (kept for their capacity), and the
/// accumulator and conversion scratch every delta vertex builds its
/// message in (see [`Protocol`]). The two are the only storage kept
/// across vertices and epochs; no slot outlives its epoch.
struct Cells<T, M> {
    slots: Vec<Slot<T, M>>,
    parts: Vec<T>,
    acc: Option<M>,
    scratch: Option<M>,
}

/// What one slot's message of one query costs on the air.
#[derive(Clone, Copy, Default)]
struct Wire {
    bytes: u32,
    words: u32,
}

/// One registered query's column, kept in the plan across epochs.
#[derive(Default)]
pub(crate) struct Column {
    /// The query protocol's `Cells<TreeMsg, MpMsg>`, erased. Replaced
    /// when a query of other message types takes this position.
    cells: Option<Box<dyn Any + Send>>,
    /// Per slot: this query's wire size of what the slot sent this
    /// epoch (zero when it sent no message of this query).
    wire: Vec<Wire>,
}

impl Column {
    /// The column as `Cells<T, M>`, sized for `sched`: the one downcast
    /// of a run or an evaluation.
    fn cells<T, M>(&mut self, sched: &Schedule) -> (&mut Cells<T, M>, &mut [Wire])
    where
        T: Send + 'static,
        M: Send + 'static,
    {
        if !self.cells.as_ref().is_some_and(|c| c.is::<Cells<T, M>>()) {
            self.cells = Some(Box::new(Cells::<T, M> {
                slots: Vec::new(),
                parts: Vec::new(),
                acc: None,
                scratch: None,
            }));
        }
        let cells = self
            .cells
            .as_mut()
            .and_then(|c| c.downcast_mut::<Cells<T, M>>())
            .expect("the column was just given this query's types");
        let steps = sched.steps.len();
        cells.slots.resize_with(steps, || Slot::Empty);
        self.wire.resize(steps, Wire::default());
        (cells, &mut self.wire)
    }
}

/// Run query `proto`'s whole epoch into its column: every step in step
/// order, each slot's message and wire size written before any
/// receiver reads it, and (on a plan with a delta) a level's broadcasts
/// dropped once the level below has run.
pub(crate) fn run_column<P: Protocol>(proto: &P, frame: &Frame<'_>, column: &mut Column) {
    let sched = frame.sched;
    let delta = sched.has_delta();
    let (cells, wire) = column.cells::<P::TreeMsg, P::MpMsg>(sched);
    let mut above = 0..0;
    for &(start, end) in &sched.levels {
        let level = start as usize..end as usize;
        for slot in level.clone() {
            let step = &sched.steps[slot];
            let children = frame.children(slot);
            let (msg, size) = match step.mode {
                Mode::T => {
                    let msg = tree_step(proto, step.node, step.height, children, &mut cells.slots);
                    let words = msg.as_ref().map_or(0, |m| proto.tree_words(m) as u32);
                    let msg = match msg {
                        Some(m) if frame.tree_kept(slot) => Slot::Tree(m),
                        _ => Slot::Empty,
                    };
                    (msg, Wire { bytes: 0, words })
                }
                Mode::M => {
                    let heard = frame.heard.of(slot);
                    let built = cells.build_mp(proto, step.node, children, heard, sched);
                    let msg = if built {
                        proto.seal(&mut cells.acc)
                    } else {
                        None
                    };
                    let size = msg.as_ref().map_or(Wire::default(), |m| {
                        let w = proto.mp_wire(m);
                        Wire {
                            bytes: w.bytes as u32,
                            words: w.words as u32,
                        }
                    });
                    (msg.map_or(Slot::Empty, Slot::Mp), size)
                }
            };
            cells.slots[slot] = msg;
            wire[slot] = size;
        }
        if delta {
            drop_broadcasts(&mut cells.slots[above]);
        }
        above = level;
    }
}

/// Evaluate query `proto` at the base station over what reached the
/// base slot, taking the tree parts out of their slots and dropping the
/// last level's broadcasts, so the column ends the epoch empty.
pub(crate) fn evaluate_column<P: Protocol>(
    proto: &P,
    frame: &Frame<'_>,
    column: &mut Column,
) -> P::Output {
    let sched = frame.sched;
    let base = sched.base_slot();
    let (cells, _) = column.cells::<P::TreeMsg, P::MpMsg>(sched);
    let children = frame.children(base);
    let output = match sched.base_mode {
        Mode::T => {
            let Cells { slots, parts, .. } = cells;
            parts.extend(children.filter_map(|c| match slots[c].take() {
                Slot::Tree(m) => Some(m),
                _ => None,
            }));
            let output = proto.evaluate_tree(parts, sched.base_height);
            parts.clear();
            output
        }
        Mode::M => {
            let heard = frame.heard.of(base);
            let built = cells.build_mp(proto, BASE_STATION, children, heard, sched);
            match &cells.acc {
                Some(msg) if built => proto.evaluate_mp(msg),
                _ => proto.evaluate_tree(&[], sched.base_height),
            }
        }
    };
    // The innermost level's broadcasts had only the base station to
    // reach.
    if let Some(&(start, end)) = sched.levels.last().filter(|_| sched.has_delta()) {
        drop_broadcasts(&mut cells.slots[start as usize..end as usize]);
    }
    output
}

fn drop_broadcasts<T, M>(slots: &mut [Slot<T, M>]) {
    for slot in slots {
        if matches!(slot, Slot::Mp(_)) {
            *slot = Slot::Empty;
        }
    }
}

/// A `T` step's message: its local message with its delivered
/// children's merged in, in delivery order (each taken out of its
/// slot), finalized at its height.
fn tree_step<P: Protocol>(
    proto: &P,
    node: NodeId,
    height: u32,
    children: impl Iterator<Item = usize>,
    slots: &mut [Slot<P::TreeMsg, P::MpMsg>],
) -> Option<P::TreeMsg> {
    let mut acc = proto.local_tree(node);
    for child in children {
        if let Slot::Tree(m) = slots[child].take() {
            match &mut acc {
                Some(a) => proto.merge_tree(a, &m),
                None => acc = Some(m),
            }
        }
    }
    acc.map(|m| proto.finalize_tree(node, height, m))
}

impl<T, M: Clone> Cells<T, M> {
    /// Build an `M` vertex's message (a step's, or an `M` base
    /// station's) in the accumulator: its local message, then its
    /// delivered tree children converted (§5) through the scratch and
    /// fused in (each taken out of its slot), then every broadcast it
    /// heard fused in by reference. Returns whether the accumulator
    /// holds a message.
    fn build_mp<P: Protocol<TreeMsg = T, MpMsg = M>>(
        &mut self,
        proto: &P,
        node: NodeId,
        children: impl Iterator<Item = usize>,
        heard: &[u32],
        sched: &Schedule,
    ) -> bool {
        let Cells {
            slots,
            acc,
            scratch,
            ..
        } = self;
        let mut built = proto.local_mp(node, acc);
        for child in children {
            if let Slot::Tree(m) = slots[child].take() {
                let root = sched.steps[child].node;
                if built {
                    proto.convert(root, &m, scratch);
                    if let (Some(a), Some(converted)) = (acc.as_mut(), scratch.as_ref()) {
                        proto.fuse(a, converted);
                    }
                } else {
                    proto.convert(root, &m, acc);
                    built = acc.is_some();
                }
            }
        }
        for &sender in heard {
            if let Slot::Mp(m) = &slots[sender as usize] {
                match acc {
                    Some(a) if built => proto.fuse(a, m),
                    // Nothing of its own to fuse into (the base station, a
                    // node without data): the one place a message is
                    // copied, into the accumulator's storage.
                    Some(a) => a.clone_from(m),
                    None => *acc = Some(m.clone()),
                }
                built = true;
            }
        }
        built
    }
}

// ---------------------------------------------------------------------
// The envelope column
// ---------------------------------------------------------------------

/// The envelope column: the instrumentation every query's messages
/// share, run as one more job over the same deliveries on an epoch that
/// carries an envelope over a plan with a delta. A plan that never does
/// never runs it, so its arenas stay unsized.
#[derive(Default)]
struct Envelopes {
    /// Per slot: the exact contributor count of a `T` step's tree
    /// envelope.
    counts: Vec<u64>,
    /// Per slot: where an `M` step's envelope sits in its level's half
    /// of `live`.
    at: Vec<u32>,
    /// The count sketches of the `M` envelopes of the level being built
    /// (`live[i % 2]` for level `i`) and of the level above it — the only
    /// ones a receiver can hear. An `M` base station builds its own as
    /// one more level. Sketches are reopened in place, so they are reused
    /// from level to level and epoch to epoch.
    live: [Vec<FmSketch>; 2],
    /// Per slot: the RLE size of an `M` step's count sketch as it went on
    /// the air (read by the accounting pass).
    sketch_bytes: Vec<u32>,
    /// This epoch's in-band contributor estimate at the base station.
    est: f64,
}

impl Envelopes {
    fn run(&mut self, frame: &Frame<'_>) {
        let sched = frame.sched;
        let steps = sched.steps.len();
        let Envelopes {
            counts,
            at,
            live,
            sketch_bytes,
            est,
        } = self;
        counts.resize(steps, 0);
        at.resize(steps, 0);
        sketch_bytes.resize(steps, 0);
        for (i, &(start, end)) in sched.levels.iter().enumerate() {
            let (building, above) = level_halves(live, i);
            let mut built = 0;
            for slot in start as usize..end as usize {
                let step = &sched.steps[slot];
                match step.mode {
                    Mode::T => {
                        let children = frame.children(slot);
                        counts[slot] = tree_count(step.node, children.map(|c| counts[c]));
                    }
                    Mode::M => {
                        if building.len() == built {
                            building.push(FmSketch::new(COUNT_SKETCH_BITMAPS));
                        }
                        let sketch = &mut building[built];
                        build_mp_envelope(sketch, step.node, slot, frame, counts, at, above);
                        sketch_bytes[slot] = sketch_rle::encoded_size_bytes(sketch) as u32;
                        at[slot] = built as u32;
                        built += 1;
                    }
                }
            }
        }
        let base = sched.base_slot();
        *est = match sched.base_mode {
            Mode::T => tree_count(BASE_STATION, frame.children(base).map(|c| counts[c])) as f64,
            Mode::M => {
                // The base station hears the innermost level.
                let (building, above) = level_halves(live, sched.levels.len());
                if building.is_empty() {
                    building.push(FmSketch::new(COUNT_SKETCH_BITMAPS));
                }
                let sketch = &mut building[0];
                build_mp_envelope(sketch, BASE_STATION, base, frame, counts, at, above);
                sketch.estimate()
            }
        };
    }

    /// The base station's §4.2 extrema after [`run`](Self::run) and
    /// [`Draws::contributing`] over one epoch: the top-k sets motes fuse
    /// through the delta are those of the switchable `M` vertices whose
    /// slot is reached, plus a switchable base station's own. A report is
    /// the vertex's static subtree, itself excluded, less what its
    /// delivered tree children counted.
    fn noncontrib(&self, frame: &Frame<'_>) -> (ExtremaSet, ExtremaSet) {
        let sched = frame.sched;
        let report = |node, slot, subtree: u64| {
            let received = frame.children(slot).map(|c| self.counts[c]).sum();
            let value = subtree.saturating_sub(1).saturating_sub(received);
            Extremum { value, node }
        };
        let reached = sched.steps.iter().enumerate();
        let reached = reached.filter(|&(slot, s)| s.switchable_m && frame.draws.reached[slot]);
        let base = sched.base_switchable_m;
        extrema(
            reached
                .map(|(slot, s)| report(s.node, slot, s.subtree_size as u64))
                .chain(base.then(|| report(BASE_STATION, sched.base_slot(), sched.base_subtree))),
        )
    }
}

/// The half of `live` that level `i` builds in, and the half holding the
/// level above it.
fn level_halves(live: &mut [Vec<FmSketch>; 2], i: usize) -> (&mut Vec<FmSketch>, &[FmSketch]) {
    let [even, odd] = live;
    if i.is_multiple_of(2) {
        (even, odd)
    } else {
        (odd, even)
    }
}

/// Reopen `sketch` as the multi-path count sketch of `node` at `slot`
/// and fold in what reached it, in per-slot order: its delivered tree
/// children's counts, then the sketches it heard from the level above
/// (`above`, indexed by `at`).
fn build_mp_envelope(
    sketch: &mut FmSketch,
    node: NodeId,
    slot: usize,
    frame: &Frame<'_>,
    counts: &[u64],
    at: &[u32],
    above: &[FmSketch],
) {
    local_pooled(sketch, node);
    for child in frame.children(slot) {
        absorb_tree_counts(sketch, frame.sched.steps[child].node, counts[child]);
    }
    for &sender in frame.heard.of(slot) {
        sketch.merge(&above[at[sender as usize] as usize]);
    }
}

/// Run one Tributary-Delta epoch for every query in `set`, compiling a
/// fresh plan for this call — the rebuild path the plan-reuse tests
/// compare a cached plan against.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_td_epoch_set<M: LossModel, R: rand::Rng + ?Sized>(
    set: &QuerySet<'_>,
    topo: &TdTopology,
    net: &Network,
    model: &M,
    config: RunnerConfig,
    epoch: u64,
    stats: &mut CommStats,
    rng: &mut R,
) -> SetEpochOutput {
    EpochPlan::compile_td(topo).run_set(set, net, model, config, epoch, stats, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Protocol, ScalarProtocol};
    use std::cell::Cell;
    use td_aggregates::average::Average;
    use td_aggregates::count::Count;
    use td_aggregates::sum::Sum;
    use td_netsim::loss::{Global, NoLoss};
    use td_netsim::node::Position;
    use td_netsim::rng::rng_from_seed;
    use td_topology::bushy::{build_bushy_tree, BushyOptions};
    use td_topology::rings::Rings;

    fn topo(seed: u64, sensors: usize, delta_levels: u16) -> (Network, TdTopology) {
        let mut rng = rng_from_seed(seed);
        let net = Network::random_connected(
            sensors,
            20.0,
            20.0,
            Position::new(10.0, 10.0),
            3.0,
            &mut rng,
        );
        let rings = Rings::build(&net);
        let tree = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
        (net.clone(), TdTopology::new(rings, tree, delta_levels))
    }

    /// What one typed query's epoch produced: its answer, downcast out
    /// of a one-entry set, beside the set's instrumentation.
    struct Single<O> {
        output: O,
        contributing: usize,
        envelope: BaseEnvelope,
    }

    /// Run `proto` alone through one of the set entry points — a
    /// one-query set, so a dedicated run is bit-identical to the same
    /// query inside a larger set.
    fn single<P: Protocol>(
        proto: &P,
        run: impl FnOnce(&QuerySet<'_>) -> SetEpochOutput,
    ) -> Single<P::Output> {
        let mut set = QuerySet::new();
        set.register(proto);
        let mut out = run(&set);
        assert_eq!(out.outputs.len(), 1);
        Single {
            output: *out
                .outputs
                .pop()
                .expect("single-query set has one output")
                .downcast::<P::Output>()
                .expect("single-query output type"),
            contributing: out.contributing,
            envelope: out
                .envelope
                .expect("the default config carries the envelope"),
        }
    }

    /// An epoch's base envelope, its estimate as bits, so a comparison
    /// is bit for bit.
    type EnvelopeBits = Option<(u64, ExtremaSet, ExtremaSet)>;

    fn envelope_bits(out: &SetEpochOutput) -> EnvelopeBits {
        out.envelope.as_ref().map(|e| {
            (
                e.contributing_est.to_bits(),
                e.max_noncontrib.clone(),
                e.min_noncontrib.clone(),
            )
        })
    }

    #[test]
    fn all_tree_lossless_sum_is_exact() {
        let (net, td) = topo(121, 150, 0);
        let td = {
            // Force pure tree (base included).
            let rings = td.rings().clone();
            let tree = td.tree().clone();
            TdTopology::all_tree(rings, tree)
        };
        let values: Vec<u64> = (0..net.len() as u64).collect();
        let expect: f64 = values[1..].iter().sum::<u64>() as f64;
        let proto = ScalarProtocol::new(Sum::default(), &values);
        let mut stats = CommStats::new(net.len());
        let mut rng = rng_from_seed(122);
        let out = single(&proto, |set| {
            run_td_epoch_set(
                set,
                &td,
                &net,
                &NoLoss,
                RunnerConfig::default(),
                0,
                &mut stats,
                &mut rng,
            )
        });
        assert_eq!(out.output, expect);
        assert_eq!(out.contributing, net.num_sensors());
        assert_eq!(out.envelope.contributing_est, net.num_sensors() as f64);
    }

    #[test]
    fn all_multipath_lossless_sum_approximate() {
        let (net, td) = topo(123, 150, 0);
        let td = TdTopology::all_multipath(td.rings().clone(), td.tree().clone());
        let values: Vec<u64> = vec![50; net.len()];
        let expect = 50.0 * net.num_sensors() as f64;
        let proto = ScalarProtocol::new(Sum::default(), &values);
        let mut stats = CommStats::new(net.len());
        let mut rng = rng_from_seed(124);
        let out = single(&proto, |set| {
            run_td_epoch_set(
                set,
                &td,
                &net,
                &NoLoss,
                RunnerConfig::default(),
                0,
                &mut stats,
                &mut rng,
            )
        });
        let rel = (out.output - expect).abs() / expect;
        assert!(rel < 0.4, "sum {} expect {expect}", out.output);
        assert_eq!(out.contributing, net.num_sensors());
    }

    #[test]
    fn mixed_topology_lossless_accounts_everyone() {
        for delta_levels in [1u16, 2, 3] {
            let (net, td) = topo(125, 200, delta_levels);
            let values: Vec<u64> = vec![1; net.len()];
            let proto = ScalarProtocol::new(Count::default(), &values);
            let mut stats = CommStats::new(net.len());
            let mut rng = rng_from_seed(126);
            let out = single(&proto, |set| {
                run_td_epoch_set(
                    set,
                    &td,
                    &net,
                    &NoLoss,
                    RunnerConfig::default(),
                    0,
                    &mut stats,
                    &mut rng,
                )
            });
            assert_eq!(
                out.contributing,
                net.num_sensors(),
                "delta_levels={delta_levels}"
            );
            let rel = (out.output - net.num_sensors() as f64).abs() / net.num_sensors() as f64;
            assert!(rel < 0.4, "count {} at delta {delta_levels}", out.output);
        }
    }

    #[test]
    fn lossy_td_beats_lossy_tag_on_contribution() {
        let (net, td) = topo(127, 300, 3);
        let values: Vec<u64> = vec![1; net.len()];
        let model = Global::new(0.25);
        let mut td_contrib = 0usize;
        let mut tag_contrib = 0usize;
        let epochs = 20;
        let mut rng = rng_from_seed(128);
        let mut stats = CommStats::new(net.len());
        for e in 0..epochs {
            let proto = ScalarProtocol::new(Count::default(), &values);
            let out = single(&proto, |set| {
                run_td_epoch_set(
                    set,
                    &td,
                    &net,
                    &model,
                    RunnerConfig::default(),
                    e,
                    &mut stats,
                    &mut rng,
                )
            });
            td_contrib += out.contributing;
            let out = single(&proto, |set| {
                EpochPlan::compile_tag(td.tree()).run_set(
                    set,
                    &net,
                    &model,
                    RunnerConfig::default(),
                    e,
                    &mut stats,
                    &mut rng,
                )
            });
            tag_contrib += out.contributing;
        }
        assert!(
            td_contrib > tag_contrib,
            "TD {td_contrib} <= TAG {tag_contrib}"
        );
    }

    #[test]
    fn switchable_m_vertices_report_noncontrib_under_loss() {
        let (net, td) = topo(129, 250, 2);
        let values: Vec<u64> = vec![1; net.len()];
        let proto = ScalarProtocol::new(Count::default(), &values);
        let mut stats = CommStats::new(net.len());
        let mut rng = rng_from_seed(130);
        let out = single(&proto, |set| {
            run_td_epoch_set(
                set,
                &td,
                &net,
                &Global::new(0.5),
                RunnerConfig::default(),
                0,
                &mut stats,
                &mut rng,
            )
        });
        // Under 50% loss some subtree must be missing nodes, and the
        // extrema must have bubbled up (the base station fuses them).
        if let Some(max) = out.envelope.max_noncontrib.best() {
            assert!(max.value > 0);
            assert!(td.is_switchable_m(max.node) || td.mode(max.node) == Mode::M);
        }
        assert!(out.contributing < net.num_sensors());
    }

    #[test]
    fn tag_retransmissions_help() {
        let (net, td) = topo(131, 200, 0);
        let tree = td.tree();
        let values: Vec<u64> = vec![1; net.len()];
        let model = Global::new(0.3);
        let mut plain = 0usize;
        let mut retried = 0usize;
        for e in 0..10 {
            let proto = ScalarProtocol::new(Count::default(), &values);
            let mut stats = CommStats::new(net.len());
            let mut rng = rng_from_seed(1000 + e);
            plain += single(&proto, |set| {
                EpochPlan::compile_tag(tree).run_set(
                    set,
                    &net,
                    &model,
                    RunnerConfig::default(),
                    e,
                    &mut stats,
                    &mut rng,
                )
            })
            .contributing;
            let mut rng = rng_from_seed(1000 + e);
            retried += single(&proto, |set| {
                EpochPlan::compile_tag(tree).run_set(
                    set,
                    &net,
                    &model,
                    RunnerConfig {
                        tree_retransmit: Retransmit { retries: 2 },
                        ..RunnerConfig::default()
                    },
                    e,
                    &mut stats,
                    &mut rng,
                )
            })
            .contributing;
        }
        assert!(retried > plain, "retransmit {retried} <= plain {plain}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (net, td) = topo(132, 150, 2);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| i % 100).collect();
        let run = |seed: u64| {
            let proto = ScalarProtocol::new(Sum::default(), &values);
            let mut stats = CommStats::new(net.len());
            let mut rng = rng_from_seed(seed);
            let out = single(&proto, |set| {
                run_td_epoch_set(
                    set,
                    &td,
                    &net,
                    &Global::new(0.2),
                    RunnerConfig::default(),
                    0,
                    &mut stats,
                    &mut rng,
                )
            });
            (out.output, out.contributing, stats.total_bytes())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    /// A plan compiled once and executed over many epochs must be
    /// bit-for-bit identical to recompiling the plan every epoch (the
    /// rebuild path) — answers, instrumentation, and accounting.
    #[test]
    fn plan_reuse_is_bit_identical_to_rebuild() {
        let (net, td) = topo(134, 200, 2);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 60).collect();
        let model = Global::new(0.25);
        let epochs = 15u64;

        let mut reused_plan = EpochPlan::compile_td(&td);
        let mut reused_stats = CommStats::new(net.len());
        let mut reused_rng = rng_from_seed(4343);
        let mut rebuilt_stats = CommStats::new(net.len());
        let mut rebuilt_rng = rng_from_seed(4343);
        for epoch in 0..epochs {
            let proto = ScalarProtocol::new(Sum::default(), &values);
            let mut set = QuerySet::new();
            set.register(&proto);
            let reused = reused_plan.run_set(
                &set,
                &net,
                &model,
                RunnerConfig::default(),
                epoch,
                &mut reused_stats,
                &mut reused_rng,
            );
            let rebuilt = run_td_epoch_set(
                &set,
                &td,
                &net,
                &model,
                RunnerConfig::default(),
                epoch,
                &mut rebuilt_stats,
                &mut rebuilt_rng,
            );
            assert_eq!(
                reused.outputs[0].downcast_ref::<f64>(),
                rebuilt.outputs[0].downcast_ref::<f64>(),
                "answers diverged at epoch {epoch}"
            );
            assert_eq!(reused.contributing, rebuilt.contributing);
            assert_eq!(reused.envelope, rebuilt.envelope);
        }
        assert_eq!(reused_stats, rebuilt_stats);
    }

    /// The query-column fan-out is bit-identical on any worker count —
    /// answers, instrumentation, byte accounting, and the caller's RNG
    /// stream — for both TD (mixed T/M labeling, lossy) and TAG plans,
    /// including more workers than the set has queries (`k` is capped
    /// at the query count). Three queries, so the fan-out engages;
    /// `parallel_min_nodes: 0` lets it engage at test scale. The
    /// broader scheme × worker matrix lives in `tests/e2e_parallel.rs`.
    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        use rand::Rng;
        let (net, td) = topo(150, 200, 2);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 60).collect();
        let model = Global::new(0.25);
        let run = |workers: usize, tag: bool| {
            let config = RunnerConfig {
                workers,
                parallel_min_nodes: 0,
                ..RunnerConfig::default()
            };
            let mut plan = if tag {
                EpochPlan::compile_tag(td.tree())
            } else {
                EpochPlan::compile_td(&td)
            };
            let mut stats = CommStats::new(net.len());
            let mut rng = rng_from_seed(77);
            let mut history = Vec::new();
            for epoch in 0..6u64 {
                let sum = ScalarProtocol::new(Sum::default(), &values);
                let count = ScalarProtocol::new(Count::default(), &values);
                let average = ScalarProtocol::new(Average::default(), &values);
                let mut set = QuerySet::new();
                set.register(&sum);
                set.register(&count);
                set.register(&average);
                let out = plan.run_set(&set, &net, &model, config, epoch, &mut stats, &mut rng);
                let answer = |i: usize| out.outputs[i].downcast_ref::<f64>().unwrap().to_bits();
                history.push((
                    [answer(0), answer(1), answer(2)],
                    out.contributing,
                    envelope_bits(&out),
                ));
            }
            (history, stats, rng.gen::<u64>())
        };
        for tag in [false, true] {
            let sequential = run(1, tag);
            for workers in [2, 3, 8, 64] {
                assert_eq!(
                    sequential,
                    run(workers, tag),
                    "diverged at {workers} workers"
                );
            }
        }
    }

    /// A panicking query column panics the caller: with two queries at
    /// two workers the fan-out joins its threads and re-raises instead
    /// of losing the failure or hanging. The broken query's readings
    /// cover only the base station, so its column indexes past them at
    /// its first sensor, on whichever thread runs it (hence no expected
    /// message: a spawned thread's panic is re-raised as the scope's).
    #[test]
    #[should_panic]
    fn panicking_column_panics_the_caller() {
        let (net, td) = topo(148, 150, 2);
        let values: Vec<u64> = (0..net.len() as u64).collect();
        let config = RunnerConfig {
            workers: 2,
            parallel_min_nodes: 0,
            ..RunnerConfig::default()
        };
        let sum = ScalarProtocol::new(Sum::default(), &values);
        let broken = ScalarProtocol::new(Count::default(), &values[..1]);
        let mut set = QuerySet::new();
        set.register(&sum);
        set.register(&broken);
        let mut stats = CommStats::new(net.len());
        let mut rng = rng_from_seed(149);
        EpochPlan::compile_td(&td).run_set(&set, &net, &NoLoss, config, 0, &mut stats, &mut rng);
    }

    /// The law the single step table rests on: TAG is the all-`T`
    /// plan. On a §4.1-restricted tree (depth = ring level) a TAG plan
    /// and a TD plan labelled all-`T` over the same tree compile the same
    /// tables — steps, step index, levels, tree children and base fields;
    /// only the version and the TD plan's receiver table differ — neither
    /// gives the base station a step, and they run the same epochs: the
    /// answers of a bundle of scalar, frequent-items (exact and FM
    /// counters) and quantile (GK and q-digest) queries, contributing
    /// counts, byte accounting and the caller's RNG stream, bit for bit,
    /// lossless and lossy, on one thread and on two.
    #[test]
    fn tag_plan_is_the_all_t_td_plan() {
        use crate::protocol::{FreqOutput, FreqProtocol, QuantileOutput, QuantileProtocol};
        use rand::Rng;
        use td_frequent::items::ItemBag;
        use td_frequent::multipath::MultipathConfig;
        use td_quantiles::gradient::MinTotalLoad;
        use td_quantiles::{GkSummary, QDigest};
        use td_sketches::counter::{ExactFactory, FmFactory};

        fn debug<T: std::fmt::Debug + 'static>(answer: &dyn Any) -> String {
            format!("{:?}", answer.downcast_ref::<T>().expect("answer type"))
        }

        let (net, td) = topo(151, 200, 2);
        let all_t = TdTopology::all_tree(td.rings().clone(), td.tree().clone());
        let tables = |plan: &EpochPlan| {
            let s = &plan.sched;
            assert!(
                s.steps.iter().all(|step| !step.node.is_base()),
                "the base station has a step"
            );
            assert_eq!(s.step_of[BASE_STATION.index()], NO_STEP);
            let steps: Vec<Step> = s
                .steps
                .iter()
                .map(|&step| Step {
                    recv_start: 0,
                    recv_end: 0,
                    ..step
                })
                .collect();
            (
                steps,
                s.step_of.clone(),
                s.levels.clone(),
                (s.children.start.clone(), s.children.from.clone()),
                s.m_steps,
                (
                    s.base_mode,
                    s.base_height,
                    s.base_subtree,
                    s.base_switchable_m,
                ),
            )
        };
        let tag_plan = EpochPlan::compile_tag(all_t.tree());
        assert!(tag_plan.sched.receivers.is_empty());
        assert_eq!(tables(&tag_plan), tables(&EpochPlan::compile_td(&all_t)));

        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 60).collect();
        let bags: Vec<ItemBag> = (0..net.len() as u64)
            .map(|i| ItemBag::from_counts([(i % 7, 1 + i % 3), (11, 2)]))
            .collect();
        let run = |mut plan: EpochPlan, loss: f64, workers: usize| {
            let model = Global::new(loss);
            let config = RunnerConfig {
                workers,
                parallel_min_nodes: 0,
                ..RunnerConfig::default()
            };
            let mut stats = CommStats::new(net.len());
            let mut rng = rng_from_seed(78);
            let mut history = Vec::new();
            for epoch in 0..5u64 {
                let gradient = MinTotalLoad::new(0.01, 2.25);
                let sum = ScalarProtocol::new(Sum::default(), &values);
                let average = ScalarProtocol::new(Average::default(), &values);
                let exact = FreqProtocol::new(
                    MultipathConfig::new(0.01, 1.5, 1 << 20, ExactFactory),
                    gradient,
                    0.2,
                    &bags,
                );
                let fm = FreqProtocol::new(
                    MultipathConfig::new(0.01, 1.5, 1 << 20, FmFactory { bitmaps: 16 }),
                    gradient,
                    0.2,
                    &bags,
                );
                let gk = QuantileProtocol::gk(MinTotalLoad::new(0.05, 2.25), &values);
                let qdigest = QuantileProtocol::qdigest(8, MinTotalLoad::new(0.05, 2.25), &values);
                let mut set = QuerySet::new();
                set.register(&sum);
                set.register(&average);
                set.register(&exact);
                set.register(&fm);
                set.register(&gk);
                set.register(&qdigest);
                let out = plan.run_set(&set, &net, &model, config, epoch, &mut stats, &mut rng);
                let scalar = |i: usize| out.outputs[i].downcast_ref::<f64>().unwrap().to_bits();
                history.push((
                    (scalar(0), scalar(1)),
                    debug::<FreqOutput>(&*out.outputs[2]),
                    debug::<FreqOutput>(&*out.outputs[3]),
                    debug::<QuantileOutput<GkSummary>>(&*out.outputs[4]),
                    debug::<QuantileOutput<QDigest>>(&*out.outputs[5]),
                    out.contributing,
                    envelope_bits(&out),
                ));
            }
            (history, stats, rng.gen::<u64>())
        };
        for loss in [0.0, 0.1, 0.3] {
            for workers in [1, 2] {
                let tag = run(EpochPlan::compile_tag(all_t.tree()), loss, workers);
                let td = run(EpochPlan::compile_td(&all_t), loss, workers);
                let lost = tag.0.iter().any(|e| e.5 < net.num_sensors());
                assert_eq!(lost, loss > 0.0, "loss {loss}");
                assert_eq!(
                    tag, td,
                    "TAG and all-T TD diverged at loss {loss}, {workers} workers"
                );
            }
        }
    }

    /// A protocol whose multi-path message counts its own clones.
    struct CloneCounting {
        clones: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    struct Tracked {
        count: u64,
        clones: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            self.clones
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Tracked {
                count: self.count,
                clones: std::sync::Arc::clone(&self.clones),
            }
        }
    }

    impl CloneCounting {
        fn tracked(&self, count: u64) -> Tracked {
            Tracked {
                count,
                clones: std::sync::Arc::clone(&self.clones),
            }
        }
    }

    impl Protocol for CloneCounting {
        type TreeMsg = u64;
        type MpMsg = Tracked;
        type Output = u64;

        fn local_tree(&self, node: NodeId) -> Option<u64> {
            (!node.is_base()).then_some(1)
        }

        fn merge_tree(&self, into: &mut u64, from: &u64) {
            *into += from;
        }

        fn local_mp(&self, node: NodeId, acc: &mut Option<Tracked>) -> bool {
            *acc = (!node.is_base()).then(|| self.tracked(1));
            acc.is_some()
        }

        fn fuse(&self, into: &mut Tracked, from: &Tracked) {
            into.count = into.count.max(from.count);
        }

        fn convert(&self, _root: NodeId, msg: &u64, out: &mut Option<Tracked>) {
            *out = Some(self.tracked(*msg));
        }

        fn tree_words(&self, _msg: &u64) -> usize {
            1
        }

        fn mp_wire(&self, _msg: &Tracked) -> td_netsim::message::WireSize {
            td_netsim::message::WireSize::from_words(1)
        }

        fn evaluate_tree(&self, _parts: &[u64], _base_height: u32) -> u64 {
            0
        }

        fn evaluate_mp(&self, mp: &Tracked) -> u64 {
            mp.count
        }
    }

    /// A broadcast stays in its sender's slot and is fused by
    /// reference: on an all-M labeling the only message clones of an
    /// epoch are the base station's adoptions (it has no local message
    /// to fuse into), one per query — on one thread or two, however many
    /// neighbours hear each broadcast.
    #[test]
    fn broadcasts_are_never_copied_per_receiver() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for radio_range in [3.0, 6.0] {
            let mut rng = rng_from_seed(144);
            let net = Network::random_connected(
                150,
                20.0,
                20.0,
                Position::new(10.0, 10.0),
                radio_range,
                &mut rng,
            );
            let rings = Rings::build(&net);
            let tree = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
            let td = TdTopology::all_multipath(rings, tree);
            let links: usize = (0..net.len() as u32)
                .map(|u| td.rings().receivers(NodeId(u)).len())
                .sum();
            assert!(links > 2 * net.len(), "fan-out too small to tell: {links}");
            for workers in [1, 2] {
                let config = RunnerConfig {
                    workers,
                    parallel_min_nodes: 0,
                    ..RunnerConfig::default()
                };
                let clones = std::sync::Arc::new(AtomicUsize::new(0));
                let a = CloneCounting {
                    clones: clones.clone(),
                };
                let b = CloneCounting {
                    clones: clones.clone(),
                };
                let mut set = QuerySet::new();
                set.register(&a);
                set.register(&b);
                let mut plan = EpochPlan::compile_td(&td);
                let mut stats = CommStats::new(net.len());
                let mut rng = rng_from_seed(145);
                for epoch in 0..5u64 {
                    let before = clones.load(Ordering::Relaxed);
                    let out =
                        plan.run_set(&set, &net, &NoLoss, config, epoch, &mut stats, &mut rng);
                    assert_eq!(out.contributing, net.num_sensors());
                    let cloned = clones.load(Ordering::Relaxed) - before;
                    assert!(
                        cloned <= set.len(),
                        "{cloned} clones in epoch {epoch} at {workers} workers, range {radio_range}"
                    );
                }
            }
        }
    }

    /// A two-party meeting point with a timeout: each party announces
    /// itself and waits until the other has, or until ten seconds have
    /// passed (so a runner that ran both parties on one thread fails an
    /// assertion instead of hanging).
    #[derive(Default)]
    struct Meeting {
        arrived: std::sync::Mutex<usize>,
        all_here: std::sync::Condvar,
    }

    impl Meeting {
        fn meet(&self) {
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.all_here.notify_all();
            let _ = self
                .all_here
                .wait_timeout_while(arrived, std::time::Duration::from_secs(10), |n| *n < 2)
                .unwrap();
        }
    }

    /// A protocol that records which thread ran its column: every
    /// sensor's `local_mp` call notes `thread::current().id()`, and the
    /// call for node `meet_at` waits at `meeting` for the other query's
    /// column.
    struct ThreadTagged {
        seen: std::sync::Mutex<Vec<std::thread::ThreadId>>,
        meeting: Option<std::sync::Arc<Meeting>>,
        meet_at: NodeId,
    }

    impl Protocol for ThreadTagged {
        type TreeMsg = u64;
        type MpMsg = u64;
        type Output = u64;

        fn local_tree(&self, node: NodeId) -> Option<u64> {
            (!node.is_base()).then_some(1)
        }

        fn merge_tree(&self, into: &mut u64, from: &u64) {
            *into += from;
        }

        fn local_mp(&self, node: NodeId, acc: &mut Option<u64>) -> bool {
            // The base station's local message is taken when the column
            // is evaluated, on the calling thread; every sensor's, by
            // whichever thread runs the column.
            if !node.is_base() {
                let id = std::thread::current().id();
                let mut seen = self.seen.lock().unwrap();
                if !seen.contains(&id) {
                    seen.push(id);
                }
            }
            if let Some(meeting) = self.meeting.as_ref().filter(|_| node == self.meet_at) {
                meeting.meet();
            }
            *acc = (!node.is_base()).then_some(1);
            acc.is_some()
        }

        fn fuse(&self, into: &mut u64, from: &u64) {
            *into = (*into).max(*from);
        }

        fn convert(&self, _root: NodeId, msg: &u64, out: &mut Option<u64>) {
            *out = Some(*msg);
        }

        fn tree_words(&self, _msg: &u64) -> usize {
            1
        }

        fn mp_wire(&self, _msg: &u64) -> td_netsim::message::WireSize {
            td_netsim::message::WireSize::from_words(1)
        }

        fn evaluate_tree(&self, parts: &[u64], _base_height: u32) -> u64 {
            parts.iter().sum()
        }

        fn evaluate_mp(&self, mp: &u64) -> u64 {
            *mp
        }
    }

    /// The unit of the fan-out is a query column: at two workers the two
    /// columns of a two-query set run at the same time on two threads —
    /// each waits inside its first `local_mp` until the other has
    /// arrived — and a one-query set never leaves the calling thread.
    #[test]
    fn columns_run_on_a_second_thread_only_with_two_queries() {
        let (net, td) = topo(146, 150, 0);
        let td = TdTopology::all_multipath(td.rings().clone(), td.tree().clone());
        let config = RunnerConfig {
            workers: 2,
            parallel_min_nodes: 0,
            ..RunnerConfig::default()
        };
        let mut plan = EpochPlan::compile_td(&td);
        let first = plan.sched.steps[0].node;
        let me = std::thread::current().id();
        for queries in [1, 2] {
            let meeting = (queries == 2).then(|| std::sync::Arc::new(Meeting::default()));
            let protos: Vec<ThreadTagged> = (0..queries)
                .map(|_| ThreadTagged {
                    seen: std::sync::Mutex::new(Vec::new()),
                    meeting: meeting.clone(),
                    meet_at: first,
                })
                .collect();
            let mut set = QuerySet::new();
            for proto in &protos {
                set.register(proto);
            }
            let mut stats = CommStats::new(net.len());
            let mut rng = rng_from_seed(147);
            plan.run_set(&set, &net, &NoLoss, config, 0, &mut stats, &mut rng);
            let threads: Vec<Vec<std::thread::ThreadId>> = protos
                .iter()
                .map(|p| p.seen.lock().unwrap().clone())
                .collect();
            if queries == 1 {
                assert_eq!(threads, [vec![me]], "one query left the calling thread");
            } else {
                assert!(
                    threads.iter().all(|t| t.len() == 1) && threads[0] != threads[1],
                    "two columns did not run on two threads: {threads:?}"
                );
            }
        }
    }

    /// Max of the contributing node ids, carried in `Cell`s: messages
    /// that are `Send` but not `Sync`.
    struct CellMax;

    impl Protocol for CellMax {
        type TreeMsg = Cell<u64>;
        type MpMsg = Cell<u64>;
        type Output = u64;

        fn local_tree(&self, node: NodeId) -> Option<Cell<u64>> {
            (!node.is_base()).then(|| Cell::new(node.0.into()))
        }

        fn merge_tree(&self, into: &mut Cell<u64>, from: &Cell<u64>) {
            into.set(into.get().max(from.get()));
        }

        fn local_mp(&self, node: NodeId, acc: &mut Option<Cell<u64>>) -> bool {
            *acc = self.local_tree(node);
            acc.is_some()
        }

        fn fuse(&self, into: &mut Cell<u64>, from: &Cell<u64>) {
            self.merge_tree(into, from);
        }

        fn convert(&self, _root: NodeId, msg: &Cell<u64>, out: &mut Option<Cell<u64>>) {
            *out = Some(msg.clone());
        }

        fn tree_words(&self, _msg: &Cell<u64>) -> usize {
            1
        }

        fn mp_wire(&self, _msg: &Cell<u64>) -> td_netsim::message::WireSize {
            td_netsim::message::WireSize::from_words(1)
        }

        fn evaluate_tree(&self, parts: &[Cell<u64>], _base_height: u32) -> u64 {
            parts.iter().map(Cell::get).max().unwrap_or(0)
        }

        fn evaluate_mp(&self, mp: &Cell<u64>) -> u64 {
            mp.get()
        }
    }

    /// A column is read by one thread at a time, so messages need not
    /// be `Sync`: a two-query epoch of `Cell` messages fanned out over
    /// two workers answers exactly as on one.
    #[test]
    fn messages_need_send_but_not_sync() {
        let (net, td) = topo(152, 200, 2);
        let model = Global::new(0.3);
        let run = |workers: usize| {
            let config = RunnerConfig {
                workers,
                parallel_min_nodes: 0,
                ..RunnerConfig::default()
            };
            let mut set = QuerySet::new();
            set.register(CellMax);
            set.register(CellMax);
            let mut plan = EpochPlan::compile_td(&td);
            let mut stats = CommStats::new(net.len());
            let mut rng = rng_from_seed(153);
            (0..6u64)
                .map(|epoch| {
                    let out = plan.run_set(&set, &net, &model, config, epoch, &mut stats, &mut rng);
                    let answer = |i: usize| *out.outputs[i].downcast_ref::<u64>().unwrap();
                    (answer(0), answer(1), out.contributing)
                })
                .collect::<Vec<_>>()
        };
        let one = run(1);
        assert!(one.iter().all(|&(a, b, _)| a == b && a > 0), "{one:?}");
        assert_eq!(run(2), one);
    }

    /// Patching a compiled plan across adaptation mutations yields a
    /// schedule structurally identical to compiling fresh — and epochs
    /// run over the patched plan match the fresh plan bit-for-bit.
    #[test]
    fn patched_plan_is_identical_to_fresh_compile() {
        let (net, mut td) = topo(140, 200, 2);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 40).collect();
        let model = Global::new(0.2);
        let mut plan = EpochPlan::compile_td(&td);

        for round in 0..6u64 {
            // Mutate: alternate fine-grained expansion, single shrinks,
            // and whole-level moves.
            match round % 3 {
                0 => {
                    let root = td
                        .switchable_m_nodes()
                        .into_iter()
                        .find(|&u| !td.tree().children(u).is_empty())
                        .expect("switchable M with children");
                    td.expand_subtree(root).unwrap();
                }
                1 => {
                    let m = td.switchable_m_nodes()[0];
                    td.switch_to_t(m).unwrap();
                }
                _ => {
                    td.expand_all();
                }
            }
            assert!(
                plan.patch(&td, td.len()).is_some(),
                "patch refused at {round}"
            );
            let fresh = EpochPlan::compile_td(&td);
            assert_eq!(
                plan.structural_digest(),
                fresh.structural_digest(),
                "digest diverged after round {round}"
            );
            assert_eq!(plan.compiled_version(), Some(td.version()));

            // And the epoch results are bit-identical.
            let proto = ScalarProtocol::new(Sum::default(), &values);
            let mut set = QuerySet::new();
            set.register(&proto);
            let mut patched_plan_stats = CommStats::new(net.len());
            let mut fresh_stats = CommStats::new(net.len());
            let mut fresh = fresh;
            let mut rng_a = rng_from_seed(9000 + round);
            let mut rng_b = rng_from_seed(9000 + round);
            let a = plan.run_set(
                &set,
                &net,
                &model,
                RunnerConfig::default(),
                round,
                &mut patched_plan_stats,
                &mut rng_a,
            );
            let b = fresh.run_set(
                &set,
                &net,
                &model,
                RunnerConfig::default(),
                round,
                &mut fresh_stats,
                &mut rng_b,
            );
            assert_eq!(
                a.outputs[0].downcast_ref::<f64>(),
                b.outputs[0].downcast_ref::<f64>()
            );
            assert_eq!(a.contributing, b.contributing);
            assert_eq!(envelope_bits(&a), envelope_bits(&b));
            assert_eq!(patched_plan_stats, fresh_stats);
        }
    }

    /// `patch` declines (instead of corrupting) on a TAG plan and past
    /// its budget, and a plan any number of mutations behind still
    /// refreshes to a fresh compile.
    #[test]
    fn patch_falls_back_when_it_cannot_patch() {
        let (_, mut td) = topo(141, 150, 1);

        // TAG plans have no labeling to patch.
        let mut tag = EpochPlan::compile_tag(td.tree());
        assert!(tag.patch(&td, td.len()).is_none());

        // Relabel budget exceeded.
        let mut plan = EpochPlan::compile_td(&td);
        let switched = td.expand_all();
        assert!(switched > 1);
        assert!(
            plan.patch(&td, switched - 1).is_none(),
            "over-budget patch accepted"
        );
        // The refused plan is untouched and still patchable within budget.
        assert_eq!(plan.patch(&td, switched), Some(switched));
        assert_eq!(plan.compiled_version(), Some(td.version()));

        // A no-op patch at the current version succeeds trivially.
        assert_eq!(plan.patch(&td, 0), Some(0));

        // A plan 80 mutations behind refreshes like one a single
        // mutation behind.
        for _ in 0..80 {
            match td.switchable_t_nodes().first().copied() {
                Some(u) => td.switch_to_m(u).unwrap(),
                None => {
                    let m = td.switchable_m_nodes()[0];
                    td.switch_to_t(m).unwrap();
                }
            }
        }
        assert!(plan.patch(&td, td.len()).is_some());
        assert_eq!(
            plan.structural_digest(),
            EpochPlan::compile_td(&td).structural_digest()
        );
    }

    /// The same reuse-vs-rebuild identity for the TAG plan.
    #[test]
    fn tag_plan_reuse_is_bit_identical_to_rebuild() {
        let (net, td) = topo(135, 180, 0);
        let tree = td.tree();
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 2 + i % 40).collect();
        let model = Global::new(0.3);

        let mut plan = EpochPlan::compile_tag(tree);
        let mut reused_stats = CommStats::new(net.len());
        let mut reused_rng = rng_from_seed(4545);
        let mut rebuilt_stats = CommStats::new(net.len());
        let mut rebuilt_rng = rng_from_seed(4545);
        for epoch in 0..10u64 {
            let proto = ScalarProtocol::new(Sum::default(), &values);
            let mut set = QuerySet::new();
            set.register(&proto);
            let reused = plan.run_set(
                &set,
                &net,
                &model,
                RunnerConfig::default(),
                epoch,
                &mut reused_stats,
                &mut reused_rng,
            );
            let rebuilt = EpochPlan::compile_tag(tree).run_set(
                &set,
                &net,
                &model,
                RunnerConfig::default(),
                epoch,
                &mut rebuilt_stats,
                &mut rebuilt_rng,
            );
            assert_eq!(
                reused.outputs[0].downcast_ref::<f64>(),
                rebuilt.outputs[0].downcast_ref::<f64>()
            );
            assert_eq!(reused.contributing, rebuilt.contributing);
        }
        assert_eq!(reused_stats, rebuilt_stats);
    }

    /// The heart of the multi-query engine: N queries in one set produce
    /// exactly the answers N dedicated traversals would, while the
    /// traversal count (messages sent) stays that of ONE query.
    #[test]
    fn bundled_queries_match_dedicated_runs_with_one_traversal() {
        let (net, td) = topo(133, 200, 2);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 10 + i % 90).collect();
        let model = Global::new(0.2);

        enum Agg {
            Count,
            Sum,
            Average,
        }

        // Dedicated single-query runs, each from the same seeded stream.
        let run_single = |agg: Agg| -> (f64, u64, u64) {
            let mut stats = CommStats::new(net.len());
            let mut rng = rng_from_seed(4242);
            let out = match agg {
                Agg::Count => {
                    let proto = ScalarProtocol::new(Count::default(), &values);
                    single(&proto, |set| {
                        run_td_epoch_set(
                            set,
                            &td,
                            &net,
                            &model,
                            RunnerConfig::default(),
                            0,
                            &mut stats,
                            &mut rng,
                        )
                    })
                    .output
                }
                Agg::Sum => {
                    let proto = ScalarProtocol::new(Sum::default(), &values);
                    single(&proto, |set| {
                        run_td_epoch_set(
                            set,
                            &td,
                            &net,
                            &model,
                            RunnerConfig::default(),
                            0,
                            &mut stats,
                            &mut rng,
                        )
                    })
                    .output
                }
                Agg::Average => {
                    let proto = ScalarProtocol::new(Average::default(), &values);
                    single(&proto, |set| {
                        run_td_epoch_set(
                            set,
                            &td,
                            &net,
                            &model,
                            RunnerConfig::default(),
                            0,
                            &mut stats,
                            &mut rng,
                        )
                    })
                    .output
                }
            };
            (out, stats.total_rounds(), stats.total_bytes())
        };

        let (count_alone, rounds_alone, count_bytes) = run_single(Agg::Count);
        let (sum_alone, _, sum_bytes) = run_single(Agg::Sum);
        let (avg_alone, _, avg_bytes) = run_single(Agg::Average);

        // Bundled run from the same seeded stream.
        let count_p = ScalarProtocol::new(Count::default(), &values);
        let sum_p = ScalarProtocol::new(Sum::default(), &values);
        let avg_p = ScalarProtocol::new(Average::default(), &values);
        let mut set = QuerySet::new();
        let h_count = set.register(&count_p);
        let h_sum = set.register(&sum_p);
        let h_avg = set.register(&avg_p);
        let mut stats = CommStats::new(net.len());
        let mut rng = rng_from_seed(4242);
        let out = run_td_epoch_set(
            &set,
            &td,
            &net,
            &model,
            RunnerConfig::default(),
            0,
            &mut stats,
            &mut rng,
        );

        let get = |i: usize| *out.outputs[i].downcast_ref::<f64>().unwrap();
        assert_eq!(get(h_count.index()), count_alone);
        assert_eq!(get(h_sum.index()), sum_alone);
        assert_eq!(get(h_avg.index()), avg_alone);
        // One traversal's worth of send rounds, not three.
        assert_eq!(stats.total_rounds(), rounds_alone);
        // Sharing the envelope + adaptation overhead across the bundle
        // beats running three dedicated traversals on bytes too.
        assert!(
            stats.total_bytes() < count_bytes + sum_bytes + avg_bytes,
            "bundle {} bytes vs dedicated {}",
            stats.total_bytes(),
            count_bytes + sum_bytes + avg_bytes
        );
    }

    /// One epoch's comparable record of the stale-slot check: the Sum
    /// answer's bits, the frequent-items answer, and the shared
    /// instrumentation.
    type SlotRecord = (u64, String, usize, EnvelopeBits);

    fn slot_record(out: &SetEpochOutput) -> SlotRecord {
        let freq = out.outputs[1]
            .downcast_ref::<crate::protocol::FreqOutput>()
            .expect("query 1 is frequent items");
        (
            out.outputs[0].downcast_ref::<f64>().unwrap().to_bits(),
            format!("{freq:?}"),
            out.contributing,
            envelope_bits(out),
        )
    }

    /// A column's accumulator and conversion scratch outlive the query
    /// that grew them, so one query must not see another's leftovers: at
    /// each column position, queries of the same message types but other
    /// configurations take turns epoch by epoch — Sum over 40 and over
    /// 16 bitmaps, frequent items over inline (16) and heap (24) FM
    /// counters — and one long-lived plan answers and accounts exactly as
    /// a fresh compile does every epoch, at 1 and at 2 workers.
    #[test]
    fn a_reused_accumulator_cannot_leak_between_queries() {
        use crate::protocol::FreqProtocol;
        use td_frequent::items::ItemBag;
        use td_frequent::multipath::MultipathConfig;
        use td_quantiles::gradient::MinTotalLoad;
        use td_sketches::counter::FmFactory;

        let (net, td) = topo(171, 120, 2);
        let model = Global::new(0.3);
        for workers in [1, 2] {
            let config = RunnerConfig {
                workers,
                parallel_min_nodes: 0,
                ..RunnerConfig::default()
            };
            let mut plan = EpochPlan::compile_td(&td);
            let (mut long_stats, mut fresh_stats) =
                (CommStats::new(net.len()), CommStats::new(net.len()));
            let (mut long_rng, mut fresh_rng) = (rng_from_seed(172), rng_from_seed(172));
            for epoch in 0..12u64 {
                let values: Vec<u64> = (0..net.len() as u64)
                    .map(|i| 1 + (i * (epoch + 5)) % 40)
                    .collect();
                let bags: Vec<ItemBag> = (0..net.len() as u64)
                    .map(|i| ItemBag::from_counts([(i % 5, 1 + (i + epoch) % 4), (9, 3)]))
                    .collect();
                let (sum, bitmaps) = if epoch % 2 == 0 {
                    (Sum::default(), 16)
                } else {
                    (Sum::with_bitmaps(16), 24)
                };
                let sum = ScalarProtocol::new(sum, &values);
                let freq = FreqProtocol::new(
                    MultipathConfig::new(0.01, 1.5, 1 << 20, FmFactory { bitmaps }),
                    MinTotalLoad::new(0.01, 2.25),
                    0.2,
                    &bags,
                );
                let mut set = QuerySet::new();
                set.register(&sum);
                set.register(&freq);
                let long = plan.run_set(
                    &set,
                    &net,
                    &model,
                    config,
                    epoch,
                    &mut long_stats,
                    &mut long_rng,
                );
                let fresh = run_td_epoch_set(
                    &set,
                    &td,
                    &net,
                    &model,
                    config,
                    epoch,
                    &mut fresh_stats,
                    &mut fresh_rng,
                );
                assert_eq!(
                    slot_record(&long),
                    slot_record(&fresh),
                    "epoch {epoch}, {workers} workers"
                );
                assert_eq!(long_stats, fresh_stats, "epoch {epoch}, {workers} workers");
            }
        }
    }

    /// The per-epoch tree lists the compiled children table replaced,
    /// kept as its oracle: every `T` step's arrived unicast, listed by a
    /// counting sort over the senders in step order.
    fn epoch_tree_lists(sched: &Schedule, draws: &Draws) -> SlotLists {
        let mut lists = SlotLists::default();
        lists.fill(sched.base_slot() + 1, || {
            sched
                .steps
                .iter()
                .enumerate()
                .filter(|&(slot, step)| {
                    step.mode == Mode::T && draws.outcomes[slot].is_some_and(|o| o.delivered)
                })
                .map(|(slot, step)| (sched.slot_or_base(step.parent), slot))
        });
        lists
    }

    /// Draw `epochs` epochs of `model` over `plan` and require, for
    /// every slot, that [`Frame::children`] yields exactly the oracle's
    /// list.
    fn assert_children_match_the_epoch_lists(
        plan: &EpochPlan,
        net: &Network,
        model: &Global,
        rng: &mut rand::rngs::StdRng,
        epochs: u64,
    ) {
        let sched = &plan.sched;
        let heard = SlotLists::default();
        let mut draws = Draws::default();
        for epoch in 0..epochs {
            draws.open(sched);
            draws.draw(sched, net, model, Retransmit::default(), epoch, rng);
            let frame = Frame {
                sched,
                draws: &draws,
                heard: &heard,
            };
            let oracle = epoch_tree_lists(sched, &draws);
            for slot in 0..=sched.base_slot() {
                let compiled: Vec<u32> = frame.children(slot).map(|c| c as u32).collect();
                assert_eq!(compiled, oracle.of(slot), "slot {slot}, epoch {epoch}");
            }
        }
    }

    /// Up to `max` parent switches of `td` onto another ring receiver
    /// one level down — what a churn reroute records — chosen by `rng`
    /// among the vertices that have one (an `M` vertex only onto an `M`
    /// receiver).
    fn reparent_moves(
        td: &TdTopology,
        rng: &mut rand::rngs::StdRng,
        max: usize,
    ) -> Vec<(NodeId, NodeId)> {
        use rand::Rng;
        let candidates: Vec<(NodeId, NodeId)> =
            td.rings()
                .connected_nodes()
                .filter_map(|u| {
                    let p = td.tree().parent(u)?;
                    let alt =
                        td.rings().receivers(u).iter().copied().find(|&r| {
                            r != p && (td.mode(u) == Mode::T || td.mode(r) == Mode::M)
                        })?;
                    Some((u, alt))
                })
                .collect();
        (0..max.min(candidates.len()))
            .map(|_| candidates[rng.gen_range(0..candidates.len())])
            .collect()
    }

    /// Switch up to `flips` random switchable vertices, `T` → `M` or back.
    fn relabel_randomly(td: &mut TdTopology, rng: &mut rand::rngs::StdRng, flips: usize) {
        use rand::Rng;
        for _ in 0..flips {
            let (to_m, to_t) = (td.switchable_t_nodes(), td.switchable_m_nodes());
            if !to_m.is_empty() && (to_t.is_empty() || rng.gen::<bool>()) {
                td.switch_to_m(to_m[rng.gen_range(0..to_m.len())]).unwrap();
            } else if !to_t.is_empty() {
                td.switch_to_t(to_t[rng.gen_range(0..to_t.len())]).unwrap();
            }
        }
    }

    /// A refresh rebuilds the schedule in the plan's own buffers: after
    /// relabel batches, reparent batches and both together, `patch`
    /// leaves the steps, the broadcast table and a query column's slot
    /// and wire storage where they were, at the capacity they had, and
    /// the plan equals a fresh compile.
    #[test]
    fn a_refresh_keeps_the_plan_buffers() {
        type Sum64 = ScalarProtocol<'static, Sum>;
        type SumCells = Cells<<Sum64 as Protocol>::TreeMsg, <Sum64 as Protocol>::MpMsg>;
        fn at<T>(v: &[T], cap: usize) -> (usize, usize) {
            (v.as_ptr() as usize, cap)
        }
        fn buffers(plan: &EpochPlan) -> [(usize, usize); 4] {
            let column = &plan.arenas.columns[0];
            let cells = column
                .cells
                .as_ref()
                .and_then(|c| c.downcast_ref::<SumCells>())
                .expect("a Sum column");
            let sched = &plan.sched;
            [
                at(&sched.steps, sched.steps.capacity()),
                at(&sched.receivers, sched.receivers.capacity()),
                at(&cells.slots, cells.slots.capacity()),
                at(&column.wire, column.wire.capacity()),
            ]
        }
        let (net, mut td) = topo(175, 200, 2);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 40).collect();
        let model = Global::new(0.2);
        let mut rng = rng_from_seed(176);
        let mut stats = CommStats::new(net.len());
        let mut plan = EpochPlan::compile_td(&td);
        // A compile sizes both tables exactly.
        assert_eq!(plan.sched.steps.capacity(), plan.sched.steps.len());
        assert_eq!(plan.sched.receivers.capacity(), plan.sched.receivers.len());
        let mut run = |plan: &mut EpochPlan, epoch: u64, rng: &mut rand::rngs::StdRng| {
            let proto = ScalarProtocol::new(Sum::default(), &values);
            let mut set = QuerySet::new();
            set.register(&proto);
            plan.run_set(
                &set,
                &net,
                &model,
                RunnerConfig::default(),
                epoch,
                &mut stats,
                rng,
            );
        };
        run(&mut plan, 0, &mut rng);
        let kept = buffers(&plan);
        for round in 1..=6u64 {
            let before = td.version();
            if round % 3 != 2 {
                relabel_randomly(&mut td, &mut rng, 6);
            }
            if round % 3 != 1 {
                let moves = reparent_moves(&td, &mut rng, 6);
                td.switch_parents(&moves).unwrap();
            }
            assert_ne!(td.version(), before, "round {round} changed nothing");
            assert!(plan.patch(&td, td.len()).is_some());
            assert_eq!(buffers(&plan), kept, "round {round}: a buffer moved");
            assert_eq!(
                plan.structural_digest(),
                EpochPlan::compile_td(&td).structural_digest(),
                "round {round}"
            );
            run(&mut plan, round, &mut rng);
            assert_eq!(
                buffers(&plan),
                kept,
                "round {round}: an epoch moved a buffer"
            );
        }
    }

    /// A parent switch (what a churn reroute records) makes `patch`
    /// rebuild the tree-children table to exactly a fresh compile's, and
    /// the structural digest covers the table: permuting it changes the
    /// digest.
    #[test]
    fn a_reparent_rebuilds_the_children_table_the_digest_covers() {
        let (_, mut td) = topo(173, 200, 2);
        let mut plan = EpochPlan::compile_td(&td);
        let before = plan.sched.children.from.clone();
        let moves = reparent_moves(&td, &mut rng_from_seed(174), 6);
        assert!(td.switch_parents(&moves).unwrap() > 0);
        assert!(plan.patch(&td, td.len()).is_some());
        let fresh = EpochPlan::compile_td(&td);
        assert_ne!(
            plan.sched.children.from, before,
            "the moves left the table as it was"
        );
        assert_eq!(plan.sched.children.start, fresh.sched.children.start);
        assert_eq!(plan.sched.children.from, fresh.sched.children.from);
        assert_eq!(plan.structural_digest(), fresh.structural_digest());

        let digest = plan.structural_digest();
        let from = &mut plan.sched.children.from;
        let i = (1..from.len())
            .find(|&i| from[i - 1] != from[i])
            .expect("two distinct children");
        from.swap(i - 1, i);
        assert_ne!(
            plan.structural_digest(),
            digest,
            "a permuted table kept the digest"
        );
    }

    /// Test-only views of a plan's last epoch, for this module's tests
    /// and the session's.
    impl EpochPlan {
        /// Run the envelope column over the plan's last epoch — whether or
        /// not that epoch ran it — in arenas of its own. Returns the base
        /// station's estimate and extrema (derived from the epoch's reached
        /// marks as `run_set` derives them) and the RLE bytes of every `M`
        /// step's count sketch, summed.
        pub(crate) fn explicit_envelope(&mut self) -> (f64, (ExtremaSet, ExtremaSet), u64) {
            let Arenas { draws, heard, .. } = &mut self.arenas;
            collect_heard(heard, &self.sched, draws);
            let frame = Frame {
                sched: &self.sched,
                draws,
                heard,
            };
            let mut envelopes = Envelopes::default();
            envelopes.run(&frame);
            let steps = self.sched.steps.iter().zip(&envelopes.sketch_bytes);
            let sketch_bytes = steps
                .filter(|(step, _)| step.mode == Mode::M)
                .map(|(_, &bytes)| u64::from(bytes))
                .sum();
            (envelopes.est, envelopes.noncontrib(&frame), sketch_bytes)
        }

        /// The last epoch's sends that an envelope is charged on: the
        /// unicast attempts of its `T` steps and the broadcasts of its `M`
        /// steps.
        pub(crate) fn sends(&self) -> (u64, u64) {
            let (mut attempts, mut broadcasts) = (0, 0);
            for (step, outcome) in self.sched.steps.iter().zip(&self.arenas.draws.outcomes) {
                match step.mode {
                    Mode::T => attempts += outcome.map_or(0, |o| o.attempts_used as u64),
                    Mode::M => broadcasts += 1,
                }
            }
            (attempts, broadcasts)
        }

        /// Whether any arena of the envelope column was ever sized.
        pub(crate) fn envelope_sized(&self) -> bool {
            let envelopes = &self.arenas.envelopes;
            envelopes.counts.capacity() > 0
                || envelopes.at.capacity() > 0
                || envelopes.sketch_bytes.capacity() > 0
                || envelopes.live.iter().any(|l| l.capacity() > 0)
        }
    }

    /// A plan without a delta skips the envelope column and reports what
    /// the column would have: on TAG plans and on the all-`T` TD plan of
    /// [`tag_plan_is_the_all_t_td_plan`], over many loss seeds at 1 and 2
    /// workers (two queries, so the fan-out engages), the envelope's
    /// estimate and extrema equal the column's when run explicitly, and
    /// the envelope arena is never sized. A plan with a delta — the base
    /// station alone (its estimate is a sketch's, not the exact count),
    /// or two ring levels — runs the column and sizes the arena. Each
    /// plan reports only the fields its sends carry: counts alone come
    /// with empty extrema, and an epoch that carries nothing reports no
    /// envelope and, on any plan, never sizes the arena.
    #[test]
    fn a_plan_without_a_delta_reports_the_envelope_it_skips() {
        let (net, td) = topo(151, 200, 2);
        let all_t = TdTopology::all_tree(td.rings().clone(), td.tree().clone());
        let base_only = TdTopology::new(td.rings().clone(), td.tree().clone(), 0);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 60).collect();
        for fields in [
            EnvelopeFields::CountsAndExtrema,
            EnvelopeFields::Counts,
            EnvelopeFields::Nothing,
        ] {
            for workers in [1, 2] {
                let config = RunnerConfig {
                    envelope: fields,
                    workers,
                    parallel_min_nodes: 0,
                    ..RunnerConfig::default()
                };
                for (name, mut plan, delta) in [
                    ("TAG", EpochPlan::compile_tag(td.tree()), false),
                    ("all-T TD", EpochPlan::compile_td(&all_t), false),
                    ("base-only delta", EpochPlan::compile_td(&base_only), true),
                    ("two-level delta", EpochPlan::compile_td(&td), true),
                ] {
                    assert_eq!(plan.sched.has_delta(), delta, "{name}");
                    let mut lossy = false;
                    for seed in 0..24u64 {
                        let model = Global::new(0.05 * (seed % 6) as f64);
                        let mut stats = CommStats::new(net.len());
                        let mut rng = rng_from_seed(500 + seed);
                        for epoch in 0..3u64 {
                            let sum = ScalarProtocol::new(Sum::default(), &values);
                            let count = ScalarProtocol::new(Count::default(), &values);
                            let mut set = QuerySet::new();
                            set.register(&sum);
                            set.register(&count);
                            let out = plan
                                .run_set(&set, &net, &model, config, epoch, &mut stats, &mut rng);
                            let (est, (max, min), _) = plan.explicit_envelope();
                            let carried = match fields {
                                EnvelopeFields::Nothing => None,
                                EnvelopeFields::Counts => {
                                    Some((est.to_bits(), extrema([]).0, extrema([]).1))
                                }
                                EnvelopeFields::CountsAndExtrema => Some((est.to_bits(), max, min)),
                            };
                            let at = format!(
                                "{name}, {fields:?}, seed {seed}, epoch {epoch}, {workers} workers"
                            );
                            assert_eq!(envelope_bits(&out), carried, "{at}");
                            lossy |= out.contributing < net.num_sensors();
                        }
                    }
                    assert!(lossy, "{name}: no epoch lost a sensor");
                    assert_eq!(
                        plan.envelope_sized(),
                        delta && fields.carried(),
                        "{name}, {fields:?}: the envelope arena's sizing"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// The compiled tree-children table, filtered through
        /// [`Frame::children`], yields exactly the per-epoch tree lists
        /// it replaced, for every slot: on TAG plans and on TD plans of
        /// random labelings and loss, fresh and after relabel-only and
        /// reparent patch batches.
        #[test]
        fn compiled_children_match_the_epoch_lists(
            seed in 0u64..1_000,
            delta_levels in 0u16..4,
            flips in 0usize..16,
            loss in 0u8..3,
        ) {
            let (net, mut td) = topo(400 + seed, 120, delta_levels);
            let model = Global::new([0.0, 0.2, 0.5][loss as usize]);
            let mut rng = rng_from_seed(seed);
            assert_children_match_the_epoch_lists(
                &EpochPlan::compile_tag(td.tree()), &net, &model, &mut rng, 2);
            relabel_randomly(&mut td, &mut rng, flips);
            let mut plan = EpochPlan::compile_td(&td);
            assert_children_match_the_epoch_lists(&plan, &net, &model, &mut rng, 2);

            relabel_randomly(&mut td, &mut rng, 1 + flips);
            proptest::prop_assert!(plan.patch(&td, td.len()).is_some());
            assert_children_match_the_epoch_lists(&plan, &net, &model, &mut rng, 2);

            let moves = reparent_moves(&td, &mut rng, 1 + flips);
            td.switch_parents(&moves).unwrap();
            relabel_randomly(&mut td, &mut rng, flips / 2);
            proptest::prop_assert!(plan.patch(&td, td.len()).is_some());
            proptest::prop_assert_eq!(
                plan.structural_digest(),
                EpochPlan::compile_td(&td).structural_digest()
            );
            assert_children_match_the_epoch_lists(&plan, &net, &model, &mut rng, 2);
        }

        /// Columns reuse their slot storage from epoch to epoch, so
        /// nothing a slot held one epoch may leak into the next: one
        /// long-lived plan — patched between epochs, on two workers —
        /// answers 20 epochs exactly as a fresh compile does every
        /// epoch, while frequent-items bags empty and refill (local
        /// messages flip between `Some` and `None`), `Global(0.3)` loss
        /// drops tree children and broadcasts, and on a TD plan a
        /// relabel turns a slot from T to M and back.
        #[test]
        fn long_lived_columns_match_a_fresh_compile_every_epoch(
            seed in 0u64..1_000,
            tag in 0u8..2,
        ) {
            use crate::protocol::FreqProtocol;
            use td_frequent::items::ItemBag;
            use td_frequent::multipath::MultipathConfig;
            use td_quantiles::gradient::MinTotalLoad;
            use td_sketches::counter::ExactFactory;

            let tag = tag == 1;
            let (net, mut td) = topo(160 + seed, 120, 2);
            let model = Global::new(0.3);
            let long_config = RunnerConfig {
                workers: 2,
                parallel_min_nodes: 0,
                ..RunnerConfig::default()
            };
            let mut plan = if tag {
                EpochPlan::compile_tag(td.tree())
            } else {
                EpochPlan::compile_td(&td)
            };
            let (mut long_stats, mut fresh_stats) =
                (CommStats::new(net.len()), CommStats::new(net.len()));
            let (mut long_rng, mut fresh_rng) =
                (rng_from_seed(seed), rng_from_seed(seed));
            let mut switched: Option<NodeId> = None;
            let mut round_trips = 0;
            for epoch in 0..20u64 {
                if !tag && epoch > 0 {
                    match switched.take() {
                        None => {
                            let u = td.switchable_t_nodes()[0];
                            td.switch_to_m(u).unwrap();
                            switched = Some(u);
                        }
                        Some(u) => {
                            td.switch_to_t(u).unwrap();
                            round_trips += 1;
                        }
                    }
                    proptest::prop_assert!(plan.patch(&td, td.len()).is_some());
                }
                let values: Vec<u64> =
                    (0..net.len() as u64).map(|i| 1 + (i * (epoch + 3)) % 50).collect();
                let bags: Vec<ItemBag> = (0..net.len() as u64)
                    .map(|i| {
                        if (i + epoch).is_multiple_of(3) {
                            ItemBag::new()
                        } else {
                            ItemBag::from_counts([(i % 4, 1 + epoch % 3), (7, 2)])
                        }
                    })
                    .collect();
                let sum = ScalarProtocol::new(Sum::default(), &values);
                let freq = FreqProtocol::new(
                    MultipathConfig::new(0.01, 1.5, 1 << 20, ExactFactory),
                    MinTotalLoad::new(0.01, 2.25),
                    0.2,
                    &bags,
                );
                let mut set = QuerySet::new();
                set.register(&sum);
                set.register(&freq);
                let long = plan.run_set(
                    &set,
                    &net,
                    &model,
                    long_config,
                    epoch,
                    &mut long_stats,
                    &mut long_rng,
                );
                let fresh = if tag {
                    EpochPlan::compile_tag(td.tree()).run_set(
                        &set,
                        &net,
                        &model,
                        RunnerConfig::default(),
                        epoch,
                        &mut fresh_stats,
                        &mut fresh_rng,
                    )
                } else {
                    run_td_epoch_set(
                        &set,
                        &td,
                        &net,
                        &model,
                        RunnerConfig::default(),
                        epoch,
                        &mut fresh_stats,
                        &mut fresh_rng,
                    )
                };
                proptest::prop_assert_eq!(slot_record(&long), slot_record(&fresh), "epoch {}", epoch);
            }
            proptest::prop_assert_eq!(&long_stats, &fresh_stats);
            proptest::prop_assert!(tag || round_trips >= 9, "only {} T→M→T round trips", round_trips);
        }
    }
}
