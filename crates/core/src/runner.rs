//! One epoch of level-synchronized aggregation, split into **compile**
//! and **execute** phases.
//!
//! [`EpochPlan`] compiles a topology — a labeled [`TdTopology`] or a
//! plain TAG [`Tree`] — into **one step table**: the level-ordered
//! sender list (outermost level first), per-sender mode, tree parent
//! and height, per-link broadcast delivery lists flattened into one
//! table, and the switchability/subtree metadata the §4.2 adaptation
//! signals need. The paper's §4.1 graph has two extremes and both are
//! this table: synopsis diffusion (SD) is an all-`M` labeling, and the
//! pure-TAG baseline is an all-`T` table over an arbitrary
//! (unrestricted) tree, its levels the tree's depth runs and its
//! receiver table empty. Compilation also allocates the epoch arenas:
//! per-slot inbox slabs for tree envelopes and for heard broadcasts and
//! the flat `(node, query)` bundle-slot slab local messages are staged
//! in. A cached plan makes steady-state epochs
//! **schedule-recomputation-free** (no per-epoch height/subtree/level
//! sorts) and **growth-free** (inboxes and slabs keep their capacity
//! across epochs).
//!
//! ## Plan lifecycle: compile once, patch on adaptation
//!
//! [`crate::session::Session`] caches one plan per topology. While the
//! labeling holds still (`TdTopology::version` unchanged) the plan is
//! reused as-is. When §4.2 adaptation relabels vertices, the plan is
//! **patched in place** ([`EpochPlan::patch`]): the topology records
//! each mutation as a structured `TopologyDelta`, and the patch rewrites
//! only the touched schedule state — per-vertex mode, unicast parent,
//! switchability flags, and the `is M` bits of the flat broadcast table —
//! in O(|delta| · ring degree), reusing every arena (inbox slabs,
//! local-bundle slab, all free-lists) untouched. This works because the
//! step order, receiver-table layout, heights, and subtree sizes depend
//! only on the rings and the tree, never on the labeling, so a patched
//! plan is field-for-field identical to a fresh compile (pinned by
//! [`EpochPlan::structural_digest`] and a debug assertion in the session
//! cache).
//!
//! The same path absorbs **structural** deltas: a §4.1 parent switch (a
//! churn reroute via `apply_churn`, or an in-place `maintain_td`
//! round) preserves every vertex's depth, so the step order and
//! receiver table survive and the patch only rewrites the moved
//! vertices' unicast parents and re-derives heights/subtree sizes along
//! the switch endpoints' ancestor chains (O(|delta| · depth)). The
//! session falls back to a full [`EpochPlan::compile_td`] only when the
//! topology's bounded delta log no longer reaches back to the plan's
//! version — e.g. after the topology object itself was rebuilt around
//! a wholesale `maintain_tree` round. A TAG plan has no labeling and no
//! version: it is never patched.
//!
//! ## One step body, one level loop
//!
//! [`EpochPlan::run_set`] executes a query epoch over the table. What a
//! step does is written once, in two halves. **Process** builds the
//! step's envelope from its own inboxes and prices it: a tributary
//! (`T`) vertex merges its children's tree messages and finalizes at
//! its height; a delta (`M`) vertex converts arriving tree messages
//! (§5) and fuses the synopses it heard from the level above.
//! **Merge** puts the envelope on the air against the step's pre-drawn
//! loss outcome: a `T` envelope is unicast to the tree parent (with the
//! configured retransmissions), an `M` envelope is broadcast and every
//! `M`-labeled ring neighbor one level down that hears it will fold it
//! in. The base station evaluates whatever reaches its slot.
//!
//! Every sender of a level only writes to inboxes of strictly later
//! levels, so the loop runs level by level: it draws the level's loss
//! outcomes on the calling thread in step order, cuts the level into
//! `k` id-order **chunks**, processes chunk 0 in place and chunks
//! `1..k` on the scoped workers of the fan-out (`parallel.rs`), and
//! merges every step's effects in step order. Draw order and merge
//! order are therefore the same for every `k`, which is what makes any
//! worker count bit-identical — answers, accounting and the caller's
//! RNG stream. **Sequential execution is `k = 1`**: no fan-out is
//! built, so no thread, channel or job exists and the loop's "ship" and
//! "collect" ranges are empty; it is chosen whenever
//! [`RunnerConfig::workers`] resolves to 1 or the network is smaller
//! than [`RunnerConfig::parallel_min_nodes`].
//!
//! **The TAG base step.** A TAG tree's base station merges and
//! finalizes like any other tree vertex before it evaluates, so it
//! stays a step: the last one, a `T` step with no parent. It draws
//! nothing and records no send; its envelope goes straight to the base
//! slot, where the same base-station tail as a `T`-mode TD base
//! evaluates it.
//!
//! **Who contributed.** The exact contributor count — the ground truth
//! behind "% contributing" and the §4.2 adaptation signal — is not
//! carried in the envelopes. The loss outcomes are kept for the whole
//! epoch, and once the base station has evaluated, one backwards walk
//! over them marks every step whose send reaches the base: a sensor
//! contributes iff its own step is marked, because an envelope carries
//! its sender's data and everything the sender merged or fused.
//!
//! ## Arenas
//!
//! Envelope *parts* — count sketches and bundle `Vec`s — cycle through
//! the plan's free-lists (`Pools`): drawn when an envelope is built,
//! returned when it is consumed, so at steady state none is allocated.
//! What an epoch still allocates is the protocol payloads themselves
//! (one `Box` per local, finalized or converted message, plus whatever
//! the payload owns): 2.004 allocations per node-epoch on the repo
//! benchmark's 10 000-node tree and 2.21 on its 2 500-node delta mix.
//!
//! **Parked delivery.** An M vertex puts *one* message on the air. Its
//! finished envelope is parked once, in the `ParkedLevel` of its
//! level; each M neighbour that hears it gets the sender's slot pushed
//! on its multi-path inbox (in step order) and later fuses the envelope
//! *by reference*; when the next level — the only possible receivers —
//! has run, the level's parked envelopes go back to the free-lists.
//! Nothing is copied per receiver except a message adopted by a vertex
//! that has none of its own to fuse into (the base station). An all-`T`
//! plan pays for none of this: it has no multi-path inbox slab and its
//! levels never park.
//!
//! **Pool discipline.** `Pools` is the only place parts rest. With more
//! than one chunk the loop tops it up to the level's need before the
//! level runs, lends each worker chunk its share and takes back all a
//! chunk holds at the level's barrier, so the fill settles at the
//! deployment's lossless demand (what is in flight plus one level) and
//! stays there however envelopes cross chunk boundaries.
//!
//! The runner is **multi-query**: every link carries one *bundle*
//! holding a message slot per query registered in the epoch's
//! [`QuerySet`], so N concurrent aggregates cost one topology traversal
//! — one unicast/broadcast per node, one envelope, one
//! in-band count sketch, one set of adaptation extrema — instead of N.
//! Message payload accounting sums the per-query wire sizes; the
//! envelope overhead is charged once per link, not once per query.
//!
//! The one-shot entry points [`run_td_epoch_set`] / [`run_tag_epoch_set`]
//! compile a fresh plan and execute it once, so a standalone call and a
//! plan-reusing session run the identical code path and produce
//! bit-identical results.

use std::any::Any;
use std::sync::{Arc, OnceLock};

use crate::envelope::{MpEnvelope, TreeEnvelope, TREE_OVERHEAD_WORDS};
use crate::query::{ErasedMsg, QuerySet};
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
    /// Whether message accounting charges for the §4.2 adaptation fields
    /// (the in-band count sketch and the extremum reports). The
    /// non-adaptive baselines (TAG, SD) don't carry them.
    pub charge_adaptation_overhead: bool,
    /// How many chunks the level loop cuts a level into: `0` = one per
    /// available core, `1` = one chunk, no threads (sequential
    /// execution), `k > 1` = `k` chunks (the calling thread plus
    /// `k - 1` scoped workers). Any value produces bit-identical
    /// results — chunks are deterministic id-order runs of a level and
    /// every step's effects are merged back in step order.
    pub workers: usize,
    /// Node-count floor below which the level loop runs one chunk even
    /// when `workers > 1`: at small scales the per-level fan-out costs
    /// more than it saves. Safe to tune freely — the chunk count never
    /// changes results.
    pub parallel_min_nodes: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            tree_retransmit: Retransmit::default(),
            charge_adaptation_overhead: true,
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
        static CORES: OnceLock<usize> = OnceLock::new();
        match self.workers {
            0 => *CORES.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
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
    /// In-band estimate of the contributing count (what a real base
    /// station would see: exact tree counts, sketched delta counts).
    pub contributing_est: f64,
    /// Largest per-subtree non-contribution reports by switchable M
    /// vertices this epoch (TD expand signal).
    pub max_noncontrib: crate::envelope::ExtremaSet,
    /// Smallest such reports (TD shrink signal).
    pub min_noncontrib: crate::envelope::ExtremaSet,
}

impl std::fmt::Debug for SetEpochOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetEpochOutput")
            .field("queries", &self.outputs.len())
            .field("contributing", &self.contributing)
            .field("contributing_est", &self.contributing_est)
            .finish()
    }
}

/// One query's slot per link message: `bundle[i]` belongs to query `i`.
type Bundle = Vec<Option<ErasedMsg>>;

fn bundle_tree_words(set: &QuerySet<'_>, bundle: &Bundle) -> usize {
    bundle
        .iter()
        .enumerate()
        .filter_map(|(i, slot)| slot.as_ref().map(|m| set.query(i).tree_wire(m).words))
        .sum()
}

fn bundle_mp_wire(set: &QuerySet<'_>, bundle: &Bundle) -> (usize, usize) {
    bundle
        .iter()
        .enumerate()
        .filter_map(|(i, slot)| slot.as_ref().map(|m| set.query(i).mp_wire(m)))
        .fold((0, 0), |(b, w), wire| (b + wire.bytes, w + wire.words))
}

/// What one multi-path send costs on the air, `(bytes, words)`: the
/// bundled payloads plus — when charged — the adaptation overhead (the
/// RLE-coded count sketch and the extremum reports), once per link and
/// shared by every query in the bundle.
fn mp_send_size(set: &QuerySet<'_>, env: &MpEnvelope<Bundle>, charge: bool) -> (usize, usize) {
    let (payload_bytes, payload_words) =
        bundle_mp_wire(set, env.msg.as_ref().expect("bundle present"));
    let overhead_bytes = if charge {
        sketch_rle::encoded_size_bytes(&env.count_sketch) + 8 * crate::envelope::TOP_K_EXTREMA
    } else {
        0
    };
    (
        payload_bytes + overhead_bytes,
        payload_words + overhead_bytes.div_ceil(4),
    )
}

/// The envelope-part free-lists shared by every build/consume step: a
/// consumed envelope returns its count sketch (multi-path only) and its
/// bundle `Vec` here, and every envelope the plan constructs draws from
/// here first — so steady-state epochs allocate none of these parts
/// (the payloads inside a bundle are the protocols' and are still boxed
/// per message).
#[derive(Default)]
struct Pools {
    /// Recycled count sketches (invariant: cleared,
    /// [`crate::envelope::COUNT_SKETCH_BITMAPS`] bitmaps).
    sketches: Vec<FmSketch>,
    /// Recycled bundle `Vec`s (invariant: empty, capacity retained).
    bundles: Vec<Bundle>,
}

impl Pools {
    /// A cleared count sketch: recycled, or fresh during warm-up.
    fn sketch(&mut self) -> FmSketch {
        self.sketches.pop().unwrap_or_else(fresh_sketch)
    }

    /// An empty bundle `Vec`: recycled, or fresh during warm-up.
    fn bundle(&mut self) -> Bundle {
        self.bundles.pop().unwrap_or_default()
    }

    /// Top the free-lists up to a fanned-out level's whole need — one
    /// bundle per sender, one count sketch per M sender — before its
    /// chunks are lent their shares, so that no chunk depends on what
    /// another recycles meanwhile. Allocates only while the pool is below
    /// the deployment's lossless demand (what is in flight plus the level
    /// being run): loss only lowers that.
    fn ensure(&mut self, senders: usize, m_senders: usize) {
        fn top_up<T>(parts: &mut Vec<T>, need: usize, fresh: impl FnMut() -> T) {
            if parts.len() < need {
                parts.resize_with(need, fresh);
            }
        }
        top_up(&mut self.sketches, m_senders, fresh_sketch);
        top_up(&mut self.bundles, senders, Bundle::new);
    }

    /// Move a worker chunk's share of an [`ensure`](Self::ensure)d
    /// level into `to`, the free-list its worker draws from.
    fn lend(&mut self, to: &mut Pools, senders: usize, m_senders: usize) {
        fn move_tail<T>(from: &mut Vec<T>, to: &mut Vec<T>, count: usize) {
            to.extend(from.drain(from.len() - count..));
        }
        move_tail(&mut self.sketches, &mut to.sketches, m_senders);
        move_tail(&mut self.bundles, &mut to.bundles, senders);
    }

    /// Take back everything `from` holds — what the chunk recycled as
    /// well as what it was lent and did not need — leaving it empty.
    fn reclaim(&mut self, from: &mut Pools) {
        self.sketches.append(&mut from.sketches);
        self.bundles.append(&mut from.bundles);
    }
}

/// An empty count sketch of the width every pooled one has.
fn fresh_sketch() -> FmSketch {
    FmSketch::new(crate::envelope::COUNT_SKETCH_BITMAPS)
}

/// Return a consumed multi-path envelope's count sketch to the free-list.
fn recycle_sketch(pools: &mut Pools, mut sketch: FmSketch) {
    sketch.clear();
    pools.sketches.push(sketch);
}

/// Return a drained bundle `Vec` to the free-list (capacity retained).
fn recycle_bundle(pools: &mut Pools, mut bundle: Bundle) {
    bundle.clear();
    pools.bundles.push(bundle);
}

/// Recycle the pooled part of a consumed tree envelope: its bundle.
fn recycle_tree_env(pools: &mut Pools, env: TreeEnvelope<Bundle>) {
    if let Some(bundle) = env.msg {
        recycle_bundle(pools, bundle);
    }
}

/// Recycle every pooled part of a consumed multi-path envelope.
fn recycle_mp_env(pools: &mut Pools, env: MpEnvelope<Bundle>) {
    if let Some(bundle) = env.msg {
        recycle_bundle(pools, bundle);
    }
    recycle_sketch(pools, env.count_sketch);
}

/// Move one slot's staged local messages out of the slab into a bundle
/// drawn from the free-list (capacity retained across epochs).
fn take_local(staged: &mut [Option<ErasedMsg>], pools: &mut Pools) -> Bundle {
    let mut bundle = pools.bundle();
    bundle.extend(staged.iter_mut().map(Option::take));
    bundle
}

/// One level's **parked** broadcasts. An M sender puts one message on
/// the air, so its finished envelope is stored here once, every
/// receiver that hears it gets only the sender's slot in its inbox and
/// fuses the envelope *by reference*, and the whole level goes back to
/// the free-lists once the next level — its only possible receivers —
/// has run. No envelope is ever copied per receiver.
#[derive(Default)]
struct ParkedLevel {
    /// Slot of the level's first step: `envs[slot - first]`.
    first: usize,
    /// How many steps the level has.
    len: usize,
    /// Per step of the level: its envelope if it was an M sender. Empty
    /// until the level's first M sender parks, so an all-`T` level
    /// costs nothing.
    envs: Vec<Option<MpEnvelope<Bundle>>>,
}

impl ParkedLevel {
    /// Start holding the level whose steps are `first..first + len`.
    fn open(&mut self, first: usize, len: usize) {
        debug_assert!(self.envs.is_empty(), "previous level not recycled");
        self.first = first;
        self.len = len;
    }

    fn park(&mut self, slot: usize, env: MpEnvelope<Bundle>) {
        if self.envs.is_empty() {
            self.envs.resize_with(self.len, || None);
        }
        self.envs[slot - self.first] = Some(env);
    }

    /// The envelope the M sender at `slot` broadcast.
    fn get(&self, slot: u32) -> &MpEnvelope<Bundle> {
        self.envs[slot as usize - self.first]
            .as_ref()
            .expect("a heard broadcast stays parked until its receivers' level has run")
    }

    /// Return every parked envelope's parts to the free-lists.
    fn recycle_into(&mut self, pools: &mut Pools) {
        for env in self.envs.drain(..).flatten() {
            recycle_mp_env(pools, env);
        }
    }
}

/// Merge children + own local bundle into a tree envelope and finalize
/// it. Drains `children` in delivery order, leaving its capacity in the
/// arena; their bundles go back to the free-list.
fn build_tree_envelope_set(
    set: &QuerySet<'_>,
    u: NodeId,
    height: u32,
    local: Bundle,
    children: &mut Vec<TreeEnvelope<Bundle>>,
    pools: &mut Pools,
) -> TreeEnvelope<Bundle> {
    let mut env = TreeEnvelope::local(u, Some(local));
    for mut child in children.drain(..) {
        env.absorb_counts(&child);
        let mut child_bundle = child
            .msg
            .take()
            .expect("bundle envelopes always carry a bundle");
        let own = env.msg.as_mut().expect("just constructed with a bundle");
        for (i, from) in child_bundle.drain(..).enumerate() {
            let Some(from) = from else { continue };
            match &mut own[i] {
                Some(acc) => set.query(i).merge_tree(acc, &from),
                slot @ None => *slot = Some(from),
            }
        }
        recycle_bundle(pools, child_bundle);
    }
    let own = env.msg.as_mut().expect("constructed with a bundle");
    for (i, slot) in own.iter_mut().enumerate() {
        if let Some(m) = slot.take() {
            *slot = Some(set.query(i).finalize_tree(u, height, m));
        }
    }
    env.root = u;
    env
}

/// Convert + fuse everything an M vertex holds into one envelope,
/// reporting its subtree non-contribution when switchable. Drains both
/// inboxes in delivery order, leaving their capacity in the arena: the
/// tree envelopes' bundles go back to the free-list, the broadcasts
/// named by `mp_heard` are fused by reference out of `parked` (the level
/// above) and stay there.
#[allow(clippy::too_many_arguments)]
fn build_mp_envelope_set(
    set: &QuerySet<'_>,
    u: NodeId,
    count_sketch: FmSketch,
    subtree_size: u64,
    switchable_m: bool,
    local: Bundle,
    tree_msgs: &mut Vec<TreeEnvelope<Bundle>>,
    mp_heard: &mut Vec<u32>,
    parked: &ParkedLevel,
    pools: &mut Pools,
) -> MpEnvelope<Bundle> {
    let mut env = MpEnvelope::local_pooled(count_sketch, u, Some(local));
    // §4.2: a switchable M vertex is the root of a unique (all-tree)
    // subtree; it reports how many of its subtree's nodes are missing.
    if switchable_m {
        // Expected contributors below u: its whole static subtree minus u
        // itself (u's own contribution is in the local envelope already).
        let expected = subtree_size.saturating_sub(1);
        let received: u64 = tree_msgs.iter().map(|e| e.count).sum();
        env.report_noncontrib(u, expected.saturating_sub(received));
    }
    for mut te in tree_msgs.drain(..) {
        env.absorb_tree_counts(&te);
        let bundle = te.msg.take().expect("bundle envelopes carry a bundle");
        let own = env.msg.as_mut().expect("constructed with a bundle");
        for (i, slot) in bundle.iter().enumerate() {
            let Some(m) = slot else { continue };
            let converted = set.query(i).convert(te.root, m);
            match &mut own[i] {
                Some(acc) => set.query(i).fuse(acc, &converted),
                empty @ None => *empty = Some(converted),
            }
        }
        recycle_bundle(pools, bundle);
    }
    for sender in mp_heard.drain(..) {
        let heard = parked.get(sender);
        env.fuse_counts(heard);
        let bundle = heard.msg.as_ref().expect("bundle envelopes carry a bundle");
        let own = env.msg.as_mut().expect("constructed with a bundle");
        for (i, from) in bundle.iter().enumerate() {
            let Some(from) = from else { continue };
            match &mut own[i] {
                Some(acc) => set.query(i).fuse(acc, from),
                // Nothing of its own to fuse into (the base station, a
                // node without data): the one place a message is copied.
                slot @ None => *slot = Some(from.clone()),
            }
        }
    }
    env
}

/// Evaluate every query over the tree bundles that reached a tree-mode
/// base station. Drains the envelopes: each bundle slot is moved into
/// its query's evaluation, never cloned; the emptied bundles go back to
/// the free-list.
fn evaluate_tree_base(
    set: &QuerySet<'_>,
    children: &mut Vec<TreeEnvelope<Bundle>>,
    base_height: u32,
    pools: &mut Pools,
) -> Vec<Box<dyn Any>> {
    let outputs = (0..set.len())
        .map(|i| {
            let parts: Vec<ErasedMsg> = children
                .iter_mut()
                .filter_map(|env| {
                    env.msg.as_mut().expect("bundle envelopes carry a bundle")[i].take()
                })
                .collect();
            set.query(i).evaluate(parts, None, base_height)
        })
        .collect();
    for env in children.drain(..) {
        recycle_tree_env(pools, env);
    }
    outputs
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
    /// Tree parent of a T step; `None` for M steps (they broadcast) and
    /// for the TAG base step (it sends nothing).
    parent: Option<NodeId>,
    /// Static subtree size (the M-step non-contribution baseline).
    subtree_size: u32,
    /// Whether the vertex is a switchable M vertex under this labeling.
    switchable_m: bool,
    /// Range into the flat receiver table. Compiled for every step of a
    /// TD plan — ring links are label-independent, so the table layout
    /// survives relabeling and a patch only flips per-entry `is M`
    /// flags — but only M steps read their range (T steps unicast to
    /// `parent`). Empty on a TAG plan.
    recv_start: u32,
    recv_end: u32,
}

impl Step {
    fn recv_range(&self) -> std::ops::Range<usize> {
        self.recv_start as usize..self.recv_end as usize
    }
}

/// How many of `steps` are M senders (each draws a count sketch).
fn m_senders(steps: &[Step]) -> usize {
    steps.iter().filter(|s| s.mode == Mode::M).count()
}

/// The compiled schedule: one step table for every scheme.
///
/// The step order (outermost level first, id order within a level), the
/// receiver-table layout, and the `step_of` index depend only on the
/// rings and the tree — never on the labeling — so a label switch
/// invalidates nothing structural: [`EpochPlan::patch`] rewrites the
/// per-vertex mode/parent/switchability fields and the touched `is M`
/// receiver flags in place and the result is field-for-field identical
/// to compiling fresh at the new version.
struct Schedule {
    /// Topology version a TD plan currently matches (advanced by
    /// [`EpochPlan::patch`] without recompiling); `None` for a TAG
    /// plan, whose tree carries no labeling to track.
    version: Option<u64>,
    /// Senders, outermost level first, id order within a level. On a
    /// TAG plan the base station is the last step.
    steps: Vec<Step>,
    /// Flat broadcast delivery table: `(receiver, receiver is M)`,
    /// indexed by each step's `recv_start..recv_end`.
    receivers: Vec<(NodeId, bool)>,
    /// `step_of[node.index()]` = index into `steps`, or `NO_STEP` for
    /// the TD base station and disconnected nodes. The way from a
    /// unicast parent, a broadcast receiver or a relabeled vertex to
    /// its schedule entry.
    step_of: Vec<u32>,
    /// Non-empty step ranges per level, outermost first:
    /// `steps[start..end]` is one level's senders — a ring level of a
    /// TD plan, an equal-depth run of a TAG tree. Every step in a range
    /// only writes to inboxes of strictly later ranges (tree parents
    /// and broadcast receivers sit exactly one level down), so a range
    /// can be cut into chunks that run side by side. Depends only on
    /// the rings (or the tree's depths), so patching never touches it.
    levels: Vec<(u32, u32)>,
    base_mode: Mode,
    base_height: u32,
    base_subtree: u64,
    base_switchable_m: bool,
}

/// `step_of` marker for nodes without a schedule entry.
const NO_STEP: u32 = u32::MAX;

impl Schedule {
    /// The arena slot of the base station's inboxes: one past the last
    /// step slot.
    fn base_slot(&self) -> usize {
        self.steps.len()
    }

    /// The arena slot of `u`: its step index, or the base slot for the
    /// TD base station (the only slot-bearing node without a step —
    /// every unicast parent and broadcast receiver is connected).
    fn slot_or_base(&self, u: NodeId) -> usize {
        match self.step_of[u.index()] {
            NO_STEP => self.base_slot(),
            s => s as usize,
        }
    }

    /// The unicast parent `u`'s step carries under `mode`: its current
    /// tree parent for a T vertex, none for an M vertex.
    fn unicast_parent(topo: &TdTopology, u: NodeId, mode: Mode) -> Option<NodeId> {
        match mode {
            Mode::T => Some(
                topo.tree()
                    .parent(u)
                    .expect("connected non-base T vertex has a parent"),
            ),
            Mode::M => None,
        }
    }

    /// Bring every schedule field that depends on `u`'s label in line
    /// with `topo`'s current labeling: `u`'s own step (mode, unicast
    /// parent, switchability), the `is M` flag of every broadcast-table
    /// entry naming `u` (they live in the ranges of `u`'s ring sources,
    /// one level up), and the switchability of the vertices `u`
    /// broadcasts to (they have `u` as a ring source).
    fn apply_relabel(&mut self, topo: &TdTopology, u: NodeId) {
        let rings = topo.rings();
        let mode = topo.mode(u);
        if u == BASE_STATION {
            self.base_mode = mode;
            self.base_switchable_m = topo.is_switchable_m(BASE_STATION);
        } else {
            let step = &mut self.steps[self.step_of[u.index()] as usize];
            step.mode = mode;
            step.parent = Self::unicast_parent(topo, u, mode);
            step.switchable_m = topo.is_switchable_m(u);
        }
        let is_m = mode == Mode::M;
        for &s in rings.sources(u) {
            let range = self.steps[self.step_of[s.index()] as usize].recv_range();
            for entry in &mut self.receivers[range] {
                if entry.0 == u {
                    entry.1 = is_m;
                }
            }
        }
        for &r in rings.receivers(u) {
            if r == BASE_STATION {
                self.base_switchable_m = topo.is_switchable_m(BASE_STATION);
            } else {
                let step = &mut self.steps[self.step_of[r.index()] as usize];
                step.switchable_m = topo.is_switchable_m(r);
            }
        }
    }

    /// Bring `u`'s unicast parent in line with the topology's current
    /// tree (the reparent counterpart of
    /// [`apply_relabel`](Self::apply_relabel)).
    fn apply_reparent(&mut self, topo: &TdTopology, u: NodeId) {
        let step = &mut self.steps[self.step_of[u.index()] as usize];
        step.parent = Self::unicast_parent(topo, u, step.mode);
    }

    /// Re-derive heights and subtree sizes **incrementally** after a
    /// batch of parent switches: only the vertices on the (final-tree)
    /// ancestor chains of the switch endpoints can have changed, so
    /// recompute exactly that closure bottom-up from the children's
    /// cached step values — O(|delta| · depth) against the O(n log n)
    /// full passes a compile runs. Parent switches preserve depth
    /// (§4.1: tree parents sit one ring level down), so the step order
    /// and receiver table stay valid and children always carry correct
    /// values by the time their ancestor is recomputed (the closure is
    /// processed outermost ring first, and any child whose value
    /// changed is itself on one of the chains).
    ///
    /// `seeds` are the chain starting points: for every recorded
    /// [`Reparent`] event, its node and both parent endpoints. Walking
    /// *final-tree* chains from all of them covers every intermediate
    /// tree's affected ancestors too: an old-chain vertex either kept
    /// its own parent (so it is on the final chain of the endpoint
    /// below it) or was itself reparented (so it seeds its own event's
    /// chains).
    fn refresh_structure(&mut self, topo: &TdTopology, seeds: &[NodeId]) {
        let tree = topo.tree();
        let rings = topo.rings();
        let mut seen = vec![false; self.step_of.len()];
        let mut affected: Vec<NodeId> = Vec::new();
        for &s in seeds {
            let mut cur = Some(s);
            while let Some(v) = cur {
                if std::mem::replace(&mut seen[v.index()], true) {
                    break; // the rest of this chain is already queued
                }
                affected.push(v);
                cur = tree.parent(v);
            }
        }
        // Children before parents: outermost ring level first (depth ==
        // ring level for §4.1-restricted trees), ids for determinism.
        affected.sort_unstable_by_key(|v| {
            (
                std::cmp::Reverse(rings.level(*v).expect("scheduled vertices are connected")),
                v.0,
            )
        });
        for &v in &affected {
            let mut height = 1u32;
            let mut subtree = 1u64;
            for &c in tree.children(v) {
                let cs = &self.steps[self.step_of[c.index()] as usize];
                height = height.max(cs.height + 1);
                subtree += cs.subtree_size as u64;
            }
            if v == BASE_STATION {
                self.base_height = height;
                self.base_subtree = subtree;
            } else {
                let step = &mut self.steps[self.step_of[v.index()] as usize];
                step.height = height;
                step.subtree_size = subtree as u32;
            }
        }
    }
}

/// One epoch's loss outcomes. Drawn level by level on the calling
/// thread, in step order, before any of the level's steps runs — the
/// caller's RNG therefore ends an epoch in the same state however many
/// chunks a level is cut into — and kept for the whole epoch, because
/// once the last level has run the same outcomes say which sensors
/// reached the base station ([`Draws::contributing`]). Reused from
/// epoch to epoch.
#[derive(Default)]
struct Draws {
    /// Per slot: the unicast outcome of a sending T step (`None` for M
    /// steps and the TAG base step).
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

    /// Draw every outcome of the level `steps[level]`. An M step draws
    /// for every receiver, M or not — which receivers count is the
    /// labeling's business, not the channel's.
    #[allow(clippy::too_many_arguments)]
    fn draw<M: LossModel, R: rand::Rng + ?Sized>(
        &mut self,
        sched: &Schedule,
        level: std::ops::Range<usize>,
        net: &Network,
        model: &M,
        retransmit: Retransmit,
        epoch: u64,
        rng: &mut R,
    ) {
        for slot in level {
            let step = &sched.steps[slot];
            match step.mode {
                Mode::T => {
                    self.outcomes[slot] = step
                        .parent
                        .map(|p| unicast(model, retransmit, step.node, p, net, epoch, rng));
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
    ///   parent's slot is reached; the TAG base step (no parent) hands
    ///   its envelope straight to the base slot;
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
                Mode::T => match step.parent {
                    None => true,
                    Some(p) => {
                        self.outcomes[slot].is_some_and(|o| o.delivered)
                            && self.reached[sched.slot_or_base(p)]
                    }
                },
                Mode::M => {
                    let range = step.recv_range();
                    sched.receivers[range.clone()]
                        .iter()
                        .zip(&self.delivered[range])
                        .any(|(&(r, is_m), &d)| d && is_m && self.reached[sched.slot_or_base(r)])
                }
            };
            self.reached[slot] = reached;
            count += usize::from(reached && !step.node.is_base());
        }
        count
    }
}

/// A run of consecutive **schedule slots** of the arena slabs — tree
/// inboxes, multi-path inboxes, staged local messages — borrowed as one
/// piece. The level loop only ever cuts slots off the front: a level
/// off the slots that have not run yet, a chunk off the level. What is
/// left behind the level being run is exactly what that level may
/// write to.
struct Slabs<'a> {
    /// Slot of the first entry: `tree[slot - first]`.
    first: usize,
    /// Queries per slot: `locals[(slot - first) * q..][..q]`.
    q: usize,
    tree: &'a mut [Vec<TreeEnvelope<Bundle>>],
    /// Empty on a plan compiled without multi-path state (TAG).
    mp: &'a mut [Vec<u32>],
    locals: &'a mut [Option<ErasedMsg>],
}

impl<'a> Slabs<'a> {
    fn len(&self) -> usize {
        self.tree.len()
    }

    /// Cut the first `len` slots off, leaving the rest in `self`.
    fn take_front(&mut self, len: usize) -> Slabs<'a> {
        let (tree, tree_rest) = std::mem::take(&mut self.tree).split_at_mut(len);
        let mp = std::mem::take(&mut self.mp);
        let (mp, mp_rest) = mp.split_at_mut(len.min(mp.len()));
        let (locals, locals_rest) = std::mem::take(&mut self.locals).split_at_mut(len * self.q);
        let front = Slabs {
            first: self.first,
            q: self.q,
            tree,
            mp,
            locals,
        };
        *self = Slabs {
            first: self.first + len,
            q: self.q,
            tree: tree_rest,
            mp: mp_rest,
            locals: locals_rest,
        };
        front
    }
}

/// The reusable execution arenas: cleared, never shrunk, so steady-state
/// epochs run without inbox or slab growth.
///
/// Inboxes and the local-message slab are indexed by **schedule slot**
/// (a step's position in the level-ordered step list; the base station
/// gets the one extra slot past the last step), not by node id. Slots
/// are level-contiguous by construction, so an epoch's walk over the
/// schedule touches the slabs strictly left to right — the
/// cache-locality fix that makes plan reuse beat rebuild — and a
/// chunk's slots form one contiguous block ([`Slabs`]).
struct Arenas {
    /// Per-slot tree-envelope inboxes, drained every epoch.
    tree_inbox: Vec<Vec<TreeEnvelope<Bundle>>>,
    /// Per-slot multi-path inboxes, drained every epoch: the slots of
    /// the M senders whose broadcast this slot heard, in delivery order.
    /// The envelopes themselves stay parked. Empty on a TAG plan.
    mp_inbox: Vec<Vec<u32>>,
    /// The parked broadcasts of the level above the one being run: what
    /// the running level's `mp_inbox` entries point into. Behind an
    /// `Arc` (allocated once, here) only so that a fan-out can hand its
    /// workers a handle for the length of a level; with one chunk
    /// nothing ever clones it.
    parked_prev: Arc<ParkedLevel>,
    /// The parked broadcasts of the level being run; it becomes
    /// `parked_prev` when the level is done.
    parked_cur: Arc<ParkedLevel>,
    /// Flat local-message slab indexed by `(slot, query)`: entry
    /// `slot * set.len() + query` stages the node's local tree or
    /// multi-path message until its send step assembles the bundle.
    locals: Vec<Option<ErasedMsg>>,
    /// The envelope-part free-lists (count sketches, bundle `Vec`s).
    /// Every envelope the plan builds draws from here and every consumed
    /// envelope returns here, so steady-state epochs allocate no
    /// per-envelope parts.
    pools: Pools,
    /// The epoch's loss outcomes, drawn level by level.
    draws: Draws,
}

impl Arenas {
    fn new(slots: usize, multipath: bool) -> Arenas {
        Arenas {
            tree_inbox: (0..slots).map(|_| Vec::new()).collect(),
            mp_inbox: (0..if multipath { slots } else { 0 })
                .map(|_| Vec::new())
                .collect(),
            parked_prev: Arc::default(),
            parked_cur: Arc::default(),
            locals: Vec::new(),
            pools: Pools::default(),
            draws: Draws::default(),
        }
    }
}

/// A compiled, reusable epoch schedule plus its execution arenas.
///
/// Compile once per topology (version) with [`EpochPlan::compile_td`] /
/// [`EpochPlan::compile_tag`], then call [`EpochPlan::run_set`] every
/// epoch. Steady-state epochs perform zero schedule recomputation (no
/// height/subtree/level passes) and no per-node inbox growth: the
/// tree/multipath inbox slabs and the `(node, query)` local-bundle slab
/// keep their capacity across epochs.
pub struct EpochPlan {
    sched: Schedule,
    arenas: Arenas,
}

impl EpochPlan {
    /// Compile the level-ordered schedule of a labeled Tributary-Delta
    /// topology (SD is the all-multipath special case).
    pub fn compile_td(topo: &TdTopology) -> EpochPlan {
        let rings = topo.rings();
        let tree = topo.tree();
        let heights = tree.heights();
        let subtree_sizes = tree.subtree_sizes();
        let n = rings.len();
        let mut steps = Vec::new();
        let mut receivers = Vec::new();
        let mut step_of = vec![NO_STEP; n];
        let mut levels = Vec::new();
        for level in (1..=rings.max_level()).rev() {
            let level_start = steps.len() as u32;
            for u in rings.nodes_at_level(level) {
                let mode = topo.mode(u);
                // The receiver range is compiled for every vertex (the
                // ring links never change) so that a later T→M patch
                // finds its broadcast list already in place.
                let recv_start = receivers.len() as u32;
                for &r in rings.receivers(u) {
                    receivers.push((r, topo.mode(r) == Mode::M));
                }
                step_of[u.index()] = steps.len() as u32;
                steps.push(Step {
                    node: u,
                    mode,
                    height: heights[u.index()],
                    parent: Schedule::unicast_parent(topo, u, mode),
                    subtree_size: subtree_sizes[u.index()],
                    switchable_m: mode == Mode::M && topo.is_switchable_m(u),
                    recv_start,
                    recv_end: receivers.len() as u32,
                });
            }
            if steps.len() as u32 > level_start {
                levels.push((level_start, steps.len() as u32));
            }
        }
        // One slot per step plus the base station's.
        let slots = steps.len() + 1;
        EpochPlan {
            sched: Schedule {
                version: Some(topo.version()),
                steps,
                receivers,
                step_of,
                levels,
                base_mode: topo.mode(BASE_STATION),
                base_height: heights[BASE_STATION.index()],
                base_subtree: subtree_sizes[BASE_STATION.index()] as u64,
                base_switchable_m: topo.is_switchable_m(BASE_STATION),
            },
            arenas: Arenas::new(slots, true),
        }
    }

    /// Compile the bottom-up schedule of a pure-TAG spanning tree
    /// (parents may be at any lower level — no ring restriction) into
    /// the same step table: every step `T`, the levels the tree's
    /// equal-depth runs (a parent is exactly one depth up, so each run
    /// only writes to later runs), no receiver table, and the base
    /// station as the last step — it merges and finalizes like any tree
    /// vertex, sends nothing, and hands its envelope to the base slot.
    pub fn compile_tag(tree: &Tree) -> EpochPlan {
        let heights = tree.heights();
        let subtree_sizes = tree.subtree_sizes();
        let n = tree.len();
        let order = tree.bottom_up_order();
        let mut steps: Vec<Step> = Vec::with_capacity(order.len());
        let mut step_of = vec![NO_STEP; n];
        let mut levels: Vec<(u32, u32)> = Vec::new();
        for u in order {
            let at = steps.len() as u32;
            match levels.last_mut() {
                Some((start, end)) if tree.depth(steps[*start as usize].node) == tree.depth(u) => {
                    *end = at + 1
                }
                _ => levels.push((at, at + 1)),
            }
            step_of[u.index()] = at;
            steps.push(Step {
                node: u,
                mode: Mode::T,
                height: heights[u.index()],
                parent: tree.parent(u),
                subtree_size: subtree_sizes[u.index()],
                switchable_m: false,
                recv_start: 0,
                recv_end: 0,
            });
        }
        let slots = steps.len() + 1;
        EpochPlan {
            sched: Schedule {
                version: None,
                steps,
                receivers: Vec::new(),
                step_of,
                levels,
                base_mode: Mode::T,
                base_height: heights[BASE_STATION.index()],
                base_subtree: subtree_sizes[BASE_STATION.index()] as u64,
                base_switchable_m: false,
            },
            arenas: Arenas::new(slots, false),
        }
    }

    /// Size of the arena's count-sketch free-list (introspection for
    /// tests and benches: after a warm-up epoch the pool holds every
    /// recycled sketch, and steady-state epochs neither grow nor drain
    /// it below the per-epoch working need).
    pub fn recycled_sketches(&self) -> usize {
        self.arenas.pools.sketches.len()
    }

    /// Size of the arena's bundle-`Vec` free-list (same steady-state
    /// introspection as [`recycled_sketches`](Self::recycled_sketches)).
    pub fn recycled_bundles(&self) -> usize {
        self.arenas.pools.bundles.len()
    }

    /// The topology version a TD plan currently matches (`None` for
    /// TAG plans, whose tree never changes). Advanced by
    /// [`patch`](Self::patch) without recompiling.
    pub fn compiled_version(&self) -> Option<u64> {
        self.sched.version
    }

    /// Update the compiled TD schedule **in place** to match `topo`'s
    /// current labeling *and tree*, replaying the topology's recorded
    /// [`td_topology::td::TopologyDelta`]s instead of recompiling. Label switches
    /// rewrite only the relabeled vertices' steps (mode, unicast
    /// parent, switchability), the broadcast-table `is M` flags naming
    /// them, and their ring neighbors' switchability — O(|delta| ·
    /// degree) work. Parent switches (churn reroutes, in-place
    /// maintenance rounds) rewrite the moved vertices' unicast parents
    /// and re-derive heights and subtree sizes over the switch
    /// endpoints' ancestor chains — O(|delta| · depth) — which is
    /// enough because §4.1 parent switches preserve every vertex's
    /// depth, so the step order and receiver-table layout survive. In
    /// both cases every arena (inbox slabs, local-bundle slab, all
    /// free-lists) is reused untouched, and the patched schedule is
    /// field-for-field identical to [`compile_td`](Self::compile_td) at
    /// the new version.
    ///
    /// Returns `Some(touched)` — the number of **distinct** vertices
    /// whose mode or parent was rewritten (0 when the plan already
    /// matched `topo.version()`) — when the plan now matches the
    /// topology. Returns `None` — caller must recompile — when the plan
    /// is a TAG plan, the delta log no longer reaches back to the
    /// plan's version (e.g. the topology object itself was rebuilt), or
    /// more than `max_relabels` **distinct** vertices changed (past
    /// that point a fresh compile is cheaper than chasing
    /// neighborhoods — a vertex switched back and forth counts once,
    /// matching the actual patch work). This is the single home of the
    /// patch-eligibility rule; callers only pick the budget.
    pub fn patch(&mut self, topo: &TdTopology, max_relabels: usize) -> Option<usize> {
        let sched = &mut self.sched;
        let version = sched.version?;
        if version == topo.version() {
            return Some(0);
        }
        let deltas = topo.deltas_since(version)?;
        // Collect the touched vertices once; the final state is read
        // straight from `topo`, so replay order is irrelevant and a
        // vertex switched back and forth costs a single pass — and is
        // budgeted as one, since the budget bounds patch work.
        let mut relabeled: Vec<NodeId> = Vec::new();
        let mut reparents: Vec<td_topology::td::Reparent> = Vec::new();
        for d in deltas {
            relabeled.extend(d.relabeled.iter().map(|r| r.node));
            reparents.extend(d.reparented.iter().copied());
        }
        relabeled.sort_unstable_by_key(|u| u.0);
        relabeled.dedup();
        let mut moved: Vec<NodeId> = reparents.iter().map(|r| r.node).collect();
        moved.sort_unstable_by_key(|u| u.0);
        moved.dedup();
        let distinct = {
            let mut all = relabeled.clone();
            all.extend(moved.iter().copied());
            all.sort_unstable_by_key(|u| u.0);
            all.dedup();
            all.len()
        };
        if distinct > max_relabels {
            return None;
        }
        for &u in &relabeled {
            sched.apply_relabel(topo, u);
        }
        if !reparents.is_empty() {
            for &u in &moved {
                sched.apply_reparent(topo, u);
            }
            let seeds: Vec<NodeId> = reparents
                .iter()
                .flat_map(|r| [r.node, r.from, r.to])
                .collect();
            sched.refresh_structure(topo, &seeds);
        }
        sched.version = Some(topo.version());
        Some(distinct)
    }

    /// A deterministic digest of everything structural: the full
    /// compiled schedule (every step field, the receiver table, the
    /// step index, the base-station fields, the version) plus the arena
    /// *layout* (node count, inbox-slab shape) — but not the free-list
    /// fill levels, which legitimately differ between a warmed-up plan
    /// and a fresh compile. Two plans with equal digests execute epochs
    /// bit-identically; the patch tests (and a debug assertion in the
    /// session cache) compare patched plans against fresh compiles
    /// through this.
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
            put(s.parent.map_or(u64::MAX, |p| p.0 as u64));
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
        put(mode_tag(sched.base_mode));
        put(sched.base_height as u64);
        put(sched.base_subtree);
        put(sched.base_switchable_m as u64);
        put(sched.step_of.len() as u64);
        put(self.arenas.tree_inbox.len() as u64);
        put(self.arenas.mp_inbox.len() as u64);
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
        let exec = Exec {
            sched: &self.sched,
            set,
            charge: config.charge_adaptation_overhead,
        };
        let arenas = &mut self.arenas;
        exec.stage(arenas);
        // Any chunk count is bit-identical (draws and merges happen in
        // step order regardless), so this is purely a performance
        // decision.
        let workers = config.effective_workers();
        let retransmit = config.tree_retransmit;
        if workers <= 1 || self.sched.step_of.len() < config.parallel_min_nodes {
            exec.run_levels(arenas, net, model, retransmit, epoch, stats, rng, None);
        } else {
            std::thread::scope(|scope| {
                let fan = parallel::FanOut::spawn(scope, exec, workers - 1);
                exec.run_levels(arenas, net, model, retransmit, epoch, stats, rng, Some(fan));
            });
        }
        let sw = phase::stopwatch();
        let out = exec.finish(arenas);
        phase::record(Phase::Merge, sw);
        out
    }
}

mod parallel;

/// What a step put on the air: the product of [`Exec::process`], applied
/// by [`Exec::merge`].
enum Sent {
    /// A finalized tree envelope and its size in words.
    Tree(TreeEnvelope<Bundle>, usize),
    /// A broadcast envelope and its size as `(bytes, words)`.
    Mp(MpEnvelope<Bundle>, usize, usize),
}

/// What every step of an epoch shares, on whichever thread it runs.
#[derive(Clone, Copy)]
struct Exec<'a, 'e> {
    sched: &'a Schedule,
    set: &'a QuerySet<'e>,
    /// Whether sends are charged the §4.2 adaptation overhead.
    charge: bool,
}

impl Exec<'_, '_> {
    /// Stage every node's local messages (slot order; no RNG draws).
    fn stage(&self, arenas: &mut Arenas) {
        let q = self.set.len();
        let slots = arenas.tree_inbox.len();
        arenas.locals.clear();
        arenas.locals.resize_with(slots * q, || None);
        let mut stage = |slot: usize, u: NodeId, mode: Mode| {
            let staged = &mut arenas.locals[slot * q..(slot + 1) * q];
            for (local, query) in staged.iter_mut().zip(self.set.queries()) {
                *local = match mode {
                    Mode::T => query.local_tree(u),
                    Mode::M => query.local_mp(u),
                };
            }
        };
        for (slot, step) in self.sched.steps.iter().enumerate() {
            stage(slot, step.node, step.mode);
        }
        // A tree-mode base station evaluates its children's bundles
        // directly and contributes no local data, so only an M base
        // stages one.
        if self.sched.base_mode == Mode::M {
            stage(self.sched.base_slot(), BASE_STATION, Mode::M);
        }
    }

    /// The first half of a step: build the envelope of the sender at
    /// `slot` out of its own arena state (`own` holds its slot) and
    /// price it. `above` is the parked level above the sender's. Touches
    /// nothing another step of the level can see, so the steps of a
    /// level may be processed in any order, on any thread.
    fn process(
        &self,
        own: &mut Slabs<'_>,
        slot: usize,
        above: &ParkedLevel,
        pools: &mut Pools,
    ) -> Sent {
        let step = &self.sched.steps[slot];
        let i = slot - own.first;
        let local = take_local(&mut own.locals[i * own.q..(i + 1) * own.q], pools);
        match step.mode {
            Mode::T => {
                let env = build_tree_envelope_set(
                    self.set,
                    step.node,
                    step.height,
                    local,
                    &mut own.tree[i],
                    pools,
                );
                let payload =
                    bundle_tree_words(self.set, env.msg.as_ref().expect("bundle present"));
                let overhead = if self.charge { TREE_OVERHEAD_WORDS } else { 0 };
                Sent::Tree(env, payload + overhead)
            }
            Mode::M => {
                let count_sketch = pools.sketch();
                let env = build_mp_envelope_set(
                    self.set,
                    step.node,
                    count_sketch,
                    step.subtree_size as u64,
                    step.switchable_m,
                    local,
                    &mut own.tree[i],
                    &mut own.mp[i],
                    above,
                    pools,
                );
                let (bytes, words) = mp_send_size(self.set, &env, self.charge);
                Sent::Mp(env, bytes, words)
            }
        }
    }

    /// The second half of a step: put what the sender at `slot` built on
    /// the air against its pre-drawn outcome — record the send, deliver
    /// a tree envelope to its parent's inbox (or recycle a lost one),
    /// park a broadcast in `airing` and hand its slot to every M
    /// receiver that heard it. `below` is every slot after the running
    /// level. Called in step order — this is what pins any chunk count
    /// bit-identical: `CommStats` records and inbox pushes replay one
    /// sequence, so f64 accumulation order and envelope delivery order
    /// never change.
    #[allow(clippy::too_many_arguments)]
    fn merge(
        &self,
        slot: usize,
        sent: Sent,
        draws: &Draws,
        below: &mut Slabs<'_>,
        airing: &mut ParkedLevel,
        stats: &mut CommStats,
        pools: &mut Pools,
    ) {
        let sched = self.sched;
        let step = &sched.steps[slot];
        match sent {
            Sent::Tree(env, words) => {
                let dest = match step.parent {
                    // The TAG base step: nothing goes on the air.
                    None => sched.base_slot(),
                    Some(parent) => {
                        let outcome =
                            draws.outcomes[slot].expect("a sending T step drew its unicast");
                        stats.record_send(
                            step.node,
                            words * 4,
                            words,
                            outcome.attempts_used as u64,
                        );
                        if !outcome.delivered {
                            recycle_tree_env(pools, env);
                            return;
                        }
                        sched.slot_or_base(parent)
                    }
                };
                below.tree[dest - below.first].push(env);
            }
            Sent::Mp(env, bytes, words) => {
                stats.record_send(step.node, bytes, words, 1);
                // One message on the air: every M neighbour that hears
                // it is handed the sender's slot, not a copy.
                let range = step.recv_range();
                let heard = &draws.delivered[range.clone()];
                for (&(r, is_m), &d) in sched.receivers[range].iter().zip(heard) {
                    if d && is_m {
                        below.mp[sched.slot_or_base(r) - below.first].push(slot as u32);
                    }
                }
                airing.park(slot, env);
            }
        }
    }

    /// The one level loop. Per level: draw its loss outcomes in step
    /// order, cut it into `k = min(workers, level length)` id-order
    /// chunks (the first `len % k` one step longer — chunking never
    /// affects results, only load balance), ship chunks `1..k` to the
    /// fan-out, process and merge chunk 0 in place, then merge the
    /// worker chunks in chunk order, which is step order. Without a
    /// fan-out `k` is 1 and the ship and collect ranges are empty:
    /// sequential execution is this loop.
    #[allow(clippy::too_many_arguments)]
    fn run_levels<'s, M: LossModel, R: rand::Rng + ?Sized>(
        &self,
        arenas: &'s mut Arenas,
        net: &Network,
        model: &M,
        retransmit: Retransmit,
        epoch: u64,
        stats: &mut CommStats,
        rng: &mut R,
        mut fan: Option<parallel::FanOut<'s>>,
    ) {
        let Arenas {
            tree_inbox,
            mp_inbox,
            parked_prev,
            parked_cur,
            locals,
            pools,
            draws,
            ..
        } = arenas;
        let workers = fan.as_ref().map_or(1, |fan| fan.workers());
        draws.open(self.sched);
        let mut below = Slabs {
            first: 0,
            q: self.set.len(),
            tree: tree_inbox,
            mp: mp_inbox,
            locals,
        };
        for &(lv_start, lv_end) in &self.sched.levels {
            let level = lv_start as usize..lv_end as usize;
            let sw = phase::stopwatch();
            draws.draw(
                self.sched,
                level.clone(),
                net,
                model,
                retransmit,
                epoch,
                rng,
            );
            phase::record(Phase::Randomness, sw);

            // One per-level-execute sample covers the whole level:
            // shipping, chunk 0 in place, and the merge barrier.
            let sw = phase::stopwatch();
            let len = level.len();
            let k = workers.min(len);
            let chunk_len = |c: usize| len / k + usize::from(c < len % k);
            let mut own = below.take_front(len);
            let mut chunk0 = own.take_front(chunk_len(0));
            if k > 1 {
                pools.ensure(len, m_senders(&self.sched.steps[level.clone()]));
            }
            // Ship chunks 1.. first so workers overlap with chunk 0.
            for c in 1..k {
                let chunk = own.take_front(chunk_len(c));
                let m = m_senders(&self.sched.steps[chunk.first..chunk.first + chunk.len()]);
                fan.as_mut()
                    .expect("more than one chunk only with a fan-out")
                    .ship(c, chunk, m, parked_prev, pools);
            }
            let airing = Arc::get_mut(parked_cur).expect("no worker holds the level being run");
            airing.open(level.start, len);
            let mut slot = level.start;
            for _ in 0..chunk0.len() {
                let sent = self.process(&mut chunk0, slot, parked_prev, pools);
                self.merge(slot, sent, draws, &mut below, airing, stats, pools);
                slot += 1;
            }
            // Barrier: merge worker chunks in chunk (= step) order.
            for c in 1..k {
                let fan = fan.as_mut().expect("shipped through it");
                fan.collect(c, pools, |sent, pools| {
                    self.merge(slot, sent, draws, &mut below, airing, stats, pools);
                    slot += 1;
                });
            }
            // Everyone who could hear the level above has run: its
            // parked broadcasts go back to the free-lists and the level
            // just run takes its place.
            Arc::get_mut(parked_prev)
                .expect("workers drop their handle before reporting")
                .recycle_into(pools);
            std::mem::swap(parked_prev, parked_cur);
            phase::record(Phase::LevelExecute, sw);
        }
    }

    /// The base-station tail of an epoch: evaluate whatever reached the
    /// base slot, and count who contributed to it from the epoch's
    /// draws.
    fn finish(&self, arenas: &mut Arenas) -> SetEpochOutput {
        let (sched, set) = (self.sched, self.set);
        let base_slot = sched.base_slot();
        let q = set.len();
        let Arenas {
            tree_inbox,
            mp_inbox,
            parked_prev,
            locals,
            pools,
            draws,
            ..
        } = arenas;
        let contributing = draws.contributing(sched);
        let children = &mut tree_inbox[base_slot];
        let parked = Arc::get_mut(parked_prev).expect("the workers have exited");
        let out = match sched.base_mode {
            Mode::T => {
                let exact_count: u64 = children.iter().map(|env| env.count).sum();
                SetEpochOutput {
                    outputs: evaluate_tree_base(set, children, sched.base_height, pools),
                    contributing,
                    contributing_est: exact_count as f64,
                    max_noncontrib: crate::envelope::ExtremaSet::largest(),
                    min_noncontrib: crate::envelope::ExtremaSet::smallest(),
                }
            }
            Mode::M => {
                let local = take_local(&mut locals[base_slot * q..(base_slot + 1) * q], pools);
                let count_sketch = pools.sketch();
                let mut env = build_mp_envelope_set(
                    set,
                    BASE_STATION,
                    count_sketch,
                    sched.base_subtree,
                    sched.base_switchable_m,
                    local,
                    children,
                    &mut mp_inbox[base_slot],
                    parked,
                    pools,
                );
                let bundle = env.msg.take().expect("bundle present");
                let outputs = (0..q)
                    .map(|i| {
                        set.query(i)
                            .evaluate(Vec::new(), bundle[i].as_ref(), sched.base_height)
                    })
                    .collect();
                recycle_bundle(pools, bundle);
                let MpEnvelope {
                    count_sketch,
                    max_noncontrib,
                    min_noncontrib,
                    ..
                } = env;
                let contributing_est = count_sketch.estimate();
                recycle_sketch(pools, count_sketch);
                SetEpochOutput {
                    outputs,
                    contributing,
                    contributing_est,
                    max_noncontrib,
                    min_noncontrib,
                }
            }
        };
        // The innermost level's broadcasts had only the base station to
        // reach.
        parked.recycle_into(pools);
        out
    }
}

/// Run one Tributary-Delta epoch for every query in `set`, compiling a
/// fresh plan for this call — the rebuild path. Sessions cache an
/// [`EpochPlan`] instead and execute the identical code, so the two
/// paths are bit-for-bit interchangeable. `stats` accumulates
/// communication accounting across epochs.
#[allow(clippy::too_many_arguments)]
pub fn run_td_epoch_set<M: LossModel, R: rand::Rng + ?Sized>(
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

/// Run one epoch of the pure-TAG baseline for every query in `set`, over
/// an arbitrary spanning tree (parents may be at any lower level — no
/// ring restriction), compiling a fresh plan for this call.
#[allow(clippy::too_many_arguments)]
pub fn run_tag_epoch_set<M: LossModel, R: rand::Rng + ?Sized>(
    set: &QuerySet<'_>,
    tree: &Tree,
    net: &Network,
    model: &M,
    config: RunnerConfig,
    epoch: u64,
    stats: &mut CommStats,
    rng: &mut R,
) -> SetEpochOutput {
    EpochPlan::compile_tag(tree).run_set(set, net, model, config, epoch, stats, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Protocol, ScalarProtocol};
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
        contributing_est: f64,
        max_noncontrib: crate::envelope::ExtremaSet,
    }

    /// Run `proto` alone through one of the set entry points — a
    /// one-entry bundle, so a dedicated run is bit-identical to the same
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
            contributing_est: out.contributing_est,
            max_noncontrib: out.max_noncontrib,
        }
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
        assert_eq!(out.contributing_est, net.num_sensors() as f64);
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
                run_tag_epoch_set(
                    set,
                    td.tree(),
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
        if let Some(max) = out.max_noncontrib.best() {
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
                run_tag_epoch_set(
                    set,
                    tree,
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
                run_tag_epoch_set(
                    set,
                    tree,
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
            assert_eq!(reused.contributing_est, rebuilt.contributing_est);
            assert_eq!(reused.max_noncontrib, rebuilt.max_noncontrib);
            assert_eq!(reused.min_noncontrib, rebuilt.min_noncontrib);
        }
        assert_eq!(reused_stats, rebuilt_stats);
    }

    /// The level loop is bit-identical on any chunk count — answers,
    /// instrumentation, byte accounting, and the caller's RNG stream —
    /// for both TD (mixed T/M labeling, lossy) and TAG plans, including
    /// 64 workers, more than any level here has steps (chunk count =
    /// level length). (`parallel_min_nodes: 0` lets the fan-out engage
    /// at test scale; the broader scheme × worker matrix lives in
    /// `tests/e2e_parallel.rs`.)
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
            assert!(
                workers < 64 || plan.sched.levels.iter().all(|&(s, e)| e - s < 64),
                "some level is long enough to use every worker"
            );
            let mut stats = CommStats::new(net.len());
            let mut rng = rng_from_seed(77);
            let mut history = Vec::new();
            for epoch in 0..6u64 {
                let proto = ScalarProtocol::new(Sum::default(), &values);
                let mut set = QuerySet::new();
                set.register(&proto);
                let out = plan.run_set(&set, &net, &model, config, epoch, &mut stats, &mut rng);
                history.push((
                    *out.outputs[0]
                        .downcast_ref::<f64>()
                        .expect("sum output is f64"),
                    out.contributing,
                    out.contributing_est,
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

    /// The law the single step table rests on: TAG is the all-`T`
    /// table. On a §4.1-restricted tree (depth = ring level, so step
    /// order and draw order coincide) a TAG plan and a TD plan labelled
    /// all-`T` over the same tree are the same epoch — answers,
    /// contributing counts, byte accounting and the caller's RNG
    /// stream, bit for bit, on one chunk and on two. The TAG base
    /// station's extra merge-and-finalize step changes nothing a scalar
    /// aggregate can see.
    #[test]
    fn tag_plan_is_the_all_t_td_plan() {
        use rand::Rng;
        let (net, td) = topo(151, 200, 2);
        let all_t = TdTopology::all_tree(td.rings().clone(), td.tree().clone());
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 60).collect();
        let model = Global::new(0.1);
        let run = |mut plan: EpochPlan, workers: usize| {
            let config = RunnerConfig {
                workers,
                parallel_min_nodes: 0,
                ..RunnerConfig::default()
            };
            let mut stats = CommStats::new(net.len());
            let mut rng = rng_from_seed(78);
            let mut history = Vec::new();
            for epoch in 0..6u64 {
                let sum = ScalarProtocol::new(Sum::default(), &values);
                let average = ScalarProtocol::new(Average::default(), &values);
                let mut set = QuerySet::new();
                set.register(&sum);
                set.register(&average);
                let out = plan.run_set(&set, &net, &model, config, epoch, &mut stats, &mut rng);
                let answer = |i: usize| out.outputs[i].downcast_ref::<f64>().unwrap().to_bits();
                history.push((
                    answer(0),
                    answer(1),
                    out.contributing,
                    out.contributing_est.to_bits(),
                ));
            }
            (history, stats, rng.gen::<u64>())
        };
        for workers in [1, 2] {
            let tag = run(EpochPlan::compile_tag(all_t.tree()), workers);
            let td = run(EpochPlan::compile_td(&all_t), workers);
            assert!(tag.0.iter().any(|e| e.2 < net.num_sensors()), "no loss");
            assert_eq!(tag, td, "TAG and all-T TD diverged at {workers} workers");
        }
    }

    /// The count-sketch and bundle-`Vec` free-lists reach a steady
    /// state: after warm-up, further epochs allocate no per-envelope
    /// sketches and no per-node bundle `Vec`s.
    #[test]
    fn sketch_and_bundle_pools_reach_steady_state() {
        for delta_levels in [0u16, 2] {
            let (net, td) = topo(138, 180, delta_levels);
            let values: Vec<u64> = vec![3; net.len()];
            let mut plan = EpochPlan::compile_td(&td);
            let mut stats = CommStats::new(net.len());
            let mut rng = rng_from_seed(139);
            assert_eq!(plan.recycled_sketches(), 0);
            assert_eq!(plan.recycled_bundles(), 0);
            let mut sketches = Vec::new();
            let mut bundles = Vec::new();
            for epoch in 0..4u64 {
                let proto = ScalarProtocol::new(Sum::default(), &values);
                let mut set = QuerySet::new();
                set.register(&proto);
                plan.run_set(
                    &set,
                    &net,
                    &NoLoss,
                    RunnerConfig::default(),
                    epoch,
                    &mut stats,
                    &mut rng,
                );
                sketches.push(plan.recycled_sketches());
                bundles.push(plan.recycled_bundles());
            }
            // Every node stages a bundle, so the bundle pool is always
            // exercised; sketches only exist where a delta does.
            assert!(bundles[0] > 0, "no bundles recycled at {delta_levels}");
            if delta_levels > 0 {
                assert!(sketches[0] > 0, "no sketches recycled at {delta_levels}");
            }
            assert_eq!(
                sketches[1], sketches[3],
                "sketch pool still growing at delta {delta_levels}: {sketches:?}"
            );
            assert_eq!(
                bundles[1], bundles[3],
                "bundle pool still growing at delta {delta_levels}: {bundles:?}"
            );
        }
    }

    /// The same steady state on the level-parallel executor, where a
    /// chunk's parts are lent to its worker and reclaimed at the barrier:
    /// on a TAG tree and on a TD labeling, whichever way envelopes cross
    /// the shard boundary, no side hoards parts. Loss only ever takes
    /// envelopes out of flight early, so once two lossless epochs have
    /// raised the free-lists to the lossless demand, 200 lossy epochs
    /// must leave every one of them exactly there — on any seed.
    #[test]
    fn pools_stay_flat_on_the_parallel_path() {
        let (net, td) = topo(142, 180, 2);
        let values: Vec<u64> = vec![3; net.len()];
        let config = RunnerConfig {
            workers: 2,
            parallel_min_nodes: 0,
            ..RunnerConfig::default()
        };
        for (tag, seed) in [(true, 143), (true, 144), (false, 143), (false, 144)] {
            let mut plan = if tag {
                EpochPlan::compile_tag(td.tree())
            } else {
                EpochPlan::compile_td(&td)
            };
            let fill = |plan: &EpochPlan| (plan.recycled_sketches(), plan.recycled_bundles());
            let mut stats = CommStats::new(net.len());
            let mut rng = rng_from_seed(seed);
            let mut epoch = 0u64;
            let mut run = |plan: &mut EpochPlan, lossy: bool| {
                let proto = ScalarProtocol::new(Sum::default(), &values);
                let mut set = QuerySet::new();
                set.register(&proto);
                if lossy {
                    let model = Global::new(0.1);
                    plan.run_set(&set, &net, &model, config, epoch, &mut stats, &mut rng);
                } else {
                    plan.run_set(&set, &net, &NoLoss, config, epoch, &mut stats, &mut rng);
                }
                epoch += 1;
            };
            run(&mut plan, false);
            run(&mut plan, false);
            let warm = fill(&plan);
            assert!(warm.1 > 0, "nothing recycled: {warm:?}");
            assert_eq!(
                warm.0 > 0,
                !tag,
                "sketches exist exactly where a delta does"
            );
            // One envelope per sender, so one part of each kind per
            // node (plus the base station's) is all an epoch can need.
            let bound = net.len() + 1;
            assert!(
                warm.0 <= bound && warm.1 <= bound,
                "pools above the per-epoch envelope population: {warm:?}"
            );
            let mut lossy = Vec::new();
            for _ in 0..200 {
                run(&mut plan, true);
                lossy.push(fill(&plan));
            }
            assert_eq!(
                lossy[49], warm,
                "pools moved by epoch 50 (tag {tag}, seed {seed})"
            );
            assert_eq!(
                lossy[199], warm,
                "pools moved by epoch 200 (tag {tag}, seed {seed})"
            );
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

        fn local_mp(&self, node: NodeId) -> Option<Tracked> {
            (!node.is_base()).then(|| self.tracked(1))
        }

        fn fuse(&self, into: &mut Tracked, from: &Tracked) {
            into.count = into.count.max(from.count);
        }

        fn convert(&self, _root: NodeId, msg: &u64) -> Tracked {
            self.tracked(*msg)
        }

        fn tree_wire(&self, _msg: &u64) -> td_netsim::message::WireSize {
            td_netsim::message::WireSize::from_words(1)
        }

        fn mp_wire(&self, _msg: &Tracked) -> td_netsim::message::WireSize {
            td_netsim::message::WireSize::from_words(1)
        }

        fn evaluate(&self, _tree_parts: &[u64], mp: Option<&Tracked>, _base_height: u32) -> u64 {
            mp.map_or(0, |m| m.count)
        }
    }

    /// A broadcast is parked once and fused by reference: on an all-M
    /// labeling the only message clones of an epoch are the base
    /// station's adoptions (it has no local message to fuse into), one
    /// per query — on either executor, however many neighbours hear
    /// each broadcast.
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
            assert_eq!(a.contributing_est, b.contributing_est);
            assert_eq!(a.max_noncontrib, b.max_noncontrib);
            assert_eq!(a.min_noncontrib, b.min_noncontrib);
            assert_eq!(patched_plan_stats, fresh_stats);
        }
    }

    /// `patch` declines (instead of corrupting) when it cannot help:
    /// TAG plans, over-budget relabel sets, and gaps the delta log no
    /// longer covers.
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

        // A plan too far behind the delta log must recompile.
        let stale_version = td.version();
        for _ in 0..80 {
            match td.switchable_t_nodes().first().copied() {
                Some(u) => td.switch_to_m(u).unwrap(),
                None => {
                    let m = td.switchable_m_nodes()[0];
                    td.switch_to_t(m).unwrap();
                }
            }
        }
        assert!(td.deltas_since(stale_version).is_none());
        assert!(plan.patch(&td, td.len()).is_none());
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
            let rebuilt = run_tag_epoch_set(
                &set,
                tree,
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
}
