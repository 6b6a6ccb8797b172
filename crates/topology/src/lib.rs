//! # td-topology — aggregation topologies for sensor networks
//!
//! Builds and analyzes the routing structures the paper's aggregation
//! schemes run over:
//!
//! * [`rings`] — the multi-path **Rings** topology of synopsis diffusion
//!   (\[5,16\] in the paper; §2): BFS levels outward from the base station;
//!   level *i+1* nodes broadcast while level *i* nodes listen.
//! * [`tree`] — spanning **aggregation trees**: the `Tree` structure
//!   (parents, children, levels, heights, subtree sizes) plus the standard
//!   TAG construction \[10\] with an optional best-link parent choice
//!   ([`tree::ParentSelection`]).
//! * [`bushy`] — the paper's tree-construction algorithm (§6.1.3):
//!   parents restricted to ring level *i−1* (so tree links are a subset of
//!   ring links and switching nodes never re-synchronizes epochs, §4.1)
//!   plus *opportunistic parent switching* (pin/flag local search) that
//!   drives the tree toward 2-domination.
//! * [`domination`] — heights, height histograms `h(i)`, cumulative
//!   fractions `H(i)`, and the **domination factor** of §6.1.2 that
//!   controls the `Min Total-load` communication bound (Lemma 3).
//! * [`td`] — the labeled **Tributary-Delta graph** of §3: per-node
//!   tree/multi-path modes, the edge/path correctness properties, the
//!   switchable-vertex rules, the expand/shrink primitives used by the
//!   adaptation strategies of §4, and the topology version every label
//!   or parent switch re-mints, by which compiled epoch plans notice
//!   that they are stale.
//! * [`maintenance`] — churn handling: one reroute policy over any tree
//!   ([`maintenance::reroute`]), and [`maintenance::apply_churn`], which
//!   re-parents a labeled topology's orphans as one mutation through
//!   [`td::TdTopology::switch_parents`].
//!
//! ## Quick example
//!
//! ```
//! use td_netsim::network::Network;
//! use td_netsim::node::Position;
//! use td_netsim::rng::rng_from_seed;
//! use td_topology::bushy::{build_bushy_tree, BushyOptions};
//! use td_topology::rings::Rings;
//! use td_topology::td::TdTopology;
//!
//! let mut rng = rng_from_seed(7);
//! let net = Network::random_connected(60, 10.0, 10.0, Position::new(5.0, 5.0), 2.5, &mut rng);
//! let rings = Rings::build(&net);
//! let tree = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
//!
//! // A labeled topology whose delta region is the first ring.
//! let mut td = TdTopology::new(rings, tree, 1);
//! let v0 = td.version();
//! td.expand_all(); // widen the delta one level (§4.2 TD-Coarse)
//! assert!(td.validate().is_ok());
//! // The mutation re-minted the version: cached plans see they are stale.
//! assert_ne!(td.version(), v0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bushy;
pub mod domination;
pub mod maintenance;
pub mod rings;
pub mod td;
pub mod tree;

pub use bushy::build_bushy_tree;
pub use domination::{domination_factor, DominationProfile};
pub use rings::Rings;
pub use td::{Mode, TdTopology};
pub use tree::{build_tag_tree, Tree};
