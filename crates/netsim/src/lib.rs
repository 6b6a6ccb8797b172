//! # td-netsim — discrete-epoch wireless sensor network simulator
//!
//! The substrate underneath the Tributary-Delta reproduction. It models the
//! aspects of a TinyDB/TAG-class sensor network that the paper's evaluation
//! (§7.1) depends on:
//!
//! * **Nodes and placement** ([`node`], [`network`]): `m` sensor motes plus a
//!   base station, positioned in a 2-D deployment area, with a fixed radio
//!   range inducing a symmetric connectivity graph.
//! * **Lossy communication** ([`loss`]): every transmission is dropped
//!   according to a pluggable [`loss::LossModel`] — the paper's
//!   `Global(p)` and `Regional(p1,p2)` failure models, distance-based link
//!   quality for the LabData reconstruction, epoch-indexed timelines for
//!   the dynamic scenarios of Figure 6, and the correlated
//!   [`loss::GilbertElliott`] burst channel (a seeded per-sender/per-link
//!   Good/Bad Markov chain, [`markov`]).
//! * **Node churn** ([`churn`]): seeded join/leave schedules
//!   ([`churn::ChurnSchedule`]) with a [`churn::ChurnLoss`] channel
//!   overlay silencing absent nodes — the epoch-dependent counterpart of
//!   [`loss::DeadNodes`].
//! * **Epoch-synchronized rounds**: aggregation proceeds level-by-level,
//!   one level per slot within an epoch (TAG-style). The scheduling loop
//!   itself lives in the `tributary-delta` crate; this crate supplies the
//!   deterministic delivery primitives ([`loss::unicast`], [`loss::broadcast`])
//!   and retransmission policy ([`loss::Retransmit`]).
//! * **Message and energy accounting** ([`message`], [`stats`]): TinyDB's
//!   48-byte message payloads, quantization of partial results into whole
//!   messages, and per-node transmission/byte counters — the "Energy
//!   Components" of the paper's Table 1.
//! * **Determinism** ([`rng`]): every random choice flows from a caller-
//!   provided 64-bit seed through named substreams, so simulations replay
//!   bit-for-bit.
//!
//! ## Quick example
//!
//! ```
//! use td_netsim::network::Network;
//! use td_netsim::node::Position;
//! use td_netsim::loss::{Global, LossModel};
//! use td_netsim::rng::rng_from_seed;
//!
//! let mut rng = rng_from_seed(42);
//! // 100 nodes in a 20x20 area, base station at the center, radio range 4.
//! let net = Network::random_in_rect(100, 20.0, 20.0, Position::new(10.0, 10.0), 4.0, &mut rng);
//! assert!(net.is_connected());
//! let model = Global::new(0.25);
//! let from = net.node_ids().nth(1).unwrap();
//! let to = td_netsim::node::BASE_STATION;
//! let _delivered = model.delivered(from, to, &net, 0, &mut rng);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod epoch;
pub mod loss;
pub mod markov;
pub mod message;
pub mod network;
pub mod node;
pub mod rng;
pub mod stats;

pub use churn::{ChurnEvents, ChurnSchedule};
pub use loss::LossModel;
pub use message::TINYDB_PAYLOAD_BYTES;
pub use network::Network;
pub use node::{NodeId, Position, BASE_STATION};
