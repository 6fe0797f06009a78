#![warn(missing_docs)]
//! `referee-core` — the public facade of the `referee-one-round`
//! workspace, a production-quality Rust reproduction of:
//!
//! > F. Becker, M. Matamala, N. Nisse, I. Rapaport, K. Suchan, I. Todinca.
//! > *Adding a referee to an interconnection network: What can(not) be
//! > computed in one round.* IPDPS 2011.
//!
//! # Quick start
//!
//! ```
//! use referee_core::prelude::*;
//!
//! // A planar-ish graph (degeneracy 2):
//! let g = generators::grid(6, 8);
//!
//! // Theorem 5: each node sends O(k² log n) bits, the referee rebuilds G.
//! let outcome = run_protocol(&DegeneracyProtocol::new(2), &g);
//! assert_eq!(outcome.output.unwrap(), Reconstruction::Graph(g));
//! assert!(outcome.stats.frugality_ratio() < 15.0); // O(log n) messages
//! ```
//!
//! # Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`referee_wideint`] | exact big integers (power sums, counting) |
//! | [`referee_graph`] | labelled graphs, generators, algorithms, enumeration |
//! | [`referee_protocol`] | the model: messages, `OneRoundProtocol`, simulator, frugality audits, multi-round extension |
//! | [`referee_degeneracy`] | Theorem 5 (+ forests §III.A, generalized degeneracy) |
//! | [`referee_simnet`] | sans-I/O session runtime: pluggable transports, fault injection, concurrent scheduler |
//! | [`referee_wirenet`] | real-socket reactor: multiplexed, MAC-authenticated wire frames for simnet fleets |
//! | [`referee_reductions`] | Theorems 1–3 as executable reductions, Lemma 1 counting, collision witnesses, §IV bipartiteness reduction |
//! | this crate | prelude, high-level helpers, §IV partition-connectivity |
//!
//! # Configuration
//!
//! Every environment variable the workspace reads. Each has two values
//! in use or names a deployment address or path; every other setting
//! is a constant. `tests/configuration.rs` pins this table to the
//! `"REFEREE_…"` string literals in the source, so a new variable has
//! to add a row here.
//!
//! | variable | read by | default | set by |
//! |----------|---------|---------|--------|
//! | `REFEREE_WIRENET_BIND` | [`FleetServerBuilder::spawn`](referee_wirenet::FleetServerBuilder::spawn) (an explicit `.bind()` wins) | `127.0.0.1:0` | cross-host deployments |
//! | `REFEREE_SHARDHOST_BIND` | [`ShardHost::spawn_env`](referee_wirenet::ShardHost::spawn_env) | `127.0.0.1:0` | shard-host role processes |
//! | `REFEREE_WIRENET_POLLER` | wire servers, clients and shard hosts (an explicit `.poller()` wins) | `epoll` (`sweep` off Linux) | CI's sweep-poller `exp_wirenet` step |
//! | `REFEREE_TRACE_CAPACITY` | [`WireMetrics::default`](referee_wirenet::WireMetrics) | 8192 events | perfbench and `exp_wirenet` (`0`) |
//! | `REFEREE_TRACE_DUMP` | [`dump_if_armed`](referee_protocol::trace::dump_if_armed) | off | CI's `cross_host_shards` step |
//! | `REFEREE_SLO_P99_US` | `referee_bench::SloCheck::from_env` | unchecked | CI's soak steps |
//! | `REFEREE_SLO_P999_US` | `referee_bench::SloCheck::from_env` | unchecked | CI's `cross_host_shards` step |
//! | `REFEREE_EVIDENCE_DIR` | `examples/byzantine_fleet.rs` | no dump | CI's `byzantine_fleet` step |

pub mod api;
pub mod catalog;
pub mod partition;

pub use referee_degeneracy as degeneracy;
pub use referee_graph as graph;
pub use referee_protocol as protocol;
pub use referee_reductions as reductions;
pub use referee_simnet as simnet;
pub use referee_sketches as sketches;
pub use referee_wideint as wideint;
pub use referee_wirenet as wirenet;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use crate::api::{
        reconstruct_adaptive, reconstruct_bounded_degeneracy, reconstruct_forest,
        sketch_census, AdaptiveReport, ReconstructionReport, SketchCensus,
    };
    pub use crate::catalog::standard_catalog;
    pub use crate::partition::{partition_connectivity, PartitionOutcome};
    pub use referee_degeneracy::{
        adaptive_reconstruct, AdaptiveDegeneracyProtocol, DecoderKind, DegeneracyProtocol,
        ForestProtocol, GeneralizedDegeneracyProtocol, Reconstruction,
    };
    pub use referee_graph::{
        algo, generators, BitSet, Edge, GraphError, LabelledGraph, VertexId,
    };
    pub use referee_protocol::multiround::boruvka_connectivity;
    pub use referee_protocol::{
        bits_for, DecodeError, FrugalityAudit, Message, NodeView, OneRoundProtocol, RunOutcome,
        RunStats,
    };
    // The facade's `run_protocol` executes through the simnet session
    // runtime (a pinned bit-for-bit equivalent of the legacy
    // `referee_protocol::run_protocol`, which remains available for
    // direct use as the reference simulator).
    pub use referee_reductions::{
        DiameterReduction, DiameterTOracle, DiameterTReduction, SquareReduction,
        TriangleReduction,
    };
    pub use referee_simnet::{run_protocol, FaultConfig, Scheduler};
    pub use referee_sketches::connectivity::sketch_connectivity;
    pub use referee_sketches::kconn::sketch_edge_connectivity;
    pub use referee_sketches::{
        sketch_bipartiteness, SketchBipartitenessProtocol, SketchConnectivityProtocol,
        SketchKConnectivityProtocol,
    };
}
