#![warn(missing_docs)]
//! `referee-simnet` — a sans-I/O, fault-injecting **session runtime** for
//! referee protocols.
//!
//! The synchronous simulators in `referee-protocol`
//! ([`run_protocol`](referee_protocol::run_protocol),
//! [`run_multiround`](referee_protocol::multiround::run_multiround)) call
//! both sides of the model as plain functions: perfect for reproducing
//! the paper's numbers, but silent about everything a *system* has to
//! survive — loss, duplication, reordering, corruption, and the cost of
//! driving thousands of concurrent runs. This crate closes that gap:
//!
//! * [`session`] — [`MultiRoundSession`] executes protocols as an
//!   explicit state machine with a poll-style
//!   [`step()`](MultiRoundSession::step) API. No threads, sockets or
//!   clocks are baked in; every message crosses a [`Transport`]. The
//!   referee's per-round wait runs as `k` mergeable shards
//!   ([`with_shards`](MultiRoundSession::with_shards), default 1 — the
//!   paper's referee): shard 0's partial merges by value, shards `1..k`
//!   ship their
//!   [`RoundPartialState`](referee_protocol::shard::multiround::RoundPartialState)s
//!   through the transport from synthetic senders in a seeded exchange
//!   before each `referee_step`, with the same verdicts at every `k`
//!   (pinned by tests). A one-round session is the same engine at a
//!   round cap of 1 over [`OneRoundAsMultiRound`], reported as a
//!   [`OneRoundReport`].
//! * [`transport`] — the [`Transport`] trait and the in-memory
//!   [`PerfectTransport`]. Envelopes are session-tagged ([`SessionId`]
//!   — the multiplexing key `wirenet` uses to carry whole fleets over a
//!   few sockets), round-stamped and addressed (vertex IDs, with
//!   [`REFEREE`] = 0), so sessions tolerate arbitrary delivery order by
//!   buffering early traffic per round.
//! * [`clock`] — injectable time ([`Clock`]): latency metrics come from
//!   a [`SharedClock`] (real by default, [`ManualClock`] for
//!   deterministic tests and reactor-stamped latencies).
//! * [`fault`] — [`FaultyTransport`], a seeded decorator injecting
//!   message loss, duplication, cross-round reordering and bit
//!   corruption. Corruption feeds the *existing*
//!   [`DecodeError`](referee_protocol::DecodeError) rejection paths:
//!   the decoders are the integrity layer, the runtime adds no oracle.
//! * [`placement`] — [`PlacementSim`]: a sans-I/O, seeded model of
//!   cross-host shard placement under host loss — kills wipe volatile
//!   shard state, journal replay rebuilds it — pinned to produce the
//!   monolithic verdict for every seed and kill rate, so any wire-layer
//!   reconnect bug has a seed-reproducible counterexample here.
//! * [`scheduler`] — a claim-based batching worker pool ([`Scheduler`])
//!   that drives many sessions concurrently (interleaving their `step`s
//!   within a batch) and disables the legacy simulator's nested
//!   parallelism while it runs.
//! * [`metrics`] — [`SessionMetrics`] (a superset of the legacy
//!   [`RunStats`](referee_protocol::RunStats): delivery counters and
//!   round latencies) and the fleet-level [`AggregateMetrics`].
//!
//! # Relation to the legacy simulators
//!
//! [`run_protocol`] and [`run_multiround`] here are drop-in equivalents
//! of the `referee-protocol` functions, executed through a session over a
//! perfect transport. Property tests pin bit-for-bit equivalence (same
//! output, same `max_message_bits`) between the two stacks, and a
//! zero-fault [`FaultyTransport`] is likewise pinned to be transparent —
//! so the fault knobs are the *only* behavioural difference.
//!
//! # Example: a faulty sweep
//!
//! ```
//! use referee_simnet::{FaultConfig, Scheduler};
//! use referee_graph::generators;
//! use referee_protocol::easy::EdgeCountProtocol;
//!
//! let graphs: Vec<_> = (0..64).map(|i| generators::grid(3, 3 + i % 4)).collect();
//! // Loss, duplication and reordering — no corruption: loss surfaces as
//! // a DecodeError rejection, while dup/reorder are absorbed by the
//! // session's idempotent, round-buffered delivery.
//! let faults =
//!     FaultConfig { seed: 42, loss: 0.05, duplication: 0.1, reorder: 0.3, corruption: 0.0 };
//! let sweep = Scheduler::default().sweep_one_round(&EdgeCountProtocol, &graphs, Some(faults));
//! assert_eq!(sweep.reports.len(), 64);
//! let truth: Vec<usize> = graphs.iter().map(|g| g.m()).collect();
//! for (report, &m) in sweep.reports.iter().zip(&truth) {
//!     match &report.outcome {
//!         Err(_) => {}                                // loss detected, rejected
//!         Ok(count) => assert_eq!(*count.as_ref().unwrap(), m), // or exactly right
//!     }
//! }
//! ```
//!
//! Under *corruption* (one flipped bit per corrupted envelope), the
//! guarantee is exactly the decoders': protocols with validating
//! decoders (the degeneracy family, the MAC-tagged Borůvka proposal
//! uplinks) reject the flip with a
//! [`DecodeError`](referee_protocol::DecodeError), while fields
//! without redundancy — the degree counts above, or Borůvka's
//! node-to-node label floods — can decode to a plausible wrong value.
//! That is the same trust model as the paper's, now observable per
//! message.

pub mod byzantine;
pub mod clock;
pub mod fault;
pub mod metrics;
pub mod placement;
pub mod scheduler;
pub mod session;
pub mod transport;

pub use byzantine::{ByzantineConfig, InjectionCounts, Misbehaving};
pub use clock::{real_clock, Clock, ManualClock, RealClock, SharedClock};
pub use fault::{FaultConfig, FaultyTransport};
pub use metrics::{AggregateMetrics, SessionMetrics, TransportCounters};
pub use placement::{PlacementReport, PlacementSim};
pub use scheduler::{ByzantineReport, MixedLane, MixedReport, Scheduler, SweepReport};
pub use session::{MultiRoundReport, MultiRoundSession, OneRoundReport, Step};
pub use transport::{Envelope, PerfectTransport, SessionId, Transport, REFEREE};

use referee_graph::LabelledGraph;
use referee_protocol::combinators::OneRoundAsMultiRound;
use referee_protocol::multiround::{MultiRoundProtocol, MultiRoundStats};
use referee_protocol::{OneRoundProtocol, RunOutcome};

/// Drop-in replacement for [`referee_protocol::run_protocol`], executed
/// through the cap-1 [`MultiRoundSession`] of
/// [`OneRoundAsMultiRound`]`(protocol)` over a [`PerfectTransport`].
///
/// A perfect transport cannot lose or corrupt anything, so the session
/// outcome is infallible; the signature stays identical to the legacy
/// simulator's (including its `Sync` bound).
pub fn run_protocol<P: OneRoundProtocol + Sync>(
    protocol: &P,
    g: &LabelledGraph,
) -> RunOutcome<P::Output> {
    let mut transport = PerfectTransport::new();
    let report =
        MultiRoundSession::new(&OneRoundAsMultiRound(protocol), g, 1).run(&mut transport);
    let report = OneRoundReport::from(report);
    RunOutcome {
        output: report.outcome.expect("perfect transport cannot fail delivery"),
        stats: report.metrics.stats,
    }
}

/// Drop-in replacement for
/// [`referee_protocol::multiround::run_multiround`], executed through a
/// [`MultiRoundSession`] over a [`PerfectTransport`].
pub fn run_multiround<P: MultiRoundProtocol>(
    protocol: &P,
    g: &LabelledGraph,
    max_rounds: usize,
) -> (Option<P::Output>, MultiRoundStats) {
    let mut transport = PerfectTransport::new();
    let report = MultiRoundSession::new(protocol, g, max_rounds).run(&mut transport);
    (report.outcome.expect("perfect transport cannot fail delivery"), report.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use referee_graph::generators;
    use referee_protocol::easy::EdgeCountProtocol;
    use referee_protocol::multiround::BoruvkaConnectivity;

    #[test]
    fn one_round_matches_legacy_simulator() {
        for g in [generators::petersen(), generators::grid(4, 5), LabelledGraph::new(0)] {
            let legacy = referee_protocol::run_protocol(&EdgeCountProtocol, &g);
            let simnet = run_protocol(&EdgeCountProtocol, &g);
            assert_eq!(simnet.output, legacy.output);
            assert_eq!(simnet.stats.max_message_bits, legacy.stats.max_message_bits);
            assert_eq!(simnet.stats.total_message_bits, legacy.stats.total_message_bits);
        }
    }

    #[test]
    fn multiround_matches_legacy_simulator() {
        for g in [
            generators::path(40),
            generators::petersen(),
            generators::path(6).disjoint_union(&generators::path(5)),
        ] {
            let cap = 64;
            let (legacy, legacy_stats) =
                referee_protocol::multiround::run_multiround(&BoruvkaConnectivity, &g, cap);
            let (simnet, simnet_stats) = run_multiround(&BoruvkaConnectivity, &g, cap);
            assert_eq!(simnet.is_some(), legacy.is_some());
            assert_eq!(
                simnet.map(|r| r.expect("honest run decodes")),
                legacy.map(|r| r.expect("honest run decodes"))
            );
            assert_eq!(simnet_stats.rounds, legacy_stats.rounds);
            assert_eq!(simnet_stats.max_uplink_bits, legacy_stats.max_uplink_bits);
            assert_eq!(simnet_stats.max_downlink_bits, legacy_stats.max_downlink_bits);
            assert_eq!(simnet_stats.max_link_bits, legacy_stats.max_link_bits);
        }
    }

    #[test]
    fn large_graph_matches_legacy() {
        // n above the legacy simulator's default parallel threshold
        // (2048), where it fans its local phase out across threads: the
        // session's output and stats must still match it exactly.
        let g = generators::path(3000);
        let legacy = referee_protocol::run_protocol(&EdgeCountProtocol, &g);
        let simnet = run_protocol(&EdgeCountProtocol, &g);
        assert_eq!(simnet.output, legacy.output);
        assert_eq!(simnet.stats.max_message_bits, legacy.stats.max_message_bits);
        assert_eq!(simnet.stats.total_message_bits, legacy.stats.total_message_bits);
    }

    #[test]
    fn round_cap_is_respected() {
        // Borůvka needs > 1 round on any non-trivial graph; a cap of 1
        // must end with no output, like the legacy simulator.
        let g = generators::path(8);
        let (out, stats) = run_multiround(&BoruvkaConnectivity, &g, 1);
        assert!(out.is_none());
        assert_eq!(stats.rounds, 1);
    }
}
