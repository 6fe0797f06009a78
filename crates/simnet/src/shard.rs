//! Sharded sessions: the referee's mailbox split across mergeable
//! per-round shards that exchange partial-state summaries *through the
//! transport*.
//!
//! There is one sharded engine,
//! [`ShardedMultiRoundSession`](multiround::ShardedMultiRoundSession)
//! (see the [`multiround`] submodule): every round's uplinks route into
//! `k` per-round shards (by the balanced ID partition of
//! `referee_protocol::shard`), and before each `referee_step` every
//! shard ships its serialized round partial as a same-round envelope
//! from a synthetic shard sender (`n + 1 + index`), in an order
//! scrambled by a seed.
//!
//! A sharded **one-round** session is that engine running
//! [`OneRoundAsMultiRound`](referee_protocol::combinators::OneRoundAsMultiRound)
//! with a round cap of 1: round 1 carries the node uplinks and the
//! exchange, and the referee finishes on its first step.
//! [`Scheduler::sweep_one_round_sharded`](crate::Scheduler::sweep_one_round_sharded)
//! and [`Scheduler::sweep_byzantine`](crate::Scheduler::sweep_byzantine)
//! run their sessions this way and report them as a [`ShardedReport`].
//! Delivery semantics match the unsharded one-round session — the cap-1
//! [`MultiRoundSession`](crate::MultiRoundSession), reported as a
//! [`OneRoundReport`](crate::OneRoundReport) — on every lossless
//! transport (pinned by tests): identical duplicates are absorbed,
//! conflicting ones fail the session, loss is starvation, corruption
//! flows to the decoders, and an envelope stamped outside round 1 fails
//! the session. A sender claiming a shard ID before the exchange fails
//! it too.

pub mod multiround;

use crate::metrics::SessionMetrics;
use crate::session::cap1_outcome;
use multiround::ShardedMultiRoundReport;
use referee_protocol::DecodeError;

/// Outcome of a sharded one-round session.
#[derive(Debug)]
pub struct ShardedReport<O> {
    /// The referee's output, or the decode/delivery failure that ended
    /// the session.
    pub outcome: Result<O, DecodeError>,
    /// Everything measured along the way. The frugality stats count node
    /// uplinks only, so they match the unsharded session exactly.
    pub metrics: SessionMetrics,
    /// Shard count the session ran with.
    pub shards: usize,
    /// Total bits of serialized partial states shipped in the exchange.
    pub exchange_bits: usize,
}

impl<O> ShardedReport<O> {
    /// The one-round view of a cap-1 engine report. A referee that did
    /// not finish in round 1 is a typed failure, never a panic.
    pub(crate) fn from_cap1(report: ShardedMultiRoundReport<O>) -> Self {
        ShardedReport {
            outcome: cap1_outcome(report.outcome),
            metrics: report.metrics,
            shards: report.shards,
            exchange_bits: report.exchange_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultyTransport};
    use crate::transport::{Envelope, PerfectTransport, Transport};
    use multiround::ShardedMultiRoundSession;
    use rand::SeedableRng;
    use referee_graph::{generators, LabelledGraph};
    use referee_protocol::combinators::OneRoundAsMultiRound;
    use referee_protocol::easy::EdgeCountProtocol;

    /// The sharded one-round session: EdgeCount through the engine at a
    /// round cap of 1, seen through its one-round report.
    fn run_edge_count<T: Transport>(
        g: &LabelledGraph,
        k: usize,
        seed: u64,
        t: &mut T,
    ) -> ShardedReport<<EdgeCountProtocol as referee_protocol::OneRoundProtocol>::Output> {
        let adapted = OneRoundAsMultiRound(EdgeCountProtocol);
        let report =
            ShardedMultiRoundSession::new(&adapted, g, k, 1).with_exchange_seed(seed).run(t);
        ShardedReport::from_cap1(report)
    }

    #[test]
    fn matches_unsharded_session_bit_for_bit() {
        for g in [
            generators::petersen(),
            generators::grid(4, 7),
            generators::path(1),
            LabelledGraph::new(0),
            generators::complete(9),
        ] {
            // The spec oracle: the legacy synchronous simulator.
            let mono = referee_protocol::run_protocol(&EdgeCountProtocol, &g);
            let mono_out = mono.output;
            for k in 1..=8usize {
                let mut t = PerfectTransport::new();
                let sharded = run_edge_count(&g, k, k as u64 * 77, &mut t);
                assert_eq!(sharded.outcome.unwrap(), mono_out, "k={k}, n={}", g.n());
                assert_eq!(
                    sharded.metrics.stats.max_message_bits, mono.stats.max_message_bits,
                    "k={k}: frugality accounting must ignore the exchange"
                );
                assert_eq!(
                    sharded.metrics.stats.total_message_bits,
                    mono.stats.total_message_bits
                );
                assert_eq!(sharded.shards, k);
                assert!(sharded.exchange_bits > 0, "partials always carry headers");
            }
        }
    }

    #[test]
    fn exchange_order_is_immaterial() {
        let g = generators::grid(5, 5);
        let mut outputs = Vec::new();
        for seed in 0..16u64 {
            let mut t = PerfectTransport::new();
            outputs.push(run_edge_count(&g, 5, seed, &mut t).outcome.unwrap());
        }
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn faulty_transport_never_fabricates() {
        // Under loss/dup/reorder (no corruption) every completed outcome
        // is exact; loss of node traffic or partials rejects cleanly.
        let mut completed = 0usize;
        let mut rejected = 0usize;
        for seed in 0..60u64 {
            let g = generators::gnp(
                14 + (seed % 9) as usize,
                0.25,
                &mut rand::rngs::StdRng::seed_from_u64(seed),
            );
            let cfg = FaultConfig {
                seed,
                loss: 0.02,
                duplication: 0.15,
                reorder: 0.35,
                corruption: 0.0,
            };
            let mut t = FaultyTransport::new(PerfectTransport::new(), cfg);
            match run_edge_count(&g, 4, seed, &mut t).outcome {
                Ok(out) => {
                    assert_eq!(out, Ok(g.m()), "seed {seed} fabricated an edge count");
                    completed += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(completed > 0, "some runs must survive 2% loss");
        assert!(rejected > 0, "some runs must lose an envelope");
    }

    #[test]
    fn lost_partial_is_detected_as_starvation() {
        // Drop every exchange envelope (synthetic shard senders above
        // `n`): the referee must starve loudly, never hang or fabricate.
        struct DropPartials<T: Transport>(T, usize);
        impl<T: Transport> Transport for DropPartials<T> {
            fn send(&mut self, env: Envelope) {
                if (env.from as usize) <= self.1 {
                    self.0.send(env);
                }
            }
            fn recv(&mut self) -> Option<Envelope> {
                self.0.recv()
            }
            fn counters(&self) -> crate::metrics::TransportCounters {
                self.0.counters()
            }
        }
        let g = generators::grid(3, 3);
        let mut t = DropPartials(PerfectTransport::new(), g.n());
        let err = run_edge_count(&g, 3, 0, &mut t).outcome.unwrap_err();
        assert!(format!("{err}").contains("shard partials missing"), "{err}");
    }

    #[test]
    fn corrupted_partial_structure_is_rejected() {
        // Flip a bit inside the `n` field of every exchange payload: the
        // partial decoder must reject, the session must fail closed.
        struct CorruptPartials<T: Transport>(T, usize);
        impl<T: Transport> Transport for CorruptPartials<T> {
            fn send(&mut self, mut env: Envelope) {
                if (env.from as usize) > self.1 {
                    env.payload = env.payload.with_bit_flipped(42);
                }
                self.0.send(env);
            }
            fn recv(&mut self) -> Option<Envelope> {
                self.0.recv()
            }
            fn counters(&self) -> crate::metrics::TransportCounters {
                self.0.counters()
            }
        }
        let g = generators::grid(3, 4);
        let mut t = CorruptPartials(PerfectTransport::new(), g.n());
        let r = run_edge_count(&g, 2, 0, &mut t);
        assert!(r.outcome.is_err(), "structurally corrupted partial must reject");
    }
}
