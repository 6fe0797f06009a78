//! Tests of the `k`-shard exchange of [`MultiRoundSession`], one-round
//! (EdgeCount at a round cap of 1) and multi-round (Borůvka), pinned
//! against the legacy synchronous simulators — the spec oracles.

use crate::metrics::TransportCounters;
use crate::session::MultiRoundSession;
use crate::transport::{Envelope, PerfectTransport, Transport};

/// Delivers everything except exchange partials (senders above `n`).
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
    fn counters(&self) -> TransportCounters {
        self.0.counters()
    }
}

/// Flips bit `.2` of every exchange partial (senders above `n`).
struct CorruptPartials<T: Transport>(T, usize, usize);

impl<T: Transport> Transport for CorruptPartials<T> {
    fn send(&mut self, mut env: Envelope) {
        if (env.from as usize) > self.1 {
            env.payload = env.payload.with_bit_flipped(self.2);
        }
        self.0.send(env);
    }
    fn recv(&mut self) -> Option<Envelope> {
        self.0.recv()
    }
    fn counters(&self) -> TransportCounters {
        self.0.counters()
    }
}

mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultyTransport};
    use crate::session::OneRoundReport;
    use rand::SeedableRng;
    use referee_graph::{generators, LabelledGraph};
    use referee_protocol::combinators::OneRoundAsMultiRound;
    use referee_protocol::easy::EdgeCountProtocol;

    /// The one-round session with `k` shards: EdgeCount at a round cap
    /// of 1, seen through its one-round report.
    fn run_edge_count<T: Transport>(
        g: &LabelledGraph,
        k: usize,
        seed: u64,
        t: &mut T,
    ) -> OneRoundReport<<EdgeCountProtocol as referee_protocol::OneRoundProtocol>::Output> {
        let adapted = OneRoundAsMultiRound(EdgeCountProtocol);
        let report = MultiRoundSession::new(&adapted, g, 1)
            .with_shards(k)
            .with_exchange_seed(seed)
            .run(t);
        OneRoundReport::from(report)
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
                // Shard 0 merges by value: only shards 1..k ship, and
                // every shipped partial carries a header.
                assert_eq!(sharded.exchange_bits > 0, k > 1, "k={k}");
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
        // Drop every exchange envelope: the referee must starve loudly,
        // never hang or fabricate.
        let g = generators::grid(3, 3);
        let mut t = DropPartials(PerfectTransport::new(), g.n());
        let err = run_edge_count(&g, 3, 0, &mut t).outcome.unwrap_err();
        assert!(format!("{err}").contains("shard partials missing"), "{err}");
    }

    #[test]
    fn corrupted_partial_structure_is_rejected() {
        // Flip a bit inside the `n` field of every exchange payload: the
        // partial decoder must reject, the session must fail closed.
        let g = generators::grid(3, 4);
        let mut t = CorruptPartials(PerfectTransport::new(), g.n(), 42);
        let r = run_edge_count(&g, 2, 0, &mut t);
        assert!(r.outcome.is_err(), "structurally corrupted partial must reject");
    }
}

mod multiround {
    mod tests {
        use super::super::*;
        use crate::fault::{FaultConfig, FaultyTransport};
        use rand::SeedableRng;
        use referee_graph::{algo, generators, LabelledGraph};
        use referee_protocol::multiround::{run_multiround, BoruvkaConnectivity};

        #[test]
        fn matches_unsharded_session_bit_for_bit() {
            for g in [
                generators::petersen(),
                generators::path(17),
                generators::path(4).disjoint_union(&generators::path(5)),
                generators::grid(3, 6),
                LabelledGraph::new(0),
                LabelledGraph::new(1),
            ] {
                // The spec oracle: the legacy synchronous simulator.
                let (mono_out, mono_stats) = run_multiround(&BoruvkaConnectivity, &g, 64);
                let mut total_bits = None;
                for k in 1..=8usize {
                    let mut t = PerfectTransport::new();
                    let sharded = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64)
                        .with_shards(k)
                        .with_exchange_seed(k as u64 * 131)
                        .run(&mut t);
                    assert_eq!(sharded.outcome.unwrap(), mono_out, "k={k}, n={}", g.n());
                    assert_eq!(sharded.stats, mono_stats, "k={k}: stats must be identical");
                    assert_eq!(
                        *total_bits.get_or_insert(sharded.metrics.stats.total_message_bits),
                        sharded.metrics.stats.total_message_bits,
                        "k={k}: frugality accounting must ignore the exchange"
                    );
                    assert_eq!(sharded.shards, k);
                    // Shard 0 merges by value: only shards 1..k ship.
                    assert_eq!(sharded.exchange_bits > 0, k > 1, "k={k}");
                }
            }
        }

        #[test]
        fn exchange_order_is_immaterial() {
            let g = generators::grid(4, 4);
            let mut outcomes = Vec::new();
            for seed in 0..12u64 {
                let mut t = PerfectTransport::new();
                let r = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64)
                    .with_shards(5)
                    .with_exchange_seed(seed)
                    .run(&mut t);
                outcomes.push(r.outcome.unwrap());
            }
            assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
        }

        #[test]
        fn dup_and_reorder_are_absorbed_bit_for_bit() {
            // No loss, no corruption: duplication and cross-round
            // reordering must be invisible — the spec oracle's verdict.
            for seed in 0..24u64 {
                let g = generators::gnp(
                    10 + (seed % 7) as usize,
                    0.22,
                    &mut rand::rngs::StdRng::seed_from_u64(seed),
                );
                let (mono, _) = run_multiround(&BoruvkaConnectivity, &g, 64);
                let cfg = FaultConfig {
                    seed,
                    loss: 0.0,
                    duplication: 0.2,
                    reorder: 0.3,
                    corruption: 0.0,
                };
                let mut t = FaultyTransport::new(PerfectTransport::new(), cfg);
                let r = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64)
                    .with_shards(3)
                    .with_exchange_seed(seed)
                    .run(&mut t);
                assert_eq!(r.outcome.unwrap(), mono, "seed {seed}");
            }
        }

        #[test]
        fn faulty_transport_never_fabricates() {
            // Under loss every completed run is exact; lost traffic
            // rejects.
            let mut completed = 0usize;
            let mut rejected = 0usize;
            for seed in 0..60u64 {
                let g = generators::gnp(
                    9 + (seed % 8) as usize,
                    0.25,
                    &mut rand::rngs::StdRng::seed_from_u64(seed ^ 0xabc),
                );
                let cfg = FaultConfig {
                    seed,
                    loss: 0.004,
                    duplication: 0.1,
                    reorder: 0.2,
                    corruption: 0.0,
                };
                let mut t = FaultyTransport::new(PerfectTransport::new(), cfg);
                let r = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64)
                    .with_shards(4)
                    .with_exchange_seed(seed)
                    .run(&mut t);
                match r.outcome {
                    Ok(out) => {
                        let verdict =
                            out.expect("cap is generous").expect("honest bits decode");
                        assert_eq!(verdict, algo::is_connected(&g), "seed {seed} fabricated");
                        completed += 1;
                    }
                    Err(_) => rejected += 1,
                }
            }
            assert!(completed > 0, "some runs must survive 0.4% loss");
            assert!(rejected > 0, "some runs must lose an envelope");
        }

        #[test]
        fn lost_partial_is_detected_as_starvation() {
            // Drop every exchange envelope: the collector must starve
            // loudly, never hang or fabricate.
            let g = generators::grid(3, 3);
            let mut t = DropPartials(PerfectTransport::new(), g.n());
            let r =
                MultiRoundSession::new(&BoruvkaConnectivity, &g, 64).with_shards(3).run(&mut t);
            let err = r.outcome.unwrap_err();
            assert!(format!("{err}").contains("shard partials missing"), "{err}");
        }

        #[test]
        fn corrupted_partial_is_rejected() {
            // Flip one bit of every exchange payload — the round stamp's
            // LSB (bit 31) or a bit inside the embedded `n` field (bit
            // 42): the decoder (round mismatch or structural damage)
            // must reject.
            let g = generators::grid(3, 4);
            for bit in [31, 42] {
                let mut t = CorruptPartials(PerfectTransport::new(), g.n(), bit);
                let r = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64)
                    .with_shards(2)
                    .run(&mut t);
                assert!(r.outcome.is_err(), "bit {bit}: corrupted partial must reject");
            }
        }
    }
}
