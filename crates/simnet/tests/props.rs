//! Property and acceptance tests for the session runtime.
//!
//! The load-bearing property: a session over a **zero-fault**
//! [`FaultyTransport`] is bit-for-bit equivalent to the legacy
//! synchronous `run_protocol` — same output, same `max_message_bits` —
//! on arbitrary random graphs. That equivalence is what licenses the
//! facade crate to route everything through simnet.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use referee_degeneracy::{DegeneracyProtocol, ForestProtocol, Reconstruction};
use referee_graph::{generators, LabelledGraph};
use referee_protocol::combinators::OneRoundAsMultiRound;
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::multiround::BoruvkaConnectivity;
use referee_simnet::{
    FaultConfig, FaultyTransport, MultiRoundSession, OneRoundReport, PerfectTransport,
    Scheduler,
};

fn gnp(n: usize, seed: u64, p10: u32) -> LabelledGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::gnp(n, p10 as f64 / 10.0, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zero-fault FaultyTransport ≡ legacy run_protocol: same output,
    /// same max_message_bits, on random graphs (ISSUE acceptance).
    #[test]
    fn lossless_faulty_transport_equals_legacy(
        n in 2usize..40,
        seed in any::<u64>(),
        p10 in 0u32..=10,
        k in 1usize..4,
    ) {
        let g = gnp(n, seed, p10);
        let protocol = DegeneracyProtocol::new(k);
        let legacy = referee_protocol::run_protocol(&protocol, &g);

        let mut transport = FaultyTransport::new(
            PerfectTransport::new(),
            FaultConfig::lossless(seed ^ 0xabcd),
        );
        let report = OneRoundReport::from(
            MultiRoundSession::new(&OneRoundAsMultiRound(&protocol), &g, 1).run(&mut transport),
        );

        prop_assert_eq!(report.outcome.expect("lossless delivery"), legacy.output);
        prop_assert_eq!(report.metrics.stats.max_message_bits, legacy.stats.max_message_bits);
        prop_assert_eq!(report.metrics.stats.total_message_bits, legacy.stats.total_message_bits);
        // No fault counter may tick on a lossless config.
        let c = report.metrics.transport;
        prop_assert_eq!(
            (c.dropped, c.duplicated, c.corrupted, c.reordered, c.stale),
            (0, 0, 0, 0, 0)
        );
    }

    /// Same equivalence for the forest protocol (different decoder path).
    #[test]
    fn lossless_equivalence_forest_protocol(n in 1usize..60, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_tree(n, &mut rng);
        let legacy = referee_protocol::run_protocol(&ForestProtocol, &g);
        let mut transport =
            FaultyTransport::new(PerfectTransport::new(), FaultConfig::lossless(seed));
        let report = OneRoundReport::from(
            MultiRoundSession::new(&OneRoundAsMultiRound(ForestProtocol), &g, 1)
                .run(&mut transport),
        );
        prop_assert_eq!(report.outcome.expect("lossless delivery"), legacy.output);
        prop_assert_eq!(report.metrics.stats.max_message_bits, legacy.stats.max_message_bits);
    }

    /// Multi-round sessions under a lossless faulty transport agree with
    /// the legacy lock-step executor.
    #[test]
    fn lossless_equivalence_multiround(n in 2usize..40, seed in any::<u64>(), p10 in 0u32..=10) {
        let g = gnp(n, seed, p10);
        let cap = 64;
        let (legacy, legacy_stats) =
            referee_protocol::multiround::run_multiround(&BoruvkaConnectivity, &g, cap);
        let mut transport =
            FaultyTransport::new(PerfectTransport::new(), FaultConfig::lossless(seed));
        let report = MultiRoundSession::new(&BoruvkaConnectivity, &g, cap).run(&mut transport);
        let simnet = report.outcome.expect("lossless delivery");
        prop_assert_eq!(
            simnet.map(|r| r.expect("honest run decodes")),
            legacy.map(|r| r.expect("honest run decodes"))
        );
        prop_assert_eq!(report.stats.rounds, legacy_stats.rounds);
        prop_assert_eq!(report.stats.max_uplink_bits, legacy_stats.max_uplink_bits);
    }

    /// Under loss, duplication and reordering (no corruption), a session
    /// either rejects with a DecodeError or returns the *correct* result
    /// — never a wrong one, never a hang.
    #[test]
    fn loss_dup_reorder_never_lies(n in 2usize..30, seed in any::<u64>(), p10 in 0u32..=10) {
        let g = gnp(n, seed, p10);
        let truth = referee_protocol::run_protocol(&EdgeCountProtocol, &g)
            .output
            .expect("honest count");
        let cfg = FaultConfig {
            seed,
            loss: 0.05,
            duplication: 0.2,
            reorder: 0.4,
            corruption: 0.0,
        };
        let mut transport = FaultyTransport::new(PerfectTransport::new(), cfg);
        let report = OneRoundReport::from(
            MultiRoundSession::new(&OneRoundAsMultiRound(EdgeCountProtocol), &g, 1)
                .run(&mut transport),
        );
        match report.outcome {
            Err(_) => {} // loss detected and rejected
            Ok(out) => prop_assert_eq!(out.expect("well-formed messages"), truth),
        }
    }

    /// Duplication + reordering *without* loss is always survivable:
    /// identical retransmissions are deduplicated, order is irrelevant.
    #[test]
    fn dup_reorder_without_loss_always_succeeds(
        n in 2usize..30,
        seed in any::<u64>(),
        p10 in 0u32..=10,
    ) {
        let g = gnp(n, seed, p10);
        let truth = referee_protocol::run_protocol(&EdgeCountProtocol, &g)
            .output
            .expect("honest count");
        let cfg = FaultConfig {
            seed,
            loss: 0.0,
            duplication: 0.3,
            reorder: 0.5,
            corruption: 0.0,
        };
        let mut transport = FaultyTransport::new(PerfectTransport::new(), cfg);
        let report = OneRoundReport::from(
            MultiRoundSession::new(&OneRoundAsMultiRound(EdgeCountProtocol), &g, 1)
                .run(&mut transport),
        );
        prop_assert_eq!(
            report.outcome.expect("nothing was lost").expect("well-formed"),
            truth
        );
    }

    /// Corrupted one-round degeneracy runs end in a decode error, a
    /// rejection, or the original graph — never a different graph
    /// (the transport-level mirror of the bit-flip sweeps).
    #[test]
    fn corruption_never_misreconstructs(seed in any::<u64>(), n in 6usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_k_degenerate(n, 2, 1.0, &mut rng);
        let protocol = DegeneracyProtocol::new(2);
        let mut transport = FaultyTransport::new(
            PerfectTransport::new(),
            FaultConfig::corrupting(seed, 0.3),
        );
        let report = OneRoundReport::from(
            MultiRoundSession::new(&OneRoundAsMultiRound(&protocol), &g, 1).run(&mut transport),
        );
        match report.outcome {
            Err(_) => {}
            Ok(Err(_)) | Ok(Ok(Reconstruction::NotInClass)) => {}
            Ok(Ok(Reconstruction::Graph(h))) => {
                prop_assert_eq!(h, g, "silent mis-reconstruction under corruption");
            }
        }
    }
}

/// ISSUE acceptance: ≥ 1000 concurrent DegeneracyProtocol sessions in
/// one process, with aggregate metrics.
#[test]
fn thousand_concurrent_degeneracy_sessions() {
    let mut rng = StdRng::seed_from_u64(2011);
    let graphs: Vec<LabelledGraph> = (0..1000)
        .map(|i| generators::random_k_degenerate(16 + i % 17, 2, 1.0, &mut rng))
        .collect();
    let protocol = DegeneracyProtocol::new(2);

    let sweep = Scheduler::default().sweep_one_round(&protocol, &graphs, None);

    assert_eq!(sweep.reports.len(), 1000);
    assert_eq!(sweep.aggregate.sessions, 1000);
    assert_eq!(sweep.aggregate.ok, 1000, "perfect transport: no rejections");
    assert_eq!(sweep.aggregate.rejected, 0);
    assert!(sweep.aggregate.total_message_bits > 0);
    assert!(sweep.aggregate.max_frugality_ratio > 0.0);
    // Every session reconstructed its own graph exactly.
    for (report, g) in sweep.reports.iter().zip(&graphs) {
        match report.outcome.as_ref().expect("perfect transport") {
            Ok(Reconstruction::Graph(h)) => assert_eq!(h, g),
            other => panic!("k-degenerate graph not reconstructed: {other:?}"),
        }
    }
    // The transport counters saw every node's message exactly once.
    let expected_messages: u64 = graphs.iter().map(|g| g.n() as u64).sum();
    assert_eq!(sweep.aggregate.transport.sent, expected_messages);
    assert_eq!(sweep.aggregate.transport.delivered, expected_messages);
}

/// The same fleet under a hostile network: sessions reject cleanly, the
/// fleet rollup accounts for every fault, and no run hangs or panics.
#[test]
fn thousand_sessions_survive_hostile_network() {
    let mut rng = StdRng::seed_from_u64(4022);
    let graphs: Vec<LabelledGraph> =
        (0..1000).map(|_| generators::random_k_degenerate(14, 2, 1.0, &mut rng)).collect();
    let protocol = DegeneracyProtocol::new(2);

    let sweep =
        Scheduler::new(8, 16).sweep_one_round(&protocol, &graphs, Some(FaultConfig::noisy(77)));

    assert_eq!(sweep.aggregate.sessions, 1000);
    assert_eq!(sweep.aggregate.ok + sweep.aggregate.rejected, 1000);
    // With 2% loss over ~14-message sessions, some but not all sessions
    // must fail; both branches of the runtime get exercised.
    assert!(sweep.aggregate.rejected > 0, "hostile network never bit");
    assert!(sweep.aggregate.ok > 0, "hostile network killed everything");
    let c = sweep.aggregate.transport;
    assert!(c.dropped > 0 && c.duplicated > 0 && c.corrupted > 0 && c.reordered > 0);
    // No fabricated graphs: whatever decoded, decoded to the original.
    for (report, g) in sweep.reports.iter().zip(&graphs) {
        if let Ok(Ok(Reconstruction::Graph(h))) = &report.outcome {
            assert_eq!(h, g, "corrupted session fabricated a graph");
        }
    }
}

/// With an injected [`ManualClock`] advanced only *between* steps (the
/// way a reactor poll loop stamps time), latency metrics are exact,
/// reproducible numbers instead of wall-clock noise.
#[test]
fn manual_clock_makes_latency_metrics_deterministic() {
    use referee_simnet::{ManualClock, Step};

    // One-round: the single round spans every step but the first.
    let g = generators::path(8);
    let clock = ManualClock::new();
    let mut transport = PerfectTransport::new();
    let mut session = MultiRoundSession::new(&OneRoundAsMultiRound(EdgeCountProtocol), &g, 1)
        .with_clock(clock.clone());
    let mut steps = 0usize;
    while session.step(&mut transport) == Step::Running {
        clock.advance(0.25);
        steps += 1;
    }
    let report = OneRoundReport::from(session.into_report(&transport));
    assert_eq!(report.outcome.unwrap().unwrap(), g.m());
    assert_eq!(report.metrics.round_seconds, vec![steps as f64 * 0.25]);
    // No advance happened *inside* a step, so phase times are exactly 0.
    assert_eq!(report.metrics.stats.local_seconds, 0.0);
    assert_eq!(report.metrics.stats.global_seconds, 0.0);

    // Multi-round: each full round is exactly 3 steps (send, uplinks,
    // receive) with the clock advanced after each, except the last
    // (which terminates during its uplink step).
    let clock = ManualClock::new();
    let mut transport = PerfectTransport::new();
    let mut session =
        MultiRoundSession::new(&BoruvkaConnectivity, &g, 64).with_clock(clock.clone());
    while session.step(&mut transport) == Step::Running {
        clock.advance(0.25);
    }
    let report = session.into_report(&transport);
    assert!(report.outcome.unwrap().unwrap().unwrap(), "path is connected");
    let rounds = report.metrics.rounds;
    assert!(rounds >= 3, "Borůvka needs rounds on a path");
    assert_eq!(report.metrics.round_seconds.len(), rounds);
    for (r, &secs) in report.metrics.round_seconds.iter().enumerate() {
        let expect = if r + 1 < rounds { 0.5 } else { 0.25 };
        assert_eq!(secs, expect, "round {r} latency");
    }
    assert_eq!(report.metrics.stats.local_seconds, 0.0);
    assert_eq!(report.metrics.stats.global_seconds, 0.0);
}

/// Multi-round sweep: a thousand Borůvka sessions, mixed topologies,
/// perfect transport — verdicts match centralized connectivity.
#[test]
fn multiround_sweep_matches_centralized() {
    let mut rng = StdRng::seed_from_u64(5033);
    let graphs: Vec<LabelledGraph> = (0..300).map(|_| gnp_from(&mut rng)).collect();
    let sweep = Scheduler::default().sweep_multi_round(&BoruvkaConnectivity, &graphs, 64, None);
    assert_eq!(sweep.aggregate.sessions, 300);
    assert_eq!(sweep.aggregate.ok, 300);
    assert!(sweep.aggregate.mean_rounds() >= 3.0, "Borůvka needs rounds");
    for (report, g) in sweep.reports.iter().zip(&graphs) {
        let verdict = report
            .outcome
            .as_ref()
            .expect("perfect transport")
            .as_ref()
            .expect("referee finished under cap")
            .as_ref()
            .expect("honest run decodes");
        assert_eq!(*verdict, referee_graph::algo::is_connected(g));
    }

    fn gnp_from(rng: &mut StdRng) -> LabelledGraph {
        use rand::Rng;
        let n = rng.gen_range(2usize..40);
        let p = [0.02, 0.08, 0.2][rng.gen_range(0..3usize)];
        generators::gnp(n, p, rng)
    }
}
