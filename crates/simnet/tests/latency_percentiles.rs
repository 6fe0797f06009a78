//! Deterministic latency percentiles: sessions stamped from a
//! [`ManualClock`] record *exactly* the durations the driver injects, so
//! the aggregate's histogram pins exact p50/p99/p999 values — no wall
//! clock, no tolerance bands.

use referee_graph::generators;
use referee_protocol::combinators::OneRoundAsMultiRound;
use referee_protocol::easy::EdgeCountProtocol;
use referee_simnet::{
    AggregateMetrics, ManualClock, MultiRoundSession, OneRoundReport, PerfectTransport,
    SharedClock,
};

#[test]
fn manual_clock_pins_exact_percentiles() {
    let clock = ManualClock::new();
    let g = generators::grid(2, 2);
    let mut agg = AggregateMetrics::default();
    // 100 sessions taking exactly 1 000 µs and one straggler taking
    // exactly 1 000 000 µs: p50 and p99 land in the 1 000 µs bucket
    // (bound 1023), p999 in the straggler's (bound 2²⁰ − 1).
    for i in 0..101 {
        let session = MultiRoundSession::new(&OneRoundAsMultiRound(EdgeCountProtocol), &g, 1)
            .with_clock(clock.clone() as SharedClock);
        clock.advance(if i < 100 { 0.001 } else { 1.0 });
        let report = OneRoundReport::from(session.run(&mut PerfectTransport::new()));
        assert_eq!(report.outcome.clone().unwrap().unwrap(), g.m());
        agg.absorb(&report.metrics, report.outcome.is_ok());
    }
    assert_eq!(agg.latency.count(), 101);
    assert_eq!(agg.latency.p50(), 1023);
    assert_eq!(agg.latency.p99(), 1023);
    assert_eq!(agg.latency.p999(), (1 << 20) - 1);
}

#[test]
fn merged_aggregates_preserve_exact_percentiles() {
    // Two shards of a fleet absorb disjoint session sets; merging the
    // aggregates yields the same pinned percentiles as one big absorb.
    let clock = ManualClock::new();
    let g = generators::path(3);
    let run = |dt: f64, agg: &mut AggregateMetrics| {
        let session = MultiRoundSession::new(&OneRoundAsMultiRound(EdgeCountProtocol), &g, 1)
            .with_clock(clock.clone() as SharedClock);
        clock.advance(dt);
        let report = OneRoundReport::from(session.run(&mut PerfectTransport::new()));
        agg.absorb(&report.metrics, report.outcome.is_ok());
    };
    let (mut a, mut b) = (AggregateMetrics::default(), AggregateMetrics::default());
    for _ in 0..9 {
        run(0.000_100, &mut a); // 100 µs → bucket bound 127
    }
    run(0.016_000, &mut b); // 16 000 µs → bucket bound 16383
    a.merge(&b);
    assert_eq!(a.latency.count(), 10);
    assert_eq!(a.latency.p50(), 127);
    assert_eq!(a.latency.p99(), 16383);
    assert_eq!(a.latency.quantile(0.9), 127);
}

#[test]
fn frozen_clock_pins_zero_latency_for_multiround() {
    // A multi-round session re-stamps its round timer from the clock at
    // every round, so under a ManualClock that never advances every
    // round takes *exactly* zero time: the histogram's one sample lands
    // in bucket 0 and every percentile is exactly 0 µs — the
    // deterministic zero point of the latency pipeline.
    use referee_protocol::multiround::BoruvkaConnectivity;
    let clock = ManualClock::new();
    let g = generators::cycle(6).unwrap();
    let session = MultiRoundSession::new(&BoruvkaConnectivity, &g, 32)
        .with_clock(clock.clone() as SharedClock);
    let report = session.run(&mut PerfectTransport::new());
    assert!(report.outcome.is_ok());
    let mut agg = AggregateMetrics::default();
    agg.absorb(&report.metrics, true);
    assert_eq!(agg.latency.count(), 1);
    assert_eq!(agg.latency.p50(), 0);
    assert_eq!(agg.latency.p999(), 0);
}
