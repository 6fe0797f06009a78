//! E27 (systems side): wirenet loopback throughput — the same session
//! fleet driven in-memory and over real TCP with 1/2/4/8 multiplexed
//! connections, plus the cost accounting of the wire (frames, bytes,
//! MAC rejects, backpressure stalls).
//!
//! Run: `cargo run --release -p referee-bench --bin exp_wirenet`

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_bench::{render_table, section, write_bench_json_axis, BenchRecord, Percentiles};
use referee_graph::{generators, LabelledGraph};
use referee_protocol::combinators::OneRoundAsMultiRound;
use referee_protocol::easy::EdgeCountProtocol;
use referee_simnet::{
    AggregateMetrics, MultiRoundSession, OneRoundReport, Scheduler, SessionId,
};
use referee_wirenet::{AuthKey, FleetClient, FleetServer, TamperConfig, TRACE_CAPACITY_ENV};
use std::time::Instant;

fn fleet(count: usize, seed: u64) -> Vec<LabelledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|i| generators::gnp(12 + i % 20, 0.2, &mut rng)).collect()
}

fn main() {
    println!("# E27: wirenet — simnet fleets over real loopback sockets");
    println!("# expectation: outcomes identical to in-memory runs; throughput within an");
    println!("# order of magnitude of in-memory despite every envelope crossing TCP twice.");

    let sessions = 1000usize;
    let graphs = fleet(sessions, 2027);
    let truth: Vec<usize> = graphs.iter().map(|g| g.m()).collect();
    let scheduler = Scheduler::new(8, 8);
    let key = AuthKey::from_seed(9);
    let mut records: Vec<BenchRecord> = Vec::new();

    section(&format!("{sessions} EdgeCount sessions, scheduler 8×8"));
    let mut rows = vec![[
        "backend", "conns", "sess/s", "frames", "wire KiB", "fr/write", "mac-rej", "stalls",
    ]
    .into_iter()
    .map(String::from)
    .collect::<Vec<_>>()];

    // In-memory baseline.
    let t0 = Instant::now();
    let sweep = scheduler.sweep_one_round(&EdgeCountProtocol, &graphs, None);
    let wall = t0.elapsed().as_secs_f64();
    for (report, &m) in sweep.reports.iter().zip(&truth) {
        assert_eq!(*report.outcome.as_ref().unwrap().as_ref().unwrap(), m);
    }
    records.push(
        BenchRecord::new("in-memory", 0, sessions as f64 / wall)
            .with_percentiles(Percentiles::from_hist(&sweep.aggregate.latency)),
    );
    rows.push(vec![
        "in-memory".into(),
        "-".into(),
        format!("{:.0}", sessions as f64 / wall),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    // Wirenet with growing connection pools, swept twice: with the
    // flight recorder at its default capacity ("wirenet") and fully
    // disabled ("wirenet-notrace", REFEREE_TRACE_CAPACITY=0). Both
    // modes land in the JSON so CI history tracks the recorder's cost.
    //
    // Variance control: every configuration first runs an untimed
    // quarter-fleet warmup (primes sockets, allocator arenas and branch
    // predictors), then records the best of 3 timed trials — loopback
    // throughput on shared CI is noisy, and the max is the estimator
    // least disturbed by a descheduled trial.
    const TRIALS: usize = 3;
    let mut best = [0.0f64; 2];
    for (mode, backend) in ["wirenet", "wirenet-notrace"].into_iter().enumerate() {
        if mode == 1 {
            std::env::set_var(TRACE_CAPACITY_ENV, "0");
        }
        for conns in [1usize, 2, 4, 8] {
            let server = FleetServer::spawn(key).expect("bind");
            let client = FleetClient::connect(server.addr(), conns, key).expect("connect");
            let run_fleet = |count: usize| {
                scheduler.run_indexed(count, |i| {
                    let id = SessionId(i as u64);
                    let mut transport = client.transport(id);
                    OneRoundReport::from(
                        MultiRoundSession::new(
                            &OneRoundAsMultiRound(EdgeCountProtocol),
                            &graphs[i],
                            1,
                        )
                        .with_session(id)
                        .run(&mut transport),
                    )
                })
            };
            run_fleet(sessions / 4); // warmup, untimed
            let mut best_rate = 0.0f64;
            let mut best_agg = AggregateMetrics::default();
            for _ in 0..TRIALS {
                let t0 = Instant::now();
                let reports = run_fleet(sessions);
                let wall = t0.elapsed().as_secs_f64();
                let mut agg = AggregateMetrics::default();
                for (report, &m) in reports.iter().zip(&truth) {
                    assert_eq!(*report.outcome.as_ref().unwrap().as_ref().unwrap(), m);
                    agg.absorb(&report.metrics, report.outcome.is_ok());
                }
                let rate = sessions as f64 / wall;
                if rate > best_rate {
                    best_rate = rate;
                    best_agg = agg;
                }
            }
            let c = client.metrics();
            let s = server.stop();
            assert_eq!(s.mac_rejects, 0);
            assert_eq!(c.frames_received, c.frames_sent, "every frame echoed");
            if mode == 1 {
                assert_eq!(c.trace_drops, 0, "a disabled recorder records (and drops) nothing");
            }
            best[mode] = best[mode].max(best_rate);
            records.push(
                BenchRecord::new(backend, conns, best_rate)
                    .with_percentiles(Percentiles::from_hist(&best_agg.latency)),
            );
            rows.push(vec![
                backend.into(),
                conns.to_string(),
                format!("{best_rate:.0}"),
                c.frames_sent.to_string(),
                format!("{:.0}", (c.bytes_sent + c.bytes_received) as f64 / 1024.0),
                format!("{:.1}", c.frames_per_write()),
                s.mac_rejects.to_string(),
                c.backpressure_stalls.to_string(),
            ]);
        }
    }
    std::env::remove_var(TRACE_CAPACITY_ENV);
    println!("{}", render_table(&rows));

    // Overhead guard: recording into the lock-free ring must be free at
    // this granularity. The bound is deliberately loose (loopback
    // throughput on shared CI is noisy) — it exists to catch a future
    // change that puts real work (allocation, locking, I/O) on the
    // trace path, not to police scheduler jitter.
    let ratio = best[0] / best[1];
    println!(
        "trace overhead: best traced {:.0} sess/s vs best untraced {:.0} sess/s \
         (ratio {ratio:.2})",
        best[0], best[1]
    );
    assert!(
        ratio > 0.4,
        "tracing cost a {:.0}% throughput hit — the recorder is no longer cheap",
        (1.0 - ratio) * 100.0
    );

    section("corruption sweep: every 2nd frame tampered, 32 sessions / 32 conns");
    let server = FleetServer::spawn(key).expect("bind");
    let client = FleetClient::connect(server.addr(), 32, key)
        .expect("connect")
        .with_tamper(TamperConfig { flip_every: 2 });
    let mut rejected = 0usize;
    for (i, g) in graphs.iter().take(32).enumerate() {
        let id = SessionId(i as u64);
        let mut transport = client.transport(id);
        let report = OneRoundReport::from(
            MultiRoundSession::new(&OneRoundAsMultiRound(EdgeCountProtocol), g, 1)
                .with_session(id)
                .run(&mut transport),
        );
        match report.outcome {
            Err(_) => rejected += 1,
            Ok(out) => assert_eq!(*out.as_ref().unwrap(), g.m(), "computed on garbage"),
        }
    }
    let c = client.metrics();
    let s = server.stop();
    println!(
        "tampered {} | server mac-rejects {} | sessions failed closed {rejected}/32 | \
         accepted frames all authentic ✓",
        c.tampered, s.mac_rejects
    );
    assert!(s.mac_rejects > 0);
    assert_eq!(s.frames_received, s.frames_sent);

    // The sweep axis here is the connection-pool size, not a shard
    // count — the JSON names it accordingly ("in-memory" carries 0).
    let json =
        write_bench_json_axis("exp_wirenet", "conns", &records).expect("write BENCH json");
    println!("\nmachine-readable results: {}", json.display());
    println!("wirenet experiments completed ✓");
}
