//! E28 (systems side): the sharded referee — 1/2/4/8 shards swept
//! through both backends, for a one-round protocol (EdgeCount) and a
//! multi-round one (Borůvka connectivity).
//!
//! * **simnet**: one session engine. `Scheduler::sweep_one_round_sharded`
//!   runs EdgeCount as the cap-1 `MultiRoundSession` with `k` shards and
//!   `Scheduler::sweep_multi_round_sharded` runs Borůvka. Shard 0 merges
//!   by value, so the exchange costs `k − 1` serialized partials per
//!   round through the transport — none at `k = 1`, the same shape as
//!   wirenet's `k − 1` partial frames per session (both asserted).
//!   Outcomes are pinned against the monolithic sweep, and exchange
//!   overhead is accounted in bits.
//! * **wirenet**: one sharded wire engine. `FleetServer::spawn_sharded`
//!   verifies EdgeCount fleets through `verify_session` (verdict digests
//!   pin the sent vectors); `FleetServer::spawn_multiround` referees
//!   Borůvka through `run_multiround_session` (verdicts pinned against
//!   the in-process sweep).
//!
//! Emits `BENCH_exp_shard.json` (sessions/s per shard count per backend;
//! the Borůvka rows carry a `-multiround` backend suffix).
//!
//! Run: `cargo run --release -p referee-bench --bin exp_shard`

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_bench::{render_table, section, write_bench_json, BenchRecord, Percentiles};
use referee_graph::{generators, LabelledGraph};
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::multiround::BoruvkaConnectivity;
use referee_protocol::referee::local_phase;
use referee_simnet::scheduler::Report;
use referee_simnet::{Scheduler, SessionId, SweepReport};
use referee_wirenet::{
    boruvka_connectivity_service, decode_bool_output, vector_digest, AuthKey, FleetClient,
    FleetServer, Stage, WireSnapshot,
};
use std::fmt::Debug;
use std::time::Instant;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const CONNS: usize = 8;
const CAP: usize = 64;

fn fleet(count: usize, min_n: usize, span: usize, seed: u64) -> Vec<LabelledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|i| generators::gnp(min_n + i % span, 0.2, &mut rng)).collect()
}

fn header(cols: &[&str]) -> Vec<Vec<String>> {
    vec![cols.iter().map(|c| c.to_string()).collect()]
}

/// The simnet table for one protocol: the monolithic sweep's row, then
/// one row per shard count. `sharded(k)` runs the k-shard sweep, pins
/// its outcomes to `mono`'s and returns it with its total exchange bits.
fn simnet_rows<S: Report>(
    backend: &str,
    mono: &SweepReport<impl Report>,
    sharded: impl Fn(usize) -> (SweepReport<S>, usize),
) -> Vec<BenchRecord> {
    let sessions = mono.reports.len();
    assert_eq!(mono.aggregate.ok, sessions);
    let rate = |wall: f64| format!("{:.0}", sessions as f64 / wall);
    let mut records = Vec::new();
    let mut rows = header(&["shards", "ok", "rejected", "exchange KiB", "sess/s"]);
    rows.push(vec![
        "1 (monolithic)".into(),
        mono.aggregate.ok.to_string(),
        mono.aggregate.rejected.to_string(),
        "-".into(),
        rate(mono.aggregate.wall_seconds),
    ]);
    for shards in SHARD_COUNTS {
        let (sweep, bits) = sharded(shards);
        assert_eq!(bits > 0, shards > 1, "{backend}: k={shards} ships k − 1 partials");
        let wall = sweep.aggregate.wall_seconds;
        records.push(
            BenchRecord::new(backend, shards, sessions as f64 / wall)
                .with_percentiles(Percentiles::from_hist(&sweep.aggregate.latency)),
        );
        rows.push(vec![
            shards.to_string(),
            sweep.aggregate.ok.to_string(),
            sweep.aggregate.rejected.to_string(),
            format!("{:.0}", bits as f64 / 8.0 / 1024.0),
            rate(wall),
        ]);
    }
    println!("{}", render_table(&rows));
    records
}

/// One wire fleet per shard count: `spawn(k)` starts the server,
/// `run(client, i)` drives session `i`, and the results must equal
/// `truth`. `row` checks and renders the protocol-specific columns.
fn wire_rows<T: Send + PartialEq + Debug>(
    backend: &str,
    key: AuthKey,
    truth: &[T],
    cols: &[&str],
    spawn: impl Fn(usize) -> FleetServer,
    run: impl Fn(&FleetClient, usize) -> T + Sync,
    row: impl Fn(usize, &WireSnapshot, &WireSnapshot) -> Vec<String>,
) -> Vec<BenchRecord> {
    let sessions = truth.len();
    let scheduler = Scheduler::new(8, 8);
    let mut records = Vec::new();
    let mut rows = header(cols);
    for shards in SHARD_COUNTS {
        let server = spawn(shards);
        let client = FleetClient::connect(server.addr(), CONNS, key).expect("connect");
        let t0 = Instant::now();
        let results: Vec<T> = scheduler.run_indexed(sessions, |i| run(&client, i));
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(results, truth, "{backend}: wire results must pin the expected ones");
        let c = client.metrics();
        let s = server.stop();
        assert_eq!(s.mac_rejects, 0);
        assert_eq!(s.verdict_frames as usize, sessions);
        // The client stamps announce→verdict per session into its
        // Verdict stage histogram — the end-to-end wire latency.
        records.push(
            BenchRecord::new(backend, shards, sessions as f64 / wall)
                .with_percentiles(Percentiles::from_hist(c.stage(Stage::Verdict))),
        );
        let mut cells = vec![
            shards.to_string(),
            CONNS.to_string(),
            format!("{:.0}", sessions as f64 / wall),
        ];
        cells.extend(row(shards, &c, &s));
        rows.push(cells);
    }
    println!("{}", render_table(&rows));
    records
}

fn main() {
    println!("# E28: sharded referee — mergeable partial states, in-memory and on the wire");
    println!("# expectation: outcomes identical at every shard count (merge is commutative");
    println!("# and associative); exchange overhead grows with rounds × k; one-round");
    println!("# verification stays in the same order of magnitude as the echo fleet, and");
    println!("# multi-round wire throughput is bounded by the per-round round trips.");

    let scheduler = Scheduler::new(8, 8);
    let mut records: Vec<BenchRecord> = Vec::new();

    // ---- one-round EdgeCount ------------------------------------------
    let sessions = 1000usize;
    let graphs = fleet(sessions, 12, 20, 2028);
    section(&format!("simnet: {sessions} EdgeCount sessions, scheduler 8×8"));
    let mono = scheduler.sweep_one_round(&EdgeCountProtocol, &graphs, None);
    records.extend(simnet_rows("simnet", &mono, |k| {
        let sweep = scheduler.sweep_one_round_sharded(&EdgeCountProtocol, &graphs, k, None);
        for (s, m) in sweep.reports.iter().zip(&mono.reports) {
            assert_eq!(
                s.outcome.as_ref().unwrap(),
                m.outcome.as_ref().unwrap(),
                "sharded outcome diverged at k={k}"
            );
        }
        let bits = sweep.reports.iter().map(|r| r.exchange_bits).sum();
        (sweep, bits)
    }));

    section(&format!(
        "wirenet: {sessions}-session EdgeCount fleets verified by sharded servers"
    ));
    let key = AuthKey::from_seed(28);
    let truth: Vec<u64> = graphs
        .iter()
        .map(|g| vector_digest(&key, &local_phase(&EdgeCountProtocol, g)))
        .collect();
    records.extend(wire_rows(
        "wirenet",
        key,
        &truth,
        &["shards", "conns", "sess/s", "partials", "verdicts", "wire KiB", "mac-rej"],
        |k| FleetServer::spawn_sharded(key, k).expect("bind"),
        |client, i| {
            let g = &graphs[i];
            let arrivals = local_phase(&EdgeCountProtocol, g)
                .into_iter()
                .enumerate()
                .map(|(j, m)| (j as u32 + 1, m));
            client
                .verify_session(SessionId(i as u64), g.n(), arrivals)
                .expect("honest session verifies")
        },
        |k, c, s| {
            assert_eq!(s.partial_frames as usize, sessions * (k - 1));
            vec![
                s.partial_frames.to_string(),
                s.verdict_frames.to_string(),
                format!("{:.0}", (c.bytes_sent + c.bytes_received) as f64 / 1024.0),
                s.mac_rejects.to_string(),
            ]
        },
    ));

    // ---- multi-round Borůvka ------------------------------------------
    let sessions = 600usize;
    let graphs = fleet(sessions, 8, 16, 2029);
    section(&format!("simnet: {sessions} Borůvka sessions, scheduler 8×8"));
    let mono = scheduler.sweep_multi_round(&BoruvkaConnectivity, &graphs, CAP, None);
    records.extend(simnet_rows("simnet-multiround", &mono, |k| {
        let sweep =
            scheduler.sweep_multi_round_sharded(&BoruvkaConnectivity, &graphs, k, CAP, None);
        for (s, m) in sweep.reports.iter().zip(&mono.reports) {
            assert_eq!(
                s.outcome.as_ref().unwrap(),
                m.outcome.as_ref().unwrap(),
                "sharded multi-round outcome diverged at k={k}"
            );
        }
        let bits = sweep.reports.iter().map(|r| r.exchange_bits).sum();
        (sweep, bits)
    }));

    section(&format!("wirenet: {sessions}-session Borůvka fleets, sharded wire referee"));
    let key = AuthKey::from_seed(29);
    let truth: Vec<bool> = mono
        .reports
        .iter()
        .map(|r| *r.outcome.as_ref().unwrap().as_ref().unwrap().as_ref().unwrap())
        .collect();
    records.extend(wire_rows(
        "wirenet-multiround",
        key,
        &truth,
        &["shards", "conns", "sess/s", "partials", "downlinks", "verdicts", "mac-rej"],
        |k| {
            FleetServer::spawn_multiround(key, k, boruvka_connectivity_service()).expect("bind")
        },
        |client, i| {
            let out = client
                .run_multiround_session(
                    SessionId(i as u64),
                    &BoruvkaConnectivity,
                    &graphs[i],
                    CAP,
                )
                .expect("honest session completes");
            decode_bool_output(&out).expect("honest uplinks decode")
        },
        |_, _, s| {
            vec![
                s.partial_frames.to_string(),
                s.downlink_frames.to_string(),
                s.verdict_frames.to_string(),
                s.mac_rejects.to_string(),
            ]
        },
    ));

    let json = write_bench_json("exp_shard", &records).expect("write BENCH json");
    println!("\nmachine-readable results: {}", json.display());
    println!("sharded-referee experiments completed ✓");
}
