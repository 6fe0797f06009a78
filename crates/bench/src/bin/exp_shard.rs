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
//!   the in-process sweep). The wire splits a session over
//!   `effective_shards(n, k)` ranges, so each protocol runs twice: a
//!   small fleet (unsplit at every k, no partials) and a large one
//!   (n ≥ 8 · `MIN_RANGE_NODES`, split k ways); both assert the exact
//!   partial count, one per non-collector range per round, and the
//!   exact wire shape: uplinks and downlinks travel as runs, one per
//!   session round each way, so a verify session moves 3 frames
//!   (announce, run, verdict) and a Borůvka session of `r` rounds
//!   `1 + r` client frames and `r` server frames (`r − 1` downlink runs
//!   and the verdict).
//!
//! Emits `BENCH_exp_shard.json` (sessions/s per shard count per backend;
//! the Borůvka rows carry a `-multiround` backend suffix, the large
//! fleets a `-large` one).
//!
//! Run: `cargo run --release -p referee-bench --bin exp_shard`

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_bench::{render_table, section, write_bench_json, BenchRecord, Percentiles};
use referee_graph::{generators, LabelledGraph};
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::multiround::BoruvkaConnectivity;
use referee_protocol::referee::local_phase;
use referee_protocol::shard::{effective_shards, nonempty_shards, MIN_RANGE_NODES};
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
    let p = (6.0 / min_n as f64).min(0.2);
    (0..count).map(|i| generators::gnp(min_n + i % span, p, &mut rng)).collect()
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
/// `truth`. The client must send exactly `frames.0` frames and the
/// server exactly `frames.1`. `row` checks and renders the
/// protocol-specific columns.
#[allow(clippy::too_many_arguments)]
fn wire_rows<T: Send + PartialEq + Debug>(
    backend: &str,
    key: AuthKey,
    truth: &[T],
    frames: (u64, u64),
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
        assert_eq!((c.frames_sent, s.frames_sent), frames, "{backend} k={shards}: wire shape");
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
            format!("{:.1}", (c.frames_sent + s.frames_sent) as f64 / sessions as f64),
        ];
        cells.extend(row(shards, &c, &s));
        rows.push(cells);
    }
    println!("{}", render_table(&rows));
    records
}

/// The partials a `k`-shard wire server hands its collector over
/// honest sessions of `(n, rounds)`: one per non-collector range per
/// round, a session of `n` nodes splitting over `effective_shards(n, k)`
/// ranges.
fn wire_partials(sessions: impl Iterator<Item = (usize, usize)>, k: usize) -> usize {
    sessions.map(|(n, rounds)| rounds * (nonempty_shards(n, effective_shards(n, k)) - 1)).sum()
}

/// EdgeCount over `graphs`: the simnet sweep at every shard count, then
/// the wire fleets. `suffix` names the fleet in the records' backends.
fn one_round(graphs: &[LabelledGraph], suffix: &str, records: &mut Vec<BenchRecord>) {
    let scheduler = Scheduler::new(8, 8);
    let sessions = graphs.len();
    section(&format!("simnet{suffix}: {sessions} EdgeCount sessions, scheduler 8×8"));
    let mono = scheduler.sweep_one_round(&EdgeCountProtocol, graphs, None);
    records.extend(simnet_rows(&format!("simnet{suffix}"), &mono, |k| {
        let sweep = scheduler.sweep_one_round_sharded(&EdgeCountProtocol, graphs, k, None);
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
        "wirenet{suffix}: {sessions}-session EdgeCount fleets verified by sharded servers"
    ));
    let key = AuthKey::from_seed(28);
    let truth: Vec<u64> = graphs
        .iter()
        .map(|g| vector_digest(&key, &local_phase(&EdgeCountProtocol, g)))
        .collect();
    // Announce + one uplink run out, the verdict back.
    let frames = (2 * sessions as u64, sessions as u64);
    records.extend(wire_rows(
        &format!("wirenet{suffix}"),
        key,
        &truth,
        frames,
        &[
            "shards",
            "conns",
            "sess/s",
            "frames/sess",
            "partials",
            "verdicts",
            "wire KiB",
            "mac-rej",
        ],
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
            let want = wire_partials(graphs.iter().map(|g| (g.n(), 1)), k);
            assert_eq!(s.partial_frames as usize, want, "k={k}");
            vec![
                s.partial_frames.to_string(),
                s.verdict_frames.to_string(),
                format!("{:.0}", (c.bytes_sent + c.bytes_received) as f64 / 1024.0),
                s.mac_rejects.to_string(),
            ]
        },
    ));
}

/// Borůvka over `graphs`, as [`one_round`] runs EdgeCount.
fn multi_round(graphs: &[LabelledGraph], suffix: &str, records: &mut Vec<BenchRecord>) {
    let scheduler = Scheduler::new(8, 8);
    let sessions = graphs.len();
    section(&format!("simnet{suffix}: {sessions} Borůvka sessions, scheduler 8×8"));
    let mono = scheduler.sweep_multi_round(&BoruvkaConnectivity, graphs, CAP, None);
    records.extend(simnet_rows(&format!("simnet-multiround{suffix}"), &mono, |k| {
        let sweep =
            scheduler.sweep_multi_round_sharded(&BoruvkaConnectivity, graphs, k, CAP, None);
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

    section(&format!(
        "wirenet{suffix}: {sessions}-session Borůvka fleets, sharded wire referee"
    ));
    let key = AuthKey::from_seed(29);
    let truth: Vec<bool> = mono
        .reports
        .iter()
        .map(|r| *r.outcome.as_ref().unwrap().as_ref().unwrap().as_ref().unwrap())
        .collect();
    let rounds: Vec<(usize, usize)> =
        graphs.iter().zip(&mono.reports).map(|(g, r)| (g.n(), r.metrics.rounds)).collect();
    // Per session of r rounds: the announce and r uplink runs out, r − 1
    // downlink runs and the verdict back.
    let total: u64 = rounds.iter().map(|&(_, r)| r as u64).sum();
    let frames = (sessions as u64 + total, total);
    records.extend(wire_rows(
        &format!("wirenet-multiround{suffix}"),
        key,
        &truth,
        frames,
        &[
            "shards",
            "conns",
            "sess/s",
            "frames/sess",
            "partials",
            "downlinks",
            "verdicts",
            "mac-rej",
        ],
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
        |k, _, s| {
            let want = wire_partials(rounds.iter().copied(), k);
            assert_eq!(s.partial_frames as usize, want, "k={k}");
            assert_eq!(s.downlink_frames, total - sessions as u64, "k={k}: one run per round");
            vec![
                s.partial_frames.to_string(),
                s.downlink_frames.to_string(),
                s.verdict_frames.to_string(),
                s.mac_rejects.to_string(),
            ]
        },
    ));
}

fn main() {
    println!("# E28: sharded referee — mergeable partial states, in-memory and on the wire");
    println!("# expectation: outcomes identical at every shard count (merge is commutative");
    println!("# and associative); exchange overhead grows with rounds × k; one-round");
    println!("# verification stays in the same order of magnitude as the echo fleet, and");
    println!("# multi-round wire throughput is bounded by the per-round round trips.");
    println!("# The wire splits a session of n nodes over min(k, ⌈n / {MIN_RANGE_NODES}⌉)");
    println!("# ranges: the small fleets run unsplit at every k, the large ones split k ways.");

    let mut records: Vec<BenchRecord> = Vec::new();
    let large = SHARD_COUNTS[SHARD_COUNTS.len() - 1] * MIN_RANGE_NODES;

    // ---- one-round EdgeCount ------------------------------------------
    let small = fleet(1000, 12, 20, 2028);
    assert_eq!(wire_partials(small.iter().map(|g| (g.n(), 1)), 8), 0);
    one_round(&small, "", &mut records);
    let split = fleet(200, large, 20, 2030);
    assert_eq!(wire_partials(split.iter().map(|g| (g.n(), 1)), 8), split.len() * 7);
    one_round(&split, "-large", &mut records);

    // ---- multi-round Borůvka ------------------------------------------
    multi_round(&fleet(600, 8, 16, 2029), "", &mut records);
    multi_round(&fleet(40, large, 16, 2031), "-large", &mut records);

    let json = write_bench_json("exp_shard", &records).expect("write BENCH json");
    println!("\nmachine-readable results: {}", json.display());
    println!("sharded-referee experiments completed ✓");
}
