//! E30 (systems side): cross-host shard placement — the sharded
//! referee with in-process workers vs the same shards placed on remote
//! shard hosts (real loopback sockets, per-shard keys, journal/replay),
//! swept over k = 1/2/4/8.
//!
//! Expectation: outcomes identical (digests pin the assembled vectors
//! either way); remote placement pays one extra socket hop per shard
//! partial, so throughput lands below in-process but stays in the same
//! order of magnitude — that gap is the price of shards that can live
//! on other machines. A session splits over `effective_shards(n, k)`
//! ranges, so a small fleet (every session on shard 0) and a large one
//! (n ≥ 8 · `MIN_RANGE_NODES`, split k ways) both run. The rows
//! self-assert the exact partial counts — in process one per
//! non-collector range per session, remote one forwarded per non-empty
//! range per session — that every host partial decodes, that a
//! kill-free run replays nothing, and, on every remote row, both frame
//! identities: once its traffic settles, the coordinator wrote exactly
//! the frames its client and hosts read, and read exactly the frames
//! they wrote.
//!
//! Run: `cargo run --release -p referee-bench --bin exp_placement`

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_bench::{render_table, section, write_bench_json, BenchRecord, Percentiles};
use referee_graph::{generators, LabelledGraph};
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::referee::local_phase;
use referee_protocol::shard::{effective_shards, nonempty_shards, MIN_RANGE_NODES};
use referee_protocol::HistSnapshot;
use referee_simnet::{Scheduler, SessionId};
use referee_wirenet::{
    vector_digest, AuthKey, FleetClient, FleetServer, PlacementPolicy, RemotePlacement,
    ShardHost, Stage, WireSnapshot,
};
use std::time::{Duration, Instant};

fn fleet(count: usize, min_n: usize, span: usize, seed: u64) -> Vec<LabelledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = (6.0 / min_n as f64).min(0.2);
    (0..count).map(|i| generators::gnp(min_n + i % span, p, &mut rng)).collect()
}

/// Ranges a `k`-shard deployment splits each session of `graphs` over.
fn ranges(graphs: &[LabelledGraph], k: usize) -> impl Iterator<Item = usize> + '_ {
    graphs.iter().map(move |g| nonempty_shards(g.n(), effective_shards(g.n(), k)))
}

/// Wait (up to 10 s) for the coordinator's frame counts to settle on
/// what its client `c` and its `hosts` counted from the other end:
/// `frames_sent == client received + Σ host received` and
/// `frames_received == client sent + Σ host sent`. The client's
/// disconnect still sends each host a `Retire`, and each host answers
/// with a trace segment, so the identities hold only once that settles.
fn assert_frame_identities(
    label: &str,
    c: &WireSnapshot,
    server: &FleetServer,
    hosts: &[ShardHost],
) {
    let counts = || {
        let s = server.metrics();
        let host_received: u64 = hosts.iter().map(|h| h.metrics().frames_received).sum();
        let host_sent: u64 = hosts.iter().map(|h| h.metrics().frames_sent).sum();
        (
            (s.frames_sent, c.frames_received + host_received),
            (s.frames_received, c.frames_sent + host_sent),
        )
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (sent, received) = counts();
        if sent.0 == sent.1 && received.0 == received.1 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{label}: coordinator frames sent {} vs read by client + hosts {}; \
             read {} vs written by client + hosts {}",
            sent.0,
            sent.1,
            received.0,
            received.1
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Run `graphs` as one-round sessions through in-process and remote
/// deployments of 1/2/4/8 shards; `suffix` names the fleet in the
/// records' backends.
fn sweep(graphs: &[LabelledGraph], suffix: &str, records: &mut Vec<BenchRecord>) {
    let sessions = graphs.len();
    let scheduler = Scheduler::new(8, 8);
    let key = AuthKey::from_seed(30);
    let truth: Vec<u64> = graphs
        .iter()
        .map(|g| vector_digest(&key, &local_phase(&EdgeCountProtocol, g)))
        .collect();
    let mut rows =
        vec![["backend", "shards", "hosts", "sess/s", "partials", "replays", "mac-rej"]
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>()];

    let run = |server: &FleetServer| -> (f64, Vec<u64>, WireSnapshot) {
        let client = FleetClient::connect(server.addr(), 8, key).expect("connect");
        let t0 = Instant::now();
        let digests: Vec<u64> = scheduler.run_indexed(sessions, |i| {
            let g = &graphs[i];
            let arrivals = local_phase(&EdgeCountProtocol, g)
                .into_iter()
                .enumerate()
                .map(|(j, m)| (j as u32 + 1, m));
            client
                .verify_session(SessionId(i as u64), g.n(), arrivals)
                .expect("honest session verifies")
        });
        (t0.elapsed().as_secs_f64(), digests, client.metrics())
    };

    let min_n = graphs.iter().map(LabelledGraph::n).min().unwrap_or(0);
    section(&format!("{sessions}-session fleets, n ≥ {min_n}, in-process shard workers"));
    for shards in [1usize, 2, 4, 8] {
        let server = FleetServer::spawn_sharded(key, shards).expect("bind");
        let (wall, digests, c) = run(&server);
        assert_eq!(digests, truth, "in-process digests must pin the sent vectors");
        let s = server.stop();
        assert_eq!(s.mac_rejects, 0);
        // Every range but the collector's hands over one partial.
        let handed: usize = ranges(graphs, shards).map(|r| r - 1).sum();
        assert_eq!(s.partial_frames as usize, handed, "k={shards}: in-process partials");
        records.push(
            BenchRecord::new(&format!("wirenet{suffix}"), shards, sessions as f64 / wall)
                .with_percentiles(Percentiles::from_hist(c.stage(Stage::Verdict))),
        );
        rows.push(vec![
            "in-process".into(),
            shards.to_string(),
            "-".into(),
            format!("{:.0}", sessions as f64 / wall),
            s.partial_frames.to_string(),
            "-".into(),
            s.mac_rejects.to_string(),
        ]);
    }

    section(&format!("{sessions}-session fleets, n ≥ {min_n}, shards on 2 remote hosts"));
    for shards in [1usize, 2, 4, 8] {
        let hosts: Vec<ShardHost> =
            (0..2).map(|_| ShardHost::spawn(key).expect("bind shard host")).collect();
        let placement = RemotePlacement::new(
            PlacementPolicy::balanced(shards, &[0, 1]),
            hosts.iter().enumerate().map(|(i, h)| (i as u32, h.addr())),
        )
        .expect("addresses cover");
        let server =
            FleetServer::builder(key).placement(placement).spawn().expect("bind coordinator");
        let (wall, digests, c) = run(&server);
        assert_eq!(digests, truth, "remote digests must pin the sent vectors");
        assert_frame_identities(&format!("k={shards}"), &c, &server, &hosts);
        let s = server.stop();
        assert_eq!(s.mac_rejects, 0);
        assert_eq!(s.decode_rejects, 0, "every host partial must decode");
        assert_eq!(s.replayed_frames, 0, "k={shards}: no host died, so nothing replays");
        // One forwarded partial per non-empty range per session.
        let forwarded: usize = ranges(graphs, shards).sum();
        assert_eq!(s.partial_frames as usize, forwarded, "k={shards}: forwarded partials");
        let sent: u64 = hosts.iter().map(|h| h.metrics().partial_frames).sum();
        assert_eq!(sent as usize, forwarded, "k={shards}: host partial frames");
        records.push(
            BenchRecord::new(&format!("remote{suffix}"), shards, sessions as f64 / wall)
                .with_percentiles(Percentiles::from_hist(c.stage(Stage::Verdict))),
        );
        // Ship each host's range-wait histogram back over the encoded
        // wire layout (exactly what a telemetry frame would carry) and
        // merge them — the cross-host analogue of PartialState merging.
        let mut range_wait = HistSnapshot::new();
        for h in &hosts {
            let over_wire =
                HistSnapshot::decode(&h.metrics().stage(Stage::UplinksComplete).encode())
                    .expect("canonical histogram layout round-trips");
            range_wait.merge(&over_wire);
        }
        if range_wait.count() > 0 {
            println!("  k={shards}: host-side range wait {range_wait}");
        }
        rows.push(vec![
            "remote".into(),
            shards.to_string(),
            "2".into(),
            format!("{:.0}", sessions as f64 / wall),
            s.partial_frames.to_string(),
            s.replayed_frames.to_string(),
            s.mac_rejects.to_string(),
        ]);
        drop(hosts);
    }
    println!("{}", render_table(&rows));
}

fn main() {
    println!("# E30: cross-host shard placement — in-process vs remote shard hosts");
    println!("# expectation: identical digests; remote pays one socket hop per partial.");
    println!("# A session of n nodes splits over min(k, ⌈n / {MIN_RANGE_NODES}⌉) ranges: the");
    println!("# small fleet runs on shard 0 alone at every k, the large one splits k ways.");

    let mut records: Vec<BenchRecord> = Vec::new();
    let small = fleet(600, 12, 20, 2031);
    assert!(ranges(&small, 8).all(|r| r == 1));
    sweep(&small, "", &mut records);
    let large = fleet(100, 8 * MIN_RANGE_NODES, 20, 2032);
    assert!(ranges(&large, 8).all(|r| r == 8));
    sweep(&large, "-large", &mut records);

    let json = write_bench_json("exp_placement", &records).expect("write BENCH json");
    println!("\nmachine-readable results: {}", json.display());
    println!("placement experiments completed ✓");
}
