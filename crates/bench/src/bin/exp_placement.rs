//! E30 (systems side): cross-host shard placement — the sharded
//! referee with in-process workers vs the same shards placed on remote
//! shard hosts (real loopback sockets, per-shard keys, journal/replay),
//! swept over k = 1/2/4/8.
//!
//! Expectation: outcomes identical (digests pin the assembled vectors
//! either way); remote placement pays one extra socket hop per shard
//! partial, so throughput lands below in-process but stays in the same
//! order of magnitude — that gap is the price of shards that can live
//! on other machines. The remote rows self-assert that every host
//! partial decodes and that the coordinator forwards exactly one per
//! non-empty shard range per session.
//!
//! Run: `cargo run --release -p referee-bench --bin exp_placement`

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_bench::{render_table, section, write_bench_json, BenchRecord, Percentiles};
use referee_graph::{generators, LabelledGraph};
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::referee::local_phase;
use referee_protocol::shard::nonempty_shards;
use referee_protocol::HistSnapshot;
use referee_simnet::{Scheduler, SessionId};
use referee_wirenet::{
    vector_digest, AuthKey, FleetClient, FleetServer, PlacementPolicy, RemotePlacement,
    ShardHost, Stage, WireSnapshot,
};
use std::time::Instant;

fn fleet(count: usize, seed: u64) -> Vec<LabelledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|i| generators::gnp(12 + i % 20, 0.2, &mut rng)).collect()
}

fn main() {
    println!("# E30: cross-host shard placement — in-process vs remote shard hosts");
    println!("# expectation: identical digests; remote pays one socket hop per partial.");

    let sessions = 600usize;
    let graphs = fleet(sessions, 2031);
    let scheduler = Scheduler::new(8, 8);
    let key = AuthKey::from_seed(30);
    let truth: Vec<u64> = graphs
        .iter()
        .map(|g| vector_digest(&key, &local_phase(&EdgeCountProtocol, g)))
        .collect();
    let mut records: Vec<BenchRecord> = Vec::new();
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

    section(&format!("{sessions}-session fleets, in-process shard workers"));
    for shards in [1usize, 2, 4, 8] {
        let server = FleetServer::spawn_sharded(key, shards).expect("bind");
        let (wall, digests, c) = run(&server);
        assert_eq!(digests, truth, "in-process digests must pin the sent vectors");
        let s = server.stop();
        assert_eq!(s.mac_rejects, 0);
        records.push(
            BenchRecord::new("wirenet", shards, sessions as f64 / wall)
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

    section(&format!("{sessions}-session fleets, shards placed on 2 remote hosts"));
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
        let s = server.stop();
        assert_eq!(s.mac_rejects, 0);
        assert_eq!(s.decode_rejects, 0, "every host partial must decode");
        // One forwarded partial per non-empty shard range per session.
        let ranges: usize = graphs.iter().map(|g| nonempty_shards(g.n(), shards)).sum();
        assert_eq!(s.partial_frames as usize, ranges, "k={shards}: forwarded partials");
        records.push(
            BenchRecord::new("remote", shards, sessions as f64 / wall)
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

    let json = write_bench_json("exp_placement", &records).expect("write BENCH json");
    println!("\nmachine-readable results: {}", json.display());
    println!("placement experiments completed ✓");
}
