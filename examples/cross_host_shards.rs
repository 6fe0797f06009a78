//! Cross-host shard placement over **real child processes** — the PR 5
//! acceptance demo and CI soak.
//!
//! The parent process re-executes itself twice in the `shard-host`
//! role: each child binds a loopback listener, prints its address, and
//! serves shard state until it is killed. The parent then runs a
//! `FleetServer` in **remote placement** mode (4 shards placed on the
//! 2 child hosts), drives a fleet of multi-round Borůvka sessions
//! against it, and — mid-run, on a seeded schedule — SIGKILLs a child
//! and respawns it on a fresh port, re-pointing the placement's address
//! book. The coordinator's journal replay must make every kill
//! invisible: **all** verdicts are asserted bit-for-bit equal to
//! in-process `run_multiround_sharded` and to the centralized truth.
//!
//! Phase 2 repeats the wire-tamper adversary against the remote-shard
//! topology: every third client frame is corrupted after MAC
//! computation; every tampered frame must die at the router, and zero
//! corrupted sessions may be accepted.
//!
//! Run: `cargo run --release --example cross_host_shards`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use referee_bench::{Percentiles, SloCheck};
use referee_one_round::prelude::*;
use referee_one_round::protocol::multiround::BoruvkaConnectivity;
use referee_one_round::protocol::shard::multiround::run_multiround_sharded;
use referee_one_round::protocol::shard::{effective_shards, nonempty_shards, MIN_RANGE_NODES};
use referee_one_round::protocol::trace::{
    dump_if_armed, wall_clock_us, FlightRecorder, TraceKind, TraceSnapshot,
};
use referee_simnet::{ManualClock, PlacementSim, Scheduler, SessionId};
use referee_wirenet::{
    boruvka_connectivity_service, decode_bool_output, trace_endpoint, AuthKey, FleetClient,
    FleetServer, PlacementPolicy, RemotePlacement, ShardHost, Stage, TamperConfig,
};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const KEY_SEED: u64 = 2031;
const SHARDS: usize = 4;
const SESSIONS: usize = 300;
const CAP: usize = 64;

/// Child role: serve shard state until killed, announcing the bound
/// address on stdout so the parent can place shards on us.
fn shard_host_role() -> ! {
    let host = ShardHost::spawn_env(AuthKey::from_seed(KEY_SEED)).expect("bind shard host");
    println!("SHARD_HOST_LISTENING {}", host.addr());
    // An unkillable flush: the parent blocks on this line.
    use std::io::Write;
    std::io::stdout().flush().expect("flush address line");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Spawn one shard-host child process and read back its address.
fn spawn_host() -> (Child, SocketAddr) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = Command::new(exe)
        .arg("shard-host")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn shard-host child");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("child announces its address");
    let addr = line
        .trim()
        .strip_prefix("SHARD_HOST_LISTENING ")
        .expect("address line format")
        .parse()
        .expect("child printed a socket address");
    (child, addr)
}

/// Mostly small graphs, which run on shard 0 (host 0) alone, and every
/// 15th one large enough to split over all [`SHARDS`] shards, so both
/// hosts' kills hit live ranges.
fn fleet_graphs(count: usize, seed: u64) -> Vec<LabelledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let large = SHARDS * MIN_RANGE_NODES;
    (0..count)
        .map(|i| match i % 15 {
            14 => generators::gnp(large + i % 7, 6.0 / large as f64, &mut rng),
            _ => generators::gnp(5 + i % 18, 0.22, &mut rng),
        })
        .collect()
}

/// Kill every child on exit, success or panic.
struct Reaper(Arc<Mutex<Vec<Child>>>);
impl Drop for Reaper {
    fn drop(&mut self) {
        for child in self.0.lock().unwrap().iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("shard-host") {
        shard_host_role();
    }
    let key = AuthKey::from_seed(KEY_SEED);
    let children = Arc::new(Mutex::new(Vec::new()));
    let _reaper = Reaper(Arc::clone(&children));

    // ---- Phase 1: seeded kill/restart chaos over real processes -------
    let (c0, a0) = spawn_host();
    let (c1, a1) = spawn_host();
    {
        let mut kids = children.lock().unwrap();
        kids.push(c0);
        kids.push(c1);
    }
    let policy = PlacementPolicy::balanced(SHARDS, &[0, 1]);
    let placement = RemotePlacement::new(policy, [(0, a0), (1, a1)]).expect("addresses cover");
    let server = FleetServer::builder(key)
        .placement(placement.clone())
        .multiround(boruvka_connectivity_service())
        .spawn()
        .expect("bind coordinator");
    let client = FleetClient::connect(server.addr(), 4, key).expect("connect");
    println!(
        "phase 1: {SESSIONS} multi-round Borůvka sessions, {SHARDS} shards remotely placed \
         on 2 child processes ({a0}, {a1}), seeded SIGKILL/restart mid-run"
    );

    let graphs = fleet_graphs(SESSIONS, 2031);
    let stop = Arc::new(AtomicBool::new(false));
    let kill_count = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    // The fault injector keeps its own flight recorder, so the injected
    // kills land on the same post-mortem timeline as their fallout.
    let chaos_recorder = Arc::new(FlightRecorder::default());
    let chaos = {
        let stop = Arc::clone(&stop);
        let kill_count = Arc::clone(&kill_count);
        let placement = placement.clone();
        let children = Arc::clone(&children);
        let recorder = Arc::clone(&chaos_recorder);
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(77);
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(40));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                // Kill one child (seeded pick), respawn it on a fresh
                // port, re-point the address book — the proxies redial,
                // re-register a new generation and replay.
                let victim = rng.gen_range(0..2usize);
                {
                    let mut kids = children.lock().unwrap();
                    let _ = kids[victim].kill();
                    let _ = kids[victim].wait();
                }
                recorder.record(
                    wall_clock_us(),
                    0,
                    trace_endpoint::CHAOS,
                    TraceKind::Kill,
                    victim as u64,
                );
                let (child, addr) = spawn_host();
                assert!(placement.update_host(victim as u32, addr), "host in the book");
                children.lock().unwrap()[victim] = child;
                kill_count.fetch_add(1, Ordering::SeqCst);
            }
        })
    };

    let run_one = |id: usize, g: &LabelledGraph| -> bool {
        let out = client
            .run_multiround_session(SessionId(id as u64), &BoruvkaConnectivity, g, CAP)
            .expect("honest session completes despite shard-host kills");
        decode_bool_output(&out).expect("honest uplinks decode")
    };
    let t0 = std::time::Instant::now();
    let scheduler = Scheduler::new(4, 8);
    let verdicts: Vec<bool> = scheduler.run_indexed(SESSIONS, |i| run_one(i, &graphs[i]));
    // A fast machine can drain the fleet before the first chaos tick:
    // keep sessions flowing until at least one kill landed, plus a
    // post-kill tail that exercises reconnect + replay — so the chaos
    // assertions below never race the scheduler.
    let mut extra = 0usize;
    loop {
        let killed = kill_count.load(Ordering::SeqCst) > 0;
        if killed && extra >= 16 {
            break;
        }
        let g = &graphs[extra % SESSIONS];
        let verdict = run_one(SESSIONS + extra, g);
        assert_eq!(verdict, algo::is_connected(g), "extra session {extra}");
        extra += 1;
    }
    let wall = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::SeqCst);
    chaos.join().expect("chaos thread");
    let kills = kill_count.load(Ordering::SeqCst);

    // Every round of every session forwards one partial per range it
    // splits over, at least: a kill can make a host re-emit one.
    let mut partials = 0usize;
    for (i, (wire, g)) in verdicts.iter().zip(&graphs).enumerate() {
        let (local, run) = run_multiround_sharded(&BoruvkaConnectivity, g, SHARDS, CAP);
        let local = local.expect("terminates").expect("honest run decodes");
        assert_eq!(*wire, local, "session {i} diverged from in-process sharded run");
        assert_eq!(*wire, algo::is_connected(g), "session {i} diverged from centralized truth");
        partials += run.rounds * nonempty_shards(g.n(), effective_shards(g.n(), SHARDS));
    }
    let split = graphs.iter().filter(|g| effective_shards(g.n(), SHARDS) == SHARDS).count();
    assert!(split > 0, "some sessions must split over every shard");
    let client_stats = client.metrics();
    // Stitch one causally-ordered timeline: server ring + segments
    // shipped by the shard hosts + client lifecycle + injected kills.
    let mut stitched = server.stitched_trace();
    stitched.merge(&client.stitched_trace());
    stitched.merge(&chaos_recorder.snapshot());
    let stats = server.stop();
    let total = SESSIONS + extra;
    println!(
        "  {SESSIONS}/{SESSIONS} verdicts bit-for-bit vs run_multiround_sharded \
         (+{extra} post-kill sessions, {:.0} sess/s) under {kills} kill/restarts",
        total as f64 / wall
    );
    println!(
        "  reconnects {} | replayed frames {} | partials {} | mac-rejects {} | \
         {split} sessions split {SHARDS} ways",
        stats.shard_reconnects, stats.replayed_frames, stats.partial_frames, stats.mac_rejects
    );
    assert!(stats.partial_frames as usize >= partials, "{partials} partials at least");
    assert!(kills > 0, "the chaos schedule must actually kill");
    assert!(
        stats.shard_reconnects as usize > SHARDS,
        "kills must force redials beyond the initial {SHARDS}"
    );
    assert_eq!(stats.verdict_frames as usize, total);

    // The stitched timeline must be causally coherent: the injected
    // kills are on it, the hosts' shipped segments are on it, and every
    // endpoint's lane is seq- and time-ordered after stitching.
    let chaos_kills =
        stitched.events().iter().filter(|e| e.endpoint == trace_endpoint::CHAOS).count();
    assert_eq!(chaos_kills, kills, "every injected kill is on the timeline");
    assert!(
        stitched.events().iter().any(|e| (0x200..0x300).contains(&e.endpoint)),
        "shard hosts shipped trace segments cross-process"
    );
    let mut lanes_checked = 0usize;
    for w in stitched.events().windows(2) {
        if w[0].session == w[1].session && w[0].endpoint == w[1].endpoint {
            assert!(w[0].seq < w[1].seq, "lane seq strictly increases");
            assert!(w[0].ts_us <= w[1].ts_us, "lane time never runs backwards");
            lanes_checked += 1;
        }
    }
    assert!(lanes_checked > 0, "the stitched trace has real per-lane history");
    let traced_sessions =
        stitched.events().iter().map(|e| e.session).filter(|&s| s != 0).count();
    println!(
        "  stitched trace: {} events, {} session-scoped, {} injected kills on-timeline",
        stitched.len(),
        traced_sessions,
        chaos_kills
    );
    // Chaos kills fired, so this run qualifies for a post-mortem: with
    // REFEREE_TRACE_DUMP armed the timeline lands in TRACE_*.json.
    if let Some(path) = dump_if_armed("cross_host_shards", &stitched) {
        println!("  post-mortem trace dumped to {}", path.display());
    }

    // Announce→verdict latency per session, *including* sessions that
    // lived through a shard-host kill and replay — the tail the SLO
    // gate (REFEREE_SLO_P99_US / REFEREE_SLO_P999_US) watches in CI.
    let verdict_hist = client_stats.stage(Stage::Verdict);
    let p = Percentiles::from_hist(verdict_hist).expect("sessions ran");
    println!("  latency under chaos: {verdict_hist}");
    let slo = SloCheck::from_env();
    if let Err(e) = slo.check("cross_host_shards phase 1", &p) {
        // SLO violation: dump the timeline before dying, so the failure
        // ships its own diagnosis.
        dump_if_armed("cross_host_shards_slo", &stitched);
        panic!("{e}");
    }
    slo.enforce("cross_host_shards phase 1", &p);

    // ---- Deterministic companion: the simnet twin of this chaos run ---
    // The same kill/replay state machine under a seeded schedule and a
    // manual clock: two runs of the same seed must produce *byte
    // identical* traces — the reproducibility contract that makes a
    // post-mortem from CI replayable at a desk.
    let sim_policy = PlacementPolicy::balanced(SHARDS, &[0, 1]);
    let sim_arrivals: Vec<(u32, _)> = {
        let g = &graphs[0];
        let msgs = referee_one_round::protocol::referee::local_phase(
            &referee_one_round::protocol::easy::EdgeCountProtocol,
            g,
        );
        msgs.into_iter().enumerate().map(|(i, m)| (i as u32 + 1, m)).collect()
    };
    let sim_n = graphs[0].n();
    let sim_trace = |seed: u64| {
        let recorder = FlightRecorder::default();
        let clock = ManualClock::default();
        let report = PlacementSim::new(seed, 0.35).run_traced(
            sim_n,
            &sim_policy,
            &sim_arrivals,
            &recorder,
            &clock,
        );
        assert!(report.verdict.is_ok(), "honest sim assembly verifies");
        recorder.snapshot()
    };
    let (sim_a, sim_b) = (sim_trace(2031), sim_trace(2031));
    assert_eq!(
        sim_a.encode().as_bytes(),
        sim_b.encode().as_bytes(),
        "same seed, byte-identical sim trace"
    );
    assert_eq!(
        TraceSnapshot::decode(&sim_a.encode()).expect("canonical encoding decodes"),
        sim_a
    );
    println!("  sim twin: seed 2031 reproduces a {}-event trace bit-for-bit", sim_a.len());
    dump_if_armed("cross_host_shards_sim", &sim_a);

    // ---- Phase 2: wire tampering fails closed, zero undetected --------
    let policy = PlacementPolicy::balanced(2, &[0, 1]);
    let placement2 = RemotePlacement::new(
        policy,
        [(0, placement.addr_of_host(0)), (1, placement.addr_of_host(1))],
    )
    .expect("addresses cover");
    let server = FleetServer::builder(key)
        .placement(placement2)
        .multiround(boruvka_connectivity_service())
        .spawn()
        .expect("bind coordinator");
    let tampered_sessions = 48usize;
    let client = FleetClient::connect(server.addr(), tampered_sessions, key)
        .expect("connect")
        .with_tamper(TamperConfig { flip_every: 3 });
    println!("phase 2: {tampered_sessions} sessions, every 3rd frame corrupted post-MAC");
    let mut failed_closed = 0usize;
    let mut undetected = 0usize;
    for (i, g) in graphs.iter().take(tampered_sessions).enumerate() {
        match client.run_multiround_session(SessionId(i as u64), &BoruvkaConnectivity, g, CAP) {
            Err(_) => failed_closed += 1,
            Ok(out) => {
                if decode_bool_output(&out) != Ok(algo::is_connected(g)) {
                    undetected += 1;
                }
            }
        }
    }
    let server_stats = server.stop();
    println!(
        "  failed closed {failed_closed}/{tampered_sessions} | undetected {undetected} | \
         router mac-rejects {}",
        server_stats.mac_rejects
    );
    assert_eq!(undetected, 0, "a corrupted session was accepted");
    assert!(failed_closed > 0, "tampering every 3rd frame must hit most sessions");
    assert!(server_stats.mac_rejects > 0, "corruption must die at the router MAC check");

    println!("\ncross-host shard placement survives process kills, tamper fails closed ✓");
}
