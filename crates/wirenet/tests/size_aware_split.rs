//! Sessions across the size-aware split threshold: a session of `n`
//! nodes splits over `effective_shards(n, k)` ranges, so around
//! `MIN_RANGE_NODES` and `k · MIN_RANGE_NODES` the same deployment runs
//! some sessions whole on shard 0 and splits others. For k ∈ {1, 2, 4},
//! in process and under remote placement, honest, duplicate-sender and
//! out-of-range-sender sessions must judge as the k = 1 server and the
//! in-process oracles do, exchange exactly one partial per non-collector
//! range per round, and leave no session state behind.

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_graph::{generators, LabelledGraph};
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::multiround::BoruvkaConnectivity;
use referee_protocol::referee::{assemble_from_arrivals, local_phase};
use referee_protocol::shard::multiround::run_multiround_sharded;
use referee_protocol::shard::{effective_shards, nonempty_shards, MIN_RANGE_NODES};
use referee_protocol::trace::{TraceKind, TraceSnapshot};
use referee_protocol::{DecodeError, Message};
use referee_simnet::SessionId;
use referee_wirenet::{
    boruvka_connectivity_service, decode_bool_output, vector_digest, AuthKey, FleetClient,
    FleetServer, PlacementPolicy, RemotePlacement, ShardHost,
};
use std::collections::HashMap;
use std::mem::discriminant;
use std::time::{Duration, Instant};

const CAP: usize = 64;

/// The network sizes on both sides of each split point for `k` shards.
fn sizes(k: usize) -> Vec<usize> {
    let mut ns = vec![
        MIN_RANGE_NODES - 1,
        MIN_RANGE_NODES,
        MIN_RANGE_NODES + 1,
        k * MIN_RANGE_NODES,
        k * MIN_RANGE_NODES + 1,
    ];
    ns.sort_unstable();
    ns.dedup();
    ns
}

fn graph(n: usize) -> LabelledGraph {
    generators::gnp(n, 4.0 / n as f64, &mut StdRng::seed_from_u64(n as u64))
}

/// The partials an honest session of `rounds` rounds adds to the
/// coordinator's `partial_frames`: in process, every range but the
/// collector's hands one over per round; under remote placement, the
/// proxies forward every host range's partial, range 0's included.
fn partials(n: usize, k: usize, rounds: usize, remote: bool) -> u64 {
    let ranges = nonempty_shards(n, effective_shards(n, k));
    (rounds * if remote { ranges } else { ranges - 1 }) as u64
}

/// A `k`-shard server, in process or over two fresh shard hosts.
fn spawn(
    key: AuthKey,
    k: usize,
    remote: bool,
    multiround: bool,
) -> (FleetServer, Vec<ShardHost>) {
    let mut builder = FleetServer::builder(key).shards(k);
    let mut hosts = Vec::new();
    if remote {
        hosts = (0..2).map(|_| ShardHost::spawn(key).expect("bind shard host")).collect();
        let placement = RemotePlacement::new(
            PlacementPolicy::balanced(k, &[0, 1]),
            hosts.iter().enumerate().map(|(i, h)| (i as u32, h.addr())),
        )
        .expect("addresses cover the policy");
        builder = builder.placement(placement);
    }
    if multiround {
        builder = builder.multiround(boruvka_connectivity_service());
    }
    (builder.spawn().expect("bind server"), hosts)
}

/// The one-round sessions of one size: honest; node `n` sent first
/// and twice, and node 1 never (the copy lands in node `n`'s range,
/// the last one, before that range can complete); and an out-of-range
/// sender in node 1's slot.
fn one_round_cases(n: usize) -> [Vec<(u32, Message)>; 3] {
    let messages = local_phase(&EdgeCountProtocol, &graph(n));
    let honest: Vec<(u32, Message)> =
        messages.into_iter().enumerate().map(|(j, m)| (j as u32 + 1, m)).collect();
    let mut duplicate = honest.clone();
    duplicate[0] = honest[n - 1].clone();
    duplicate.insert(1, honest[n - 1].clone());
    duplicate.pop();
    let mut stray = honest.clone();
    stray[0] = (n as u32 + 7, honest[0].1.clone());
    [honest, duplicate, stray]
}

/// What one one-round session showed: the digest or the error class,
/// and the accused connections of its `Evidence` events.
#[derive(Debug, PartialEq)]
struct Judged {
    verdict: Result<u64, std::mem::Discriminant<DecodeError>>,
    accused: Vec<u64>,
}

fn accused(trace: &TraceSnapshot, session: u64) -> Vec<u64> {
    let events = trace.session_events(session).filter(|e| e.kind == TraceKind::Evidence);
    events.map(|e| e.payload).collect()
}

/// Run the one-round cases of every size in `ns` on a `k`-shard
/// server; returns what each (size, case) showed, keyed by session id.
fn one_round(key: AuthKey, ns: &[usize], k: usize, remote: bool) -> HashMap<u64, Judged> {
    let (server, hosts) = spawn(key, k, remote, false);
    let client = FleetClient::connect(server.addr(), 1, key).expect("connect");
    let mut verdicts = HashMap::new();
    for (i, &n) in ns.iter().enumerate() {
        for (c, arrivals) in one_round_cases(n).into_iter().enumerate() {
            let session = (n * 3 + c) as u64;
            let verdict = client.verify_session(SessionId(session), n, arrivals.clone());
            // The monolithic assembler is the oracle for every shard count.
            match assemble_from_arrivals(n, arrivals) {
                Ok(messages) => {
                    assert_eq!(verdict, Ok(vector_digest(&key, &messages)), "k={k} n={n}")
                }
                Err(e) => {
                    let got = verdict.as_ref().map_err(discriminant);
                    assert_eq!(got, Err(discriminant(&e)), "k={k} n={n} case {c}")
                }
            }
            verdicts.insert(session, verdict.map_err(|e| discriminant(&e)));
        }
        // The faulty cases each cut one evidence bundle.
        let bundles = || match remote {
            false => server.metrics().evidence_bundles,
            true => hosts.iter().map(|h| h.metrics().evidence_bundles).sum(),
        };
        assert_eq!(bundles(), 2 * (i as u64 + 1), "k={k} n={n}");
    }
    // Shard hosts ship their trace on `Finish`, right behind each verdict.
    let deadline = Instant::now() + Duration::from_secs(10);
    let judged = loop {
        let trace = server.stitched_trace();
        let judged: HashMap<u64, Judged> = verdicts
            .iter()
            .map(|(&s, &verdict)| (s, Judged { verdict, accused: accused(&trace, s) }))
            .collect();
        let cut = judged.values().filter(|j| !j.accused.is_empty()).count();
        if cut == 2 * ns.len() || Instant::now() > deadline {
            break judged;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let stats = server.stop();
    assert_eq!(stats.sessions_held, 0, "k={k} remote={remote}: sessions left behind");
    assert_eq!(stats.decode_rejects, 0, "k={k} remote={remote}");
    drop((client, hosts));
    judged
}

#[test]
fn one_round_verdicts_and_culprits_match_across_the_threshold() {
    let key = AuthKey::from_seed(7070);
    for k in [1, 2, 4] {
        let ns = sizes(k);
        let reference = one_round(key, &ns, 1, false);
        for (session, judged) in &reference {
            // One culprit per faulty session, none for the honest one.
            let faulty = usize::from(judged.verdict.is_err());
            assert_eq!(judged.accused.len(), faulty, "session {session}: {judged:?}");
        }
        for remote in [false, true] {
            assert_eq!(one_round(key, &ns, k, remote), reference, "k={k} remote={remote}");
        }
    }
}

#[test]
fn multiround_partials_follow_the_effective_split() {
    let key = AuthKey::from_seed(7171);
    for k in [1, 2, 4] {
        for remote in [false, true] {
            let (server, hosts) = spawn(key, k, remote, true);
            let client = FleetClient::connect(server.addr(), 1, key).expect("connect");
            let (mut want, mut split) = (0, false);
            for n in sizes(k) {
                let g = graph(n);
                let out = client
                    .run_multiround_session(SessionId(n as u64), &BoruvkaConnectivity, &g, CAP)
                    .expect("honest session completes");
                let wire = decode_bool_output(&out).expect("decodes");
                let (local, stats) = run_multiround_sharded(&BoruvkaConnectivity, &g, k, CAP);
                assert_eq!(Some(Ok(wire)), local, "k={k} remote={remote} n={n}");
                let (whole, _) = run_multiround_sharded(&BoruvkaConnectivity, &g, 1, CAP);
                assert_eq!(whole, local, "k={k} n={n}: the k = 1 oracle");
                want += partials(n, k, stats.rounds, remote);
                split |= effective_shards(n, k) > 1;
                // Partials reach the collector before it judges.
                assert_eq!(
                    server.metrics().partial_frames,
                    want,
                    "k={k} remote={remote} n={n}"
                );
            }
            // Ranges cross exactly when some size splits: k > 1.
            assert_eq!(split, k > 1);
            assert_eq!(want > 0, remote || k > 1, "k={k} remote={remote}");
            let stats = server.stop();
            assert_eq!(stats.sessions_held, 0, "k={k} remote={remote}: sessions left behind");
            assert_eq!(stats.mac_rejects + stats.decode_rejects, 0);
            if remote {
                let sent: u64 = hosts.iter().map(|h| h.metrics().partial_frames).sum();
                assert_eq!(sent, want, "k={k}: host partial frames");
                assert_eq!(stats.replayed_frames, 0, "k={k}: no kill, no replay");
            }
            drop((client, hosts));
        }
    }
}
