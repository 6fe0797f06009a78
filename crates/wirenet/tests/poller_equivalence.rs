//! The tentpole correctness gate for the epoll reactor: for every shard
//! count the kernel-readiness backend must be **observationally
//! identical** to the portable sweep backend — bit-for-bit equal
//! verdict digests for honest sessions, identical fail-closed shapes
//! under deterministic wire tampering. The two backends differ only in
//! *when* loops wake, never in *what* bytes flow, so any divergence
//! here is a reactor bug, not a tolerance.

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_graph::{algo, generators, LabelledGraph};
use referee_protocol::combinators::OneRoundAsMultiRound;
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::multiround::BoruvkaConnectivity;
use referee_protocol::referee::local_phase;
use referee_simnet::{MultiRoundSession, OneRoundReport, SessionId};
use referee_wirenet::{
    boruvka_connectivity_service, decode_bool_output, vector_digest, AuthKey, FleetClient,
    FleetServer, PollerBackend, TamperConfig,
};

/// Small fleet spanning n = 4..=15 so every k in 1..=8 exercises both
/// populated and empty shard ranges (k > n leaves ranges empty — the
/// hosts/workers must still reach quorum instantly).
fn graphs(count: usize, seed: u64) -> Vec<LabelledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|i| generators::gnp(4 + i % 12, 0.3, &mut rng)).collect()
}

const BACKENDS: [PollerBackend; 2] = [PollerBackend::Sweep, PollerBackend::Epoll];

/// One-round sharded referee: per-session digests under the epoll
/// backend equal the sweep backend's bit for bit, for every k.
#[test]
fn one_round_digests_match_across_backends() {
    let key = AuthKey::from_seed(61);
    let fleet = graphs(5, 611);
    for k in 1..=8usize {
        let mut per_backend: Vec<Vec<u64>> = Vec::new();
        for backend in BACKENDS {
            let server = FleetServer::builder(key).shards(k).poller(backend).spawn().unwrap();
            let client = FleetClient::connect(server.addr(), 2, key).unwrap();
            let digests: Vec<u64> = fleet
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    let messages = local_phase(&EdgeCountProtocol, g);
                    let arrivals =
                        messages.into_iter().enumerate().map(|(j, m)| (j as u32 + 1, m));
                    client
                        .verify_session(SessionId(i as u64), g.n(), arrivals)
                        .unwrap_or_else(|e| panic!("k={k} {backend:?} session {i}: {e:?}"))
                })
                .collect();
            server.stop();
            per_backend.push(digests);
        }
        assert_eq!(per_backend[0], per_backend[1], "k={k}: sweep vs epoll digests diverge");
        // Both must also pin the honest vectors, not merely agree.
        for (i, g) in fleet.iter().enumerate() {
            let want = vector_digest(&key, &local_phase(&EdgeCountProtocol, g));
            assert_eq!(per_backend[0][i], want, "k={k} session {i} digest is wrong");
        }
    }
}

/// Multi-round Borůvka service: wire verdicts are identical across
/// backends for every k, and both equal the centralized truth.
#[test]
fn multiround_verdicts_match_across_backends() {
    let key = AuthKey::from_seed(62);
    let fleet = graphs(5, 622);
    const CAP: usize = 64;
    for k in 1..=8usize {
        let mut per_backend: Vec<Vec<bool>> = Vec::new();
        for backend in BACKENDS {
            let server = FleetServer::builder(key)
                .shards(k)
                .multiround(boruvka_connectivity_service())
                .poller(backend)
                .spawn()
                .unwrap();
            let client = FleetClient::connect(server.addr(), 2, key).unwrap();
            let verdicts: Vec<bool> = fleet
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    let out = client
                        .run_multiround_session(
                            SessionId(i as u64),
                            &BoruvkaConnectivity,
                            g,
                            CAP,
                        )
                        .unwrap_or_else(|e| panic!("k={k} {backend:?} session {i}: {e:?}"));
                    decode_bool_output(&out).expect("honest uplinks decode")
                })
                .collect();
            server.stop();
            per_backend.push(verdicts);
        }
        assert_eq!(per_backend[0], per_backend[1], "k={k}: sweep vs epoll verdicts diverge");
        for (i, g) in fleet.iter().enumerate() {
            assert_eq!(per_backend[0][i], algo::is_connected(g), "k={k} session {i}");
        }
    }
}

/// Tampering equivalence: the client's deterministic bit-flip schedule
/// produces the same byte stream under either backend, so the same
/// sessions must fail closed and the same sessions must verify with the
/// same digests — and no tampered session may ever be accepted.
#[test]
fn tamper_outcomes_match_across_backends() {
    let key = AuthKey::from_seed(63);
    let fleet = graphs(8, 633);
    for k in [2usize, 8] {
        let mut per_backend: Vec<Vec<Option<u64>>> = Vec::new();
        for backend in BACKENDS {
            let server = FleetServer::builder(key).shards(k).poller(backend).spawn().unwrap();
            let client = FleetClient::connect(server.addr(), fleet.len(), key)
                .unwrap()
                .with_tamper(TamperConfig { flip_every: 3 });
            let outcomes: Vec<Option<u64>> = fleet
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    let messages = local_phase(&EdgeCountProtocol, g);
                    let arrivals =
                        messages.iter().cloned().enumerate().map(|(j, m)| (j as u32 + 1, m));
                    client.verify_session(SessionId(i as u64), g.n(), arrivals).ok()
                })
                .collect();
            let stats = server.stop();
            assert!(stats.mac_rejects > 0, "k={k} {backend:?}: no corruption reached MAC");
            per_backend.push(outcomes);
        }
        assert_eq!(per_backend[0], per_backend[1], "k={k}: tamper outcomes diverge");
        for (i, outcome) in per_backend[0].iter().enumerate() {
            if let Some(digest) = outcome {
                let want = vector_digest(&key, &local_phase(&EdgeCountProtocol, &fleet[i]));
                assert_eq!(*digest, want, "k={k}: tampered session {i} was accepted");
            }
        }
    }
}

/// The echo mailbox under both pollers: `SocketTransport` sessions
/// (one-round EdgeCount, the protocol running client-side) give the
/// same outcomes honest and under the deterministic tamper schedule,
/// and every honest outcome is the edge count.
#[test]
fn echo_outcomes_match_across_backends() {
    let key = AuthKey::from_seed(64);
    let fleet = graphs(8, 644);
    let run = |client: &FleetClient| -> Vec<Option<usize>> {
        let protocol = OneRoundAsMultiRound(EdgeCountProtocol);
        let sessions = fleet.iter().enumerate().map(|(i, g)| {
            let id = SessionId(i as u64);
            let mut transport = client.transport(id);
            let session = MultiRoundSession::new(&protocol, g, 1).with_session(id);
            OneRoundReport::from(session.run(&mut transport)).outcome.ok().and_then(Result::ok)
        });
        sessions.collect()
    };
    let mut per_backend = Vec::new();
    for backend in BACKENDS {
        let server = FleetServer::builder(key).poller(backend).spawn().unwrap();
        let honest_client = FleetClient::connect(server.addr(), 2, key).unwrap();
        let honest = run(&honest_client);
        // One connection per session, so a tampered frame poisons only
        // its own session.
        let tampered_client = FleetClient::connect(server.addr(), fleet.len(), key)
            .unwrap()
            .with_tamper(TamperConfig { flip_every: 3 });
        let tampered = run(&tampered_client);
        let stats = server.stop();
        assert!(stats.mac_rejects > 0, "{backend:?}: no corruption reached MAC");
        // The server counts as echoed exactly what the clients read.
        let read =
            honest_client.metrics().frames_received + tampered_client.metrics().frames_received;
        assert_eq!(stats.frames_sent, read, "{backend:?}: echo is exact");
        per_backend.push((honest, tampered));
    }
    assert_eq!(per_backend[0], per_backend[1], "sweep vs epoll echo outcomes diverge");
    let (honest, tampered) = &per_backend[0];
    for (i, g) in fleet.iter().enumerate() {
        assert_eq!(honest[i], Some(g.m()), "honest session {i}");
        assert!(tampered[i].is_none_or(|m| m == g.m()), "tampered session {i} was accepted");
    }
}
