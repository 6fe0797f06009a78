//! The wire shape of a session, pinned exactly: uplinks and downlinks
//! travel as runs — every `(node, message)` entry of one session round
//! in one direction, in one MAC'd frame — so a one-round verify moves
//! three frames (announce, run, verdict), a multi-round session one run
//! per round each way plus the announce and the verdict, and a round
//! whose entries pass `RUN_BYTES` splits into several runs without
//! changing its verdict.

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_graph::{generators, LabelledGraph, VertexId};
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::multiround::{
    run_multiround, BoruvkaConnectivity, MultiRoundProtocol, RefereeStep,
};
use referee_protocol::referee::local_phase;
use referee_protocol::{BitWriter, DecodeError, Message, NodeView};
use referee_simnet::SessionId;
use referee_wirenet::{
    boruvka_connectivity_service, decode_bool_output, encode_bool_output, encode_runs,
    vector_digest, AuthKey, FleetClient, FleetServer, ProtocolReferee, WireSnapshot, RUN_BYTES,
};
use std::sync::Arc;

const CAP: usize = 64;

fn bytes(len: usize, salt: u64) -> Message {
    let mut w = BitWriter::new();
    for i in 0..len as u64 {
        w.write_bits((i * 31 + salt) & 0xff, 8);
    }
    Message::from_writer(w)
}

/// `(client frames sent, server frames sent)`, with the receiving ends
/// agreeing.
fn frames(client: &WireSnapshot, server: &WireSnapshot) -> (u64, u64) {
    assert_eq!(client.frames_sent, server.frames_received, "every client frame arrived");
    assert_eq!(server.frames_sent, client.frames_received, "every server frame arrived");
    (client.frames_sent, server.frames_sent)
}

/// A one-round verify is three frames: the announce and one uplink run
/// out, the verdict back — and its bytes are a fraction of what 22
/// per-node frames cost (38 bytes of framing each).
#[test]
fn a_verify_session_moves_three_frames() {
    let key = AuthKey::from_seed(240);
    let server = FleetServer::spawn_sharded(key, 2).unwrap();
    let client = FleetClient::connect(server.addr(), 1, key).unwrap();
    let g = generators::gnp(22, 0.2, &mut StdRng::seed_from_u64(3));
    let messages = local_phase(&EdgeCountProtocol, &g);
    let arrivals = messages.iter().cloned().enumerate().map(|(j, m)| (j as u32 + 1, m));
    let digest = client.verify_session(SessionId(1), g.n(), arrivals).unwrap();
    assert_eq!(digest, vector_digest(&key, &messages));
    let c = client.metrics();
    let s = server.stop();
    assert_eq!(frames(&c, &s), (2, 1));
    assert!(
        c.bytes_sent + c.bytes_received <= 232,
        "{} bytes",
        c.bytes_sent + c.bytes_received
    );
}

/// A Borůvka session of `r` rounds moves `2 + r + (r − 1)` frames: the
/// announce, one uplink run per round, one downlink run per continuing
/// round and the verdict.
#[test]
fn a_boruvka_session_moves_one_run_per_round_each_way() {
    let key = AuthKey::from_seed(241);
    let server = FleetServer::spawn_multiround(key, 2, boruvka_connectivity_service()).unwrap();
    let client = FleetClient::connect(server.addr(), 1, key).unwrap();
    let g = generators::gnp(30, 0.15, &mut StdRng::seed_from_u64(4));
    let (local, stats) = run_multiround(&BoruvkaConnectivity, &g, CAP);
    // Every round's uplinks and downlinks fit one run each.
    let widest = stats.max_uplink_bits.max(stats.max_downlink_bits);
    assert!(g.n() * (widest + 24) <= RUN_BYTES * 8);
    let out =
        client.run_multiround_session(SessionId(2), &BoruvkaConnectivity, &g, CAP).unwrap();
    assert_eq!(decode_bool_output(&out).unwrap(), local.unwrap().unwrap());
    let (c, s) = (client.metrics(), server.stop());
    let rounds = stats.rounds as u64;
    assert!(rounds >= 2, "a continuing round streams downlinks");
    assert_eq!(frames(&c, &s), (1 + rounds, rounds - 1 + 1));
    assert_eq!(s.downlink_frames, rounds - 1);
}

/// A round of uplinks past `RUN_BYTES` splits: 40 nodes of 1000-byte
/// messages, node 7's 20 KiB, go out as five runs — nodes 1..=6, node 7
/// alone, then 16, 16 and 1 nodes — and the verdict is the digest of
/// exactly the vector sent.
#[test]
fn a_round_past_run_bytes_splits_and_keeps_its_verdict() {
    let key = AuthKey::from_seed(242);
    let server = FleetServer::spawn_sharded(key, 2).unwrap();
    let client = FleetClient::connect(server.addr(), 1, key).unwrap();
    let n = 40;
    let messages: Vec<Message> =
        (1..=n as u64).map(|v| bytes(if v == 7 { 20 * 1024 } else { 1000 }, v)).collect();
    let arrivals: Vec<(u32, Message)> =
        messages.iter().cloned().enumerate().map(|(j, m)| (j as u32 + 1, m)).collect();
    let runs = encode_runs(arrivals.iter().map(|(v, m)| (*v, m)));
    let counts: Vec<u32> = runs.iter().map(|r| r.count).collect();
    assert_eq!(counts, [6, 1, 16, 16, 1]);
    let digest = client.verify_session(SessionId(3), n, arrivals).unwrap();
    assert_eq!(digest, vector_digest(&key, &messages));
    let (c, s) = (client.metrics(), server.stop());
    assert_eq!(frames(&c, &s), (1 + 5, 1));
}

/// A protocol whose round-1 downlinks are 1000 bytes per node: node `v`
/// checks that its downlink is the one the referee addressed to it and
/// says so in round 2, so the verdict is `true` only if every node got
/// its own downlink.
#[derive(Clone)]
struct WideDownlinks;

impl MultiRoundProtocol for WideDownlinks {
    type Output = Result<bool, DecodeError>;
    type NodeState = (VertexId, bool);
    type RefereeState = ();

    fn name(&self) -> String {
        "wide-downlinks".into()
    }

    fn node_init(&self, view: NodeView<'_>) -> (VertexId, bool) {
        (view.id, false)
    }

    fn referee_init(&self, _n: usize) {}

    fn node_send(
        &self,
        state: &(VertexId, bool),
        _view: NodeView<'_>,
        round: usize,
    ) -> (Vec<(VertexId, Message)>, Message) {
        let mut w = BitWriter::new();
        w.push_bit(round == 1 || state.1);
        (Vec::new(), Message::from_writer(w))
    }

    fn referee_step(
        &self,
        _state: &mut (),
        n: usize,
        round: usize,
        uplinks: &[Message],
    ) -> RefereeStep<Result<bool, DecodeError>> {
        if round == 1 {
            return RefereeStep::Continue((1..=n as u64).map(|v| bytes(1000, v)).collect());
        }
        RefereeStep::Done(Ok(uplinks.iter().all(|m| m.reader().read_bit() == Ok(true))))
    }

    fn node_receive(
        &self,
        state: &mut (VertexId, bool),
        _view: NodeView<'_>,
        _round: usize,
        _from_neighbours: &[(VertexId, Message)],
        from_referee: &Message,
    ) {
        state.1 = *from_referee == bytes(1000, u64::from(state.0));
    }
}

/// Downlinks past `RUN_BYTES` split too: 40 nodes of 1000-byte
/// downlinks leave the referee as three runs (16, 16 and 8 nodes), and
/// the client hands every node its own downlink.
#[test]
fn downlinks_past_run_bytes_split_and_reach_their_nodes() {
    let key = AuthKey::from_seed(243);
    let referee = Arc::new(ProtocolReferee::new(WideDownlinks, encode_bool_output));
    let server = FleetServer::spawn_multiround(key, 2, referee).unwrap();
    let client = FleetClient::connect(server.addr(), 1, key).unwrap();
    let g: LabelledGraph = generators::path(40);
    let out = client.run_multiround_session(SessionId(4), &WideDownlinks, &g, CAP).unwrap();
    assert_eq!(decode_bool_output(&out), Ok(true), "every node got its own downlink");
    let (c, s) = (client.metrics(), server.stop());
    assert_eq!(s.downlink_frames, 3);
    // The announce and two uplink runs out; three downlink runs and
    // the verdict back.
    assert_eq!(frames(&c, &s), (3, 4));
}
