//! The referee session engine: [`FleetServer`](crate::FleetServer)
//! runs the **referee half** of every served protocol itself, round by
//! round, with the per-round uplink wait sharded across workers. One
//! engine serves everything: a [`MultiRoundProtocol`](referee_protocol::multiround::MultiRoundProtocol)
//! from a [`ServiceCatalog`], and the one-round verifier, which is the
//! catalog's cap-1 digest service (see [`crate::shard`]). Every worker
//! keys its per-session state by (connection, session), with the
//! service resolved at announce time, so one listener serves
//! heterogeneous protocols concurrently — each client names its
//! service in the MAC'd `Announce`, and an unknown name — or a network
//! larger than [`MAX_SESSION_NODES`] — fails closed with a typed error
//! verdict instead of hanging.
//!
//! # Topology
//!
//! One **router** thread owns the listener and every client connection;
//! `k` **shard workers** each own the [`RangeWait`] of their slice of
//! every session's ID space, and worker 0 also runs the session's
//! [`RoundMerge`] — the round rule of `referee_protocol::shard`, which
//! this module only drives. Per session:
//!
//! 1. the client announces `(session, n, service name)`
//!    ([`Announce`](FrameKind::Announce)); the router resolves the name
//!    against the catalog and every worker opens shard `i` for round 1
//!    under that service's referee and round cap;
//! 2. round-stamped [`Data`](FrameKind::Data) uplink frames are routed
//!    to workers by sender range; a worker whose range completes for
//!    round `r` hands its [`RoundPartialState`] to worker 0 **by value**
//!    over the in-process channel, stamped with the session's announce
//!    **epoch** (the round travels inside the partial), and advances to
//!    round `r+1` — nothing between threads of one process is encoded
//!    or MAC'd;
//! 3. worker 0's collector absorbs each round's partials (any order;
//!    empty-range shards are implied — they never emit) and, once round
//!    `r`'s quorum is complete (or poisoned, which fixes the verdict's
//!    `Err` shape), runs the protocol's
//!    [`referee_step`](referee_protocol::multiround::MultiRoundProtocol::referee_step);
//! 4. `Continue` streams one MAC'd downlink [`Data`](FrameKind::Data)
//!    frame per node back to the client (from = referee, round `r`);
//!    `Done` ships the encoded output as a
//!    [`Verdict`](FrameKind::Verdict) frame and retires the session
//!    everywhere.
//!
//! With a [`RemotePlacement`] the ranges live on
//! [`ShardHost`](crate::placement::ShardHost) peers instead, each fed by
//! a coordinator-side proxy, and worker 0 keeps only the referee and
//! the collector (see [`crate::placement`]). Host partials cross a real
//! socket as MAC'd [`Partial`](FrameKind::Partial) frames; the proxy
//! decodes each one and hands the decoded value on.
//!
//! [`FleetClient::run_multiround_session`](crate::FleetClient::run_multiround_session)
//! drives the node half of the same protocol against this service:
//! node→node CONGEST links stay client-side (they never involve the
//! referee), uplinks and downlinks cross the wire, and the final
//! verdict is the server's word — the client can cross-check it against
//! a local run, exactly as `verify_session` cross-checks digests.
//!
//! # Failure behaviour
//!
//! Sessions are keyed by (connection, session id); a judged session is
//! retired from the router and every worker the moment its verdict
//! ships, and its id becomes re-announceable. Epochs fence stale
//! cross-shard partials of re-announced ids, and tampered frames poison
//! their connection at the router's MAC check.
//!
//! Faulty sessions fail fast under one rule for every round, the same
//! on in-process workers and shard hosts because both run
//! [`RangeWait::ingest`]: an out-of-range sender, a duplicate, a round
//! stamp outside `1..=cap` or an uplink racing ahead of the protocol
//! poisons the round it hit. An arrival behind a range partial that
//! already shipped is checked against the retained copy of that round —
//! a repeat is still provable — and reported to worker 0 as a
//! round-stamped poison notice. Worker 0 judges a poisoned round
//! without waiting for quorum and drops a notice for a round it already
//! judged ([`RoundMerge::next`]). The client receives the canonical
//! rejection class instead of hanging (bounded further by the client's
//! [`WireTimeouts::verdict`](crate::WireTimeouts) round deadline). A
//! round cap on the server ([`WireReferee::round_cap`]) bounds referee
//! state even against a client that stalls mid-protocol, and the
//! collector refuses a partial for a round past the cap — say from a
//! hostile shard host — with a typed `Invalid` verdict, as it refuses an
//! undecodable host partial with its decode error.

use crate::auth::AuthKey;
use crate::frame::FrameKind;
use crate::metrics::{trace_endpoint, Stage, WireMetrics};
use crate::placement::{run_proxy, ProxyConfig, RemotePlacement};
use crate::poll::{Poller, Waker};
use crate::reactor::{send_hello, serve, Conn, Role};
use crate::shard::build_evidence;
use referee_protocol::evidence::SessionParams;
use referee_protocol::multiround::RefereeStep;
use referee_protocol::shard::multiround::{Fault, RangeWait, RoundMerge, RoundPartialState};
use referee_protocol::shard::{nonempty_shards, route_arrival, shard_range};
use referee_protocol::trace::TraceKind;
use referee_protocol::{BitWriter, DecodeError, Message};
use referee_simnet::{Envelope, SessionId};
use std::collections::{HashMap, VecDeque};
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{Receiver, Sender};
use std::thread;
use std::time::Instant;

/// The largest network size a session may announce. Workers size
/// per-session state by `n` (the range partition, a protocol's referee
/// state such as Borůvka's union–find), so the router refuses larger
/// claims with a typed `Invalid` verdict before any worker hears of the
/// session.
pub const MAX_SESSION_NODES: usize = 1 << 20;

/// How many finished session routes the router remembers (FIFO). A
/// finished route only exists to classify short-lived stragglers behind
/// a verdict as harmless; beyond this window a straggler is treated as
/// the protocol violation it is, and the memory stays bounded no matter
/// how many sessions a long-lived connection judges.
const FINISHED_ROUTE_CAP: usize = 4096;

// The protocol-agnostic referee service layer — [`WireReferee`],
// [`RefereeStepper`], [`ProtocolReferee`], the output codecs, and the
// multi-protocol [`ServiceCatalog`] — lives in `protocol::service`
// (nothing about it is wire-specific); re-exported here so historical
// `referee_wirenet::multiround::…` paths keep working.
pub use referee_protocol::service::{
    boruvka_connectivity_service, decode_bool_output, decode_graph_output, encode_bool_output,
    encode_graph_output, ProtocolReferee, RefereeStepper, ServiceCatalog, WireReferee,
    MAX_SERVICE_NAME_BYTES,
};

use referee_protocol::service::{class_error, error_class};

/// Serialize a session's `Announce` payload: the 32-bit network size,
/// optionally followed by a one-byte length prefix + the UTF-8 bytes of
/// the requested catalog service's name. A bare 32-bit payload selects
/// service index 0 — exactly the wire bytes pre-catalog clients sent,
/// so single-service deployments interoperate unchanged.
pub(crate) fn encode_mr_announce(n: usize, service: Option<&str>) -> Message {
    let mut w = BitWriter::new();
    w.write_bits(n as u64, 32);
    if let Some(name) = service {
        debug_assert!(name.len() <= MAX_SERVICE_NAME_BYTES);
        w.write_bits(name.len() as u64, 8);
        for b in name.bytes() {
            w.write_bits(u64::from(b), 8);
        }
    }
    Message::from_writer(w)
}

/// Inverse of [`encode_mr_announce`]: `(n, requested service name)`.
/// `None` rejects a malformed payload (trailing bits, truncated name,
/// non-UTF-8 name) — the router closes the connection, exactly as for
/// any other undecodable frame.
fn decode_mr_announce(payload: &Message) -> Option<(usize, Option<String>)> {
    let mut r = payload.reader();
    let n = r.read_bits(32).ok()? as usize;
    if r.is_exhausted() {
        return Some((n, None));
    }
    let len = r.read_bits(8).ok()? as usize;
    let mut bytes = Vec::with_capacity(len);
    for _ in 0..len {
        bytes.push(r.read_bits(8).ok()? as u8);
    }
    if !r.is_exhausted() {
        return None;
    }
    String::from_utf8(bytes).ok().map(|name| (n, Some(name)))
}

/// Serialize a session's terminal verdict: `1` + the encoded protocol
/// output on success, else `0` + the 2-bit transport-rejection class.
pub(crate) fn encode_mr_verdict(result: &Result<Message, DecodeError>) -> Message {
    let mut w = BitWriter::new();
    match result {
        Ok(out) => {
            w.push_bit(true);
            out.append_to(&mut w);
        }
        Err(e) => {
            w.push_bit(false);
            w.write_bits(error_class(e), 2);
        }
    }
    Message::from_writer(w)
}

/// Inverse of [`encode_mr_verdict`]: the encoded protocol output, or
/// the rejection that ended the session.
pub(crate) fn decode_mr_verdict(msg: &Message) -> Result<Message, DecodeError> {
    let mut r = msg.reader();
    if r.read_bit()? {
        let mut w = BitWriter::new();
        r.copy_bits_into(&mut w, r.remaining())?;
        return Ok(Message::from_writer(w));
    }
    let class = r.read_bits(2)?;
    if !r.is_exhausted() {
        return Err(DecodeError::Invalid("trailing bits after verdict class".into()));
    }
    Err(class_error(class))
}

/// Router → worker (and worker → worker 0) traffic. Sessions are keyed
/// by `(conn, session)` throughout, so independent clients may number
/// their sessions identically without colliding.
pub(crate) enum MrMsg {
    /// A session opened: every worker creates its round-1 shard under
    /// the catalog service the router resolved (an index into the
    /// shared [`ServiceCatalog`] — the router fails unknown names
    /// closed before they reach any worker).
    Announce { conn: u32, session: u64, n: usize, epoch: u32, service: u32 },
    /// An authenticated round-stamped uplink routed to this worker's
    /// range.
    Data { conn: u32, env: Envelope },
    /// A range partial or a poison notice for worker 0, by value, from
    /// range `from`, stamped with the session's announce `epoch`. A
    /// proxy forwards a shard host's partial as it decoded it: an
    /// undecodable one arrives as its decode error and fails the
    /// session closed.
    Partial {
        conn: u32,
        session: u64,
        epoch: u32,
        from: u32,
        partial: Result<RoundPartialState, DecodeError>,
    },
    /// A session's verdict shipped: drop its state everywhere.
    Finish { conn: u32, session: u64 },
    /// A connection died: drop its sessions.
    Retire { conn: u32 },
}

/// Worker → router.
enum MrOutbound {
    /// Stream round `round`'s downlinks (`msgs[i]` to node `i + 1`).
    Downlinks { conn: u32, session: SessionId, round: u32, msgs: Vec<Message> },
    /// The session's terminal verdict.
    Verdict { conn: u32, session: SessionId, payload: Message },
    /// A serialized evidence bundle for a provable violation observed
    /// on `conn` (any worker; judges nothing — the session stays live).
    Evidence { conn: u32, session: SessionId, from: u32, payload: Message },
}

/// The outbound channel paired with the router poller's waker: mpsc
/// sends are invisible to `epoll`, so every downlink burst or verdict
/// nudges the router out of its kernel readiness wait.
struct OutTx {
    tx: Sender<MrOutbound>,
    waker: Waker,
}

impl OutTx {
    fn send(&self, out: MrOutbound) {
        let _ = self.tx.send(out);
        self.waker.wake();
    }
}

/// Router-side per-session record.
struct SessionRoute {
    n: usize,
    finished: bool,
}

/// Per-session state inside one worker — keyed by (conn, session) in
/// the worker's map. The stepper and round cap are those of the catalog
/// service resolved at announce time (a re-announced id may land on a
/// different service under a fresh epoch).
struct MrSession {
    conn: u32,
    n: usize,
    epoch: u32,
    /// This worker's range wait; `None` on a remote-placement
    /// accumulator, whose ranges live on shard hosts.
    wait: Option<RangeWait>,
    /// Worker 0 only: the referee and the collector of its rounds'
    /// partials, whose quorum is the shards with non-empty ranges for
    /// this `n` (empty-range shards never emit; their empty partials
    /// are implied).
    stepper: Option<Box<dyn RefereeStepper>>,
    merge: RoundMerge,
    /// Server-side round cap.
    cap: usize,
    /// When this worker saw the announce — the zero point for the
    /// server-side verdict stage histogram.
    opened: Instant,
    /// When the referee's current round opened (reset per round) — the
    /// zero point for the per-round partial-merge stage histogram.
    round_opened: Instant,
}

/// The catalog server loop (spawned by
/// [`FleetServerBuilder::spawn`](crate::FleetServerBuilder::spawn) for
/// every non-echo server). In process, `shards` workers each own a
/// range and worker 0 also runs the referee. With a `placement`, one
/// proxy per shard forwards its range to a
/// [`ShardHost`](crate::placement::ShardHost) and an extra in-process
/// worker keeps only the referee and the per-round merge accumulators.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_catalog_server(
    listener: TcpListener,
    key: AuthKey,
    catalog: &ServiceCatalog,
    shards: usize,
    placement: Option<RemotePlacement>,
    shutdown: &AtomicBool,
    metrics: &WireMetrics,
    poller: Poller,
) {
    let (out_tx, out_rx) = std::sync::mpsc::channel::<MrOutbound>();
    // One lane per shard, plus the accumulator's (last) when the
    // ranges are remote; the router broadcasts control traffic to all.
    let acc = if placement.is_some() { shards } else { 0 };
    let lanes = shards + usize::from(placement.is_some());
    let (worker_txs, worker_rxs): (Vec<Sender<MrMsg>>, Vec<Receiver<MrMsg>>) =
        (0..lanes).map(|_| std::sync::mpsc::channel()).unzip();
    thread::scope(|scope| {
        for (i, rx) in worker_rxs.into_iter().enumerate() {
            let base = &key;
            match &placement {
                Some(placement) if i != acc => {
                    let cfg = ProxyConfig { index: i, shards, base, placement, metrics };
                    let acc_tx = worker_txs[acc].clone();
                    scope.spawn(move || run_proxy(cfg, rx, acc_tx, catalog));
                }
                _ => {
                    // The accumulator must not hold a sender to itself
                    // (its inbox would never disconnect).
                    let tx0 = (i != acc).then(|| worker_txs[acc].clone());
                    let otx = OutTx { tx: out_tx.clone(), waker: poller.waker() };
                    let owns_range = placement.is_none();
                    let index = if owns_range { i } else { 0 };
                    scope.spawn(move || {
                        mr_worker(
                            index, shards, rx, tx0, otx, base, catalog, metrics, owns_range,
                        )
                    });
                }
            }
        }
        drop(out_tx);
        let mut router = Router {
            key,
            catalog,
            shards,
            worker_txs: &worker_txs,
            out_rx: &out_rx,
            announced: HashMap::new(),
            finished_fifo: VecDeque::new(),
            next_epoch: 1,
        };
        serve(listener, key, &mut router, shutdown, metrics, &poller);
        // Dropping the senders disconnects every worker inbox; the scope
        // then joins the workers.
        drop(worker_txs);
    });
}

/// Index order for broadcasting router control traffic to workers: the
/// merge accumulator FIRST, then everyone else. Every worker's reaction
/// to a control message funnels into the accumulator's inbox — e.g. an
/// empty-range shard host ships its partial the instant a proxy relays
/// a fresh announce — and channel causality only keeps that reaction
/// *behind* the message that caused it if the router enqueued the
/// accumulator's copy before any other worker's. In-process layouts
/// keep the accumulator at index 0 (forward order was already safe);
/// remote placement appends its channel after the `shards` proxies,
/// where forward order let partials overtake their announce and starve
/// the merge quorum.
fn acc_first_order(len: usize, shards: usize) -> impl Iterator<Item = usize> {
    let acc = if len > shards { shards } else { 0 };
    std::iter::once(acc).chain((0..len).filter(move |i| *i != acc))
}

/// The router role of the server loop: authenticates, routes
/// round-stamped uplinks by session + node range, and streams downlink
/// and verdict frames back. Each connection's link is its id.
struct Router<'a> {
    key: AuthKey,
    catalog: &'a ServiceCatalog,
    shards: usize,
    worker_txs: &'a [Sender<MrMsg>],
    out_rx: &'a Receiver<MrOutbound>,
    announced: HashMap<(u32, u64), SessionRoute>,
    /// Finished routes, oldest first (at most [`FINISHED_ROUTE_CAP`]).
    finished_fifo: VecDeque<(u32, u64)>,
    next_epoch: u32,
}

impl Router<'_> {
    /// Send `msg()` to every worker, accumulator first: see
    /// [`acc_first_order`] — a partial must never overtake the control
    /// message that caused it into the accumulator's inbox.
    fn broadcast(&self, msg: impl Fn() -> MrMsg) {
        for wi in acc_first_order(self.worker_txs.len(), self.shards) {
            let _ = self.worker_txs[wi].send(msg());
        }
    }

    /// Remember the finished route `key` in the bounded FIFO, evicting
    /// the oldest finished routes beyond [`FINISHED_ROUTE_CAP`].
    fn remember_finished(&mut self, key: (u32, u64)) {
        self.finished_fifo.push_back(key);
        while self.finished_fifo.len() > FINISHED_ROUTE_CAP {
            let old = self.finished_fifo.pop_front().expect("len > cap > 0");
            if self.announced.get(&old).is_some_and(|r| r.finished) {
                self.announced.remove(&old);
            }
        }
    }

    /// Handle one authenticated frame from client connection `id`;
    /// `false` rejects it (the drain closes the connection).
    fn frame(
        &mut self,
        id: u32,
        conn: &mut Conn,
        kind: FrameKind,
        env: Envelope,
        metrics: &WireMetrics,
    ) -> bool {
        let key = (id, env.session.0);
        match kind {
            FrameKind::Announce => {
                let Some((n, name)) = decode_mr_announce(&env.payload) else { return false };
                if self.announced.get(&key).is_some_and(|route| !route.finished) {
                    return false;
                }
                // Resolve the requested service (a bare announce is
                // index 0 — the pre-catalog wire format). An unknown
                // name, or a network larger than `MAX_SESSION_NODES`,
                // fails *closed*: the session is born finished with a
                // typed error verdict already queued, so the client
                // gets a canonical rejection instead of a hang, the
                // connection stays usable, and no worker ever hears of
                // the session (nor sizes state by its claimed `n`).
                let catalog = self.catalog;
                let service = match &name {
                    _ if n > MAX_SESSION_NODES => Err(format!(
                        "network size {n} exceeds the limit of {MAX_SESSION_NODES} nodes"
                    )),
                    None if !catalog.is_empty() => Ok(0),
                    Some(name) if catalog.index_of(name).is_some() => {
                        Ok(catalog.index_of(name).expect("checked") as u32)
                    }
                    _ => Err(format!(
                        "unknown catalog service {:?}",
                        name.as_deref().unwrap_or("")
                    )),
                };
                let service = match service {
                    Ok(service) => service,
                    Err(why) => {
                        metrics.decode_rejects(1);
                        metrics.verdict_frames(1);
                        let payload = encode_mr_verdict(&Err(DecodeError::Invalid(why)));
                        let bits = payload.len_bits() as u64;
                        let verdict = Envelope {
                            session: env.session,
                            round: 0,
                            from: 0,
                            to: 0,
                            payload,
                        };
                        queue_counted(conn, FrameKind::Verdict, &verdict, metrics);
                        metrics.trace(key.1, trace_endpoint::SERVER, TraceKind::Verdict, bits);
                        self.announced.insert(key, SessionRoute { n, finished: true });
                        self.remember_finished(key);
                        return true;
                    }
                };
                let epoch = self.next_epoch & 0x7fff_ffff;
                self.next_epoch = self.next_epoch.wrapping_add(1);
                metrics.trace(key.1, trace_endpoint::SERVER, TraceKind::Announce, n as u64);
                self.announced.insert(key, SessionRoute { n, finished: false });
                let session = key.1;
                self.broadcast(|| MrMsg::Announce { conn: id, session, n, epoch, service });
                true
            }
            FrameKind::Data => match self.announced.get(&key) {
                Some(route) if route.finished => {
                    metrics.orphan_frames(1);
                    true
                }
                Some(route) => {
                    let target = route_arrival(route.n, self.shards, env.from);
                    let from = u64::from(env.from);
                    metrics.trace(key.1, trace_endpoint::SERVER, TraceKind::Uplink, from);
                    let _ = self.worker_txs[target].send(MrMsg::Data { conn: id, env });
                    true
                }
                None => false,
            },
            _ => false,
        }
    }
}

impl Role for Router<'_> {
    type Link = u32;

    fn accept(&mut self, conn: &mut Conn, id: u32, metrics: &WireMetrics) -> u32 {
        send_hello(conn, &self.key, id, metrics);
        id
    }

    fn pump(
        &mut self,
        conn: &mut Conn,
        id: &mut u32,
        scratch: &mut [u8],
        m: &WireMetrics,
    ) -> bool {
        let id = *id;
        conn.drain(scratch, m, Conn::next_frame, |conn, (kind, env)| {
            self.frame(id, conn, kind, env, m)
        })
    }

    /// Drain the workers' outbound traffic onto the client connections.
    fn after_pump(&mut self, conns: &mut [(Conn, u32)], metrics: &WireMetrics) -> bool {
        // Worker traffic queues frames on connections the kernel never
        // flagged, so track which conns the drain touched and flush
        // exactly those afterwards (one batched `write(2)` per conn per
        // burst — a whole round's downlinks coalesce first).
        let mut touched: Vec<u32> = Vec::new();
        let mut progress = false;
        while let Ok(out) = self.out_rx.try_recv() {
            progress = true;
            match out {
                MrOutbound::Downlinks { conn, session, round, msgs } => {
                    let count = msgs.len() as u64;
                    let frames = msgs.into_iter().enumerate().map(|(i, payload)| {
                        // From the referee to node i + 1.
                        Envelope { session, round, from: 0, to: i as u32 + 1, payload }
                    });
                    if queue_out(conns, &mut touched, conn, FrameKind::Data, frames, metrics) {
                        metrics.downlink_frames(count);
                    }
                }
                MrOutbound::Verdict { conn, session, payload } => {
                    let bits = payload.len_bits() as u64;
                    let env = Envelope { session, round: 0, from: 0, to: 0, payload };
                    if queue_out(conns, &mut touched, conn, FrameKind::Verdict, [env], metrics)
                    {
                        metrics.trace(
                            session.0,
                            trace_endpoint::SERVER,
                            TraceKind::Verdict,
                            bits,
                        );
                    }
                    let key = (conn, session.0);
                    if let Some(route) = self.announced.get_mut(&key) {
                        route.finished = true;
                        self.remember_finished(key);
                    }
                    self.broadcast(|| MrMsg::Finish { conn, session: session.0 });
                }
                MrOutbound::Evidence { conn, session, from, payload } => {
                    let env = Envelope { session, round: 0, from, to: 0, payload };
                    queue_out(conns, &mut touched, conn, FrameKind::Evidence, [env], metrics);
                }
            }
        }
        for (conn, id) in conns.iter_mut() {
            if touched.contains(id) {
                conn.flush();
            }
        }
        progress
    }

    fn closed(&mut self, id: u32) {
        self.announced.retain(|(owner, _), _| *owner != id);
        self.broadcast(|| MrMsg::Retire { conn: id });
    }
}

/// Queue one frame on `conn`, counting it sent.
fn queue_counted(conn: &mut Conn, kind: FrameKind, env: &Envelope, metrics: &WireMetrics) {
    let frame_len = conn.queue_frame_mut(kind, env).len();
    metrics.frames_sent(1);
    metrics.bytes_sent(frame_len as u64);
}

/// Queue `frames` on the open connection `cid`, marking it `touched`
/// for the post-drain flush and counting each frame sent. `false` (one
/// orphan counted) when the connection is gone.
fn queue_out(
    conns: &mut [(Conn, u32)],
    touched: &mut Vec<u32>,
    cid: u32,
    kind: FrameKind,
    frames: impl IntoIterator<Item = Envelope>,
    metrics: &WireMetrics,
) -> bool {
    let Some((conn, _)) = conns.iter_mut().find(|(c, id)| *id == cid && c.is_open()) else {
        metrics.orphan_frames(1);
        return false;
    };
    if !touched.contains(&cid) {
        touched.push(cid);
    }
    for env in frames {
        queue_counted(conn, kind, &env, metrics);
    }
    true
}

/// Build, self-verify, and ship the evidence bundle proving `fault`.
/// The bundle rides the worker→router outbound channel as an
/// [`MrOutbound::Evidence`] and reaches the client as a
/// [`FrameKind::Evidence`] frame; it never touches round/verdict
/// bookkeeping.
fn mr_evidence(
    index: usize,
    base: &AuthKey,
    ws: &MrSession,
    env: &Envelope,
    fault: Fault,
    otx: &OutTx,
    metrics: &WireMetrics,
) {
    let (session, n) = (env.session.0, ws.n as u32);
    let params = SessionParams { session, n, round_cap: ws.cap as u32 };
    let endpoint = trace_endpoint::worker(index as u32);
    let Some(bundle) = build_evidence(base, ws.conn, params, env, fault, endpoint, metrics)
    else {
        return;
    };
    otx.send(MrOutbound::Evidence {
        conn: ws.conn,
        session: env.session,
        from: bundle.accused.unwrap_or(0),
        payload: bundle.encode(),
    });
}

/// One shard worker: owns shard `index` of every announced session's
/// per-round uplink wait. With `owns_range` false (remote placement)
/// the worker collects nothing itself — it keeps only the referee and
/// the per-round merge accumulators.
#[allow(clippy::too_many_arguments)]
fn mr_worker(
    index: usize,
    shards: usize,
    rx: Receiver<MrMsg>,
    tx0: Option<Sender<MrMsg>>,
    otx: OutTx,
    base: &AuthKey,
    catalog: &ServiceCatalog,
    metrics: &WireMetrics,
    owns_range: bool,
) {
    let mut sessions: HashMap<(u32, u64), MrSession> = HashMap::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            MrMsg::Announce { conn, session, n, epoch, service } => {
                // A worker whose range is empty for this n can never
                // receive routed data and never emits: skip the session
                // entirely (worker 0 always participates — it runs the
                // referee).
                if index != 0 && shard_range(n, shards, index).is_empty() {
                    continue;
                }
                // The router resolved (and fail-closed) the service
                // name before broadcasting, so the index is valid.
                let entry =
                    catalog.by_index(service as usize).expect("router validated the service");
                let cap = entry.round_cap(n);
                let mut ws = MrSession {
                    conn,
                    n,
                    epoch,
                    wait: owns_range.then(|| RangeWait::new(n, shards, index, 1, cap as u32)),
                    stepper: (index == 0).then(|| entry.open(n)),
                    merge: RoundMerge::new(n, nonempty_shards(n, shards), cap),
                    cap,
                    opened: Instant::now(),
                    round_opened: Instant::now(),
                };
                emit_ready_rounds(index, session, &mut ws, &tx0, metrics);
                if index == 0 && try_advance(session, &mut ws, &otx, metrics) {
                    continue; // e.g. n = 0: judged straight from announce
                }
                sessions.insert((conn, session), ws);
            }
            MrMsg::Data { conn, env } => {
                let session = env.session.0;
                let Some(ws) = sessions.get_mut(&(conn, session)) else {
                    metrics.orphan_frames(1);
                    continue;
                };
                let Some(wait) = ws.wait.as_mut() else {
                    metrics.decode_rejects(1); // a range this worker does not own
                    continue;
                };
                let Ok(ingested) = wait.ingest(env.from, env.round, &env.payload) else {
                    // Router/worker range disagreement — a bug, not wire
                    // data; surfaced in metrics.
                    metrics.decode_rejects(1);
                    continue;
                };
                if let Some(fault) = ingested.fault {
                    mr_evidence(index, base, ws, &env, fault, &otx, metrics);
                }
                if let Some(notice) = ingested.notice {
                    let endpoint = trace_endpoint::worker(index as u32);
                    metrics.trace(session, endpoint, TraceKind::Poison, u64::from(env.from));
                    ship(index, session, ws, notice, &tx0, metrics);
                }
                emit_ready_rounds(index, session, ws, &tx0, metrics);
                if index == 0 && try_advance(session, ws, &otx, metrics) {
                    sessions.remove(&(conn, session));
                }
            }
            MrMsg::Partial { conn, session, epoch, from, partial } => {
                let Some(ws) = sessions.get_mut(&(conn, session)) else {
                    metrics.orphan_frames(1); // finished or retired in flight
                    continue;
                };
                // A stale partial from a previous run of this (conn,
                // session) key must not merge into the current one.
                if epoch != ws.epoch {
                    metrics.orphan_frames(1);
                    continue;
                }
                match absorb(ws, partial, metrics) {
                    Ok(()) => {
                        let endpoint = trace_endpoint::worker(0);
                        metrics.trace(
                            session,
                            endpoint,
                            TraceKind::PartialMerge,
                            u64::from(from),
                        );
                        if try_advance(session, ws, &otx, metrics) {
                            sessions.remove(&(conn, session));
                        }
                    }
                    Err(e) => {
                        // A partial that does not decode or merge fails
                        // the session closed.
                        send_mr_verdict(session, ws, Err(e), &otx, metrics);
                        sessions.remove(&(conn, session));
                    }
                }
            }
            MrMsg::Finish { conn, session } => {
                sessions.remove(&(conn, session));
            }
            MrMsg::Retire { conn } => {
                sessions.retain(|(owner, _), _| *owner != conn);
            }
        }
    }
}

/// Hand one partial — a range partial or a poison notice — to the
/// collector by value: worker 0 absorbs it in place, every other worker
/// sends it to worker 0 stamped with the session's announce epoch.
fn ship(
    index: usize,
    session: u64,
    ws: &mut MrSession,
    partial: RoundPartialState,
    tx0: &Option<Sender<MrMsg>>,
    metrics: &WireMetrics,
) {
    match tx0 {
        Some(tx) => {
            let (conn, epoch, from) = (ws.conn, ws.epoch, index as u32);
            let _ =
                tx.send(MrMsg::Partial { conn, session, epoch, from, partial: Ok(partial) });
        }
        None => absorb(ws, Ok(partial), metrics).expect("own partials stay within the cap"),
    }
}

/// Ship every partial this worker's range has ready.
fn emit_ready_rounds(
    index: usize,
    session: u64,
    ws: &mut MrSession,
    tx0: &Option<Sender<MrMsg>>,
    metrics: &WireMetrics,
) {
    while let Some(partial) = ws.wait.as_mut().and_then(RangeWait::take_ready) {
        let endpoint = trace_endpoint::worker(index as u32);
        metrics.trace(session, endpoint, TraceKind::PartialEmit, u64::from(partial.round()));
        ship(index, session, ws, partial, tx0, metrics);
        if tx0.is_some() {
            metrics.partial_frames(1);
        }
    }
}

/// Worker 0: absorb one partial into the session's collector. A partial
/// for a round the referee already judged — only ever a late poison
/// notice — is dropped as an orphan.
fn absorb(
    ws: &mut MrSession,
    partial: Result<RoundPartialState, DecodeError>,
    metrics: &WireMetrics,
) -> Result<(), DecodeError> {
    if !ws.merge.absorb(partial?)? {
        metrics.orphan_frames(1);
    }
    Ok(())
}

/// Worker 0: judge every round the collector has ready, stepping the
/// referee in round order (see [`RoundMerge::next`]). Returns whether
/// the session is done (verdict sent).
fn try_advance(session: u64, ws: &mut MrSession, otx: &OutTx, metrics: &WireMetrics) -> bool {
    let verdict = loop {
        if ws.merge.round() as usize > ws.cap {
            break Err(DecodeError::Invalid(format!(
                "no verdict within the {}-round cap",
                ws.cap
            )));
        }
        let Some(acc) = ws.merge.next() else { return false };
        let round = ws.merge.round();
        metrics.record_stage(Stage::PartialMerge, ws.round_opened.elapsed());
        let uplinks = match acc.finish() {
            Ok(uplinks) => uplinks,
            Err(e) => break Err(e),
        };
        let stepper = ws.stepper.as_mut().expect("worker 0 owns the referee");
        let stepped = Instant::now();
        let step = stepper.step(ws.n, round as usize, &uplinks);
        metrics.record_stage(Stage::RefereeStep, stepped.elapsed());
        let endpoint = trace_endpoint::worker(0);
        metrics.trace(session, endpoint, TraceKind::RefereeStep, u64::from(round));
        match step {
            RefereeStep::Done(out) => break Ok(out),
            RefereeStep::Continue(downlinks) if downlinks.len() != ws.n => {
                break Err(DecodeError::Inconsistent(format!(
                    "referee produced {} downlinks for {} nodes",
                    downlinks.len(),
                    ws.n
                )));
            }
            RefereeStep::Continue(msgs) => {
                let (conn, session) = (ws.conn, SessionId(session));
                otx.send(MrOutbound::Downlinks { conn, session, round, msgs });
                ws.merge.advance();
                ws.round_opened = Instant::now();
            }
        }
    };
    send_mr_verdict(session, ws, verdict, otx, metrics);
    true
}

fn send_mr_verdict(
    session: u64,
    ws: &MrSession,
    result: Result<Message, DecodeError>,
    otx: &OutTx,
    metrics: &WireMetrics,
) {
    metrics.record_stage(Stage::Verdict, ws.opened.elapsed());
    metrics.verdict_frames(1);
    otx.send(MrOutbound::Verdict {
        conn: ws.conn,
        session: SessionId(session),
        payload: encode_mr_verdict(&result),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_output_codec_round_trips() {
        for out in [
            Ok(true),
            Ok(false),
            Err(DecodeError::Truncated),
            Err(DecodeError::OutOfRange("x".into())),
            Err(DecodeError::Inconsistent("y".into())),
            Err(DecodeError::Invalid("z".into())),
        ] {
            let decoded = decode_bool_output(&encode_bool_output(&out));
            match (&out, &decoded) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => {
                    assert_eq!(std::mem::discriminant(a), std::mem::discriminant(b))
                }
                other => panic!("shape changed: {other:?}"),
            }
        }
    }

    #[test]
    fn mr_verdict_codec_round_trips() {
        let mut w = BitWriter::new();
        w.write_bits(0b1_0110_0101, 9);
        let payload = Message::from_writer(w);
        let ok = decode_mr_verdict(&encode_mr_verdict(&Ok(payload.clone()))).unwrap();
        assert_eq!(ok, payload);
        let empty = decode_mr_verdict(&encode_mr_verdict(&Ok(Message::empty()))).unwrap();
        assert_eq!(empty, Message::empty());
        for e in [
            DecodeError::Truncated,
            DecodeError::OutOfRange("a".into()),
            DecodeError::Inconsistent("b".into()),
            DecodeError::Invalid("c".into()),
        ] {
            let back = decode_mr_verdict(&encode_mr_verdict(&Err(e.clone()))).unwrap_err();
            assert_eq!(std::mem::discriminant(&back), std::mem::discriminant(&e));
        }
    }

    #[test]
    fn announce_codec_round_trips() {
        for (n, service) in [
            (0usize, None),
            (17, None),
            (5, Some("boruvka")),
            (1 << 20, Some("sketch-then-reconstruct")),
            (3, Some("x")),
        ] {
            let payload = encode_mr_announce(n, service);
            assert_eq!(decode_mr_announce(&payload), Some((n, service.map(str::to_string))));
        }
        // A bare 32-bit announce is exactly the pre-catalog wire bytes.
        let mut w = BitWriter::new();
        w.write_bits(42, 32);
        assert_eq!(encode_mr_announce(42, None), Message::from_writer(w));
    }

    #[test]
    fn announce_codec_rejects_malformed() {
        // Truncated name: length prefix promises more bytes than exist.
        let mut w = BitWriter::new();
        w.write_bits(5, 32);
        w.write_bits(4, 8);
        w.write_bits(u64::from(b'a'), 8);
        assert_eq!(decode_mr_announce(&Message::from_writer(w)), None);
        // Trailing bits after the name.
        let mut w = BitWriter::new();
        w.write_bits(5, 32);
        w.write_bits(1, 8);
        w.write_bits(u64::from(b'a'), 8);
        w.push_bit(true);
        assert_eq!(decode_mr_announce(&Message::from_writer(w)), None);
        // Non-UTF-8 name bytes.
        let mut w = BitWriter::new();
        w.write_bits(5, 32);
        w.write_bits(1, 8);
        w.write_bits(0xff, 8);
        assert_eq!(decode_mr_announce(&Message::from_writer(w)), None);
    }
}
