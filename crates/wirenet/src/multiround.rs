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
//! `k` **shard workers** each own the
//! [`RoundShard`]
//! states for their slice of every session's ID space. Per session:
//!
//! 1. the client announces `(session, n, service name)`
//!    ([`Announce`](FrameKind::Announce)); the router resolves the name
//!    against the catalog and every worker opens shard `i` for round 1
//!    under that service's referee and round cap;
//! 2. round-stamped [`Data`](FrameKind::Data) uplink frames are routed
//!    to workers by sender range; a worker whose range completes for
//!    round `r` ships its
//!    [`RoundPartialState`]
//!    as a [`Partial`](FrameKind::Partial) frame — MAC'd by the same
//!    wire codec under the exchange-domain key, its envelope stamped
//!    with the session's announce **epoch** and the round carried
//!    *inside* the authenticated payload — and advances to round `r+1`;
//! 3. worker 0 merges each round's partials (any order; empty-range
//!    shards are implied — they never emit) and, once round `r`'s
//!    quorum is complete (or poisoned, which fixes the verdict's `Err`
//!    shape), runs the protocol's
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
//! the merge accumulators (see [`crate::placement`]).
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
//! on in-process workers and shard hosts: an out-of-range sender, a duplicate, a round
//! stamp outside `1..=cap` or an uplink racing ahead of the protocol
//! poisons the round it hit. An arrival behind a range partial that
//! already shipped is checked against the retained transcript of that
//! round — a repeat is still provable — and reported to worker 0 as a
//! round-stamped poison notice. Worker 0 judges a poisoned round
//! without waiting for quorum, and drops a notice for a round it
//! already consumed. The client receives the canonical rejection class
//! instead of hanging (bounded further by the client's
//! [`WireTimeouts::verdict`](crate::WireTimeouts) round deadline). A
//! round cap on the server ([`WireReferee::round_cap`]) bounds referee
//! state even against a client that stalls mid-protocol, and a range
//! partial too large for a frame ends its session with a typed
//! `Invalid` verdict.

use crate::auth::AuthKey;
use crate::fleet::accept_conn;
use crate::frame::{decode_frame, encode_wire_frame, FrameKind, WireError};
use crate::metrics::{trace_endpoint, Stage, WireMetrics};
use crate::placement::{fits_frame, run_proxy, ProxyConfig, RemotePlacement};
use crate::poll::{fd_of, Poller, PollerBackend, Readiness, Waker};
use crate::reactor::{Conn, SCRATCH_BYTES, WRITE_BACKPRESSURE_BYTES};
use crate::shard::{build_evidence, evidence_record, repeat_evidence};
use referee_protocol::evidence::{EvidenceRecord, ProvableError};
use referee_protocol::multiround::RefereeStep;
use referee_protocol::shard::multiround::{RoundPartialState, RoundShard};
use referee_protocol::shard::{route_arrival, shard_range, Arrival};
use referee_protocol::trace::TraceKind;
use referee_protocol::{BitWriter, DecodeError, Message};
use referee_simnet::{Envelope, SessionId};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::thread;
use std::time::{Duration, Instant};

/// The largest network size a session may announce. Workers size
/// per-session state by `n` (the range partition, a protocol's referee
/// state such as Borůvka's union–find), so the router refuses larger
/// claims with a typed `Invalid` verdict before any worker hears of the
/// session.
pub const MAX_SESSION_NODES: usize = 1 << 20;

/// Domain-separation tweak for the shard-exchange key.
const MR_EXCHANGE_TWEAK: u64 = 0x6d72_7368_6172_6478; // "mrshardx"

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
    /// A wire-encoded [`FrameKind::Partial`] frame (worker 0 only): a
    /// range partial or a poison notice. The envelope's `round` carries
    /// the session's announce epoch — the protocol round travels inside
    /// the authenticated payload.
    Partial(Vec<u8>),
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

/// One range's share of a session's uplink wait — the same state on an
/// in-process worker and on a [`ShardHost`](crate::placement::ShardHost):
/// the round the range is collecting, plus the transcript that keeps an
/// arrival behind an already-shipped partial provable.
pub(crate) struct RangeWait {
    pub n: usize,
    shards: usize,
    index: usize,
    pub cap: u32,
    shard: RoundShard,
    /// Fresh uplinks of the collecting round.
    collecting: Vec<(u32, Message)>,
    /// Fresh uplinks of the last round whose partial shipped.
    shipped: Vec<(u32, Message)>,
}

/// What one uplink did besides filling its range.
#[derive(Default)]
pub(crate) struct Ingested {
    /// A provable violation and the records proving it.
    pub evidence: Option<(ProvableError, Vec<EvidenceRecord>)>,
    /// A poison notice for a round whose partial already shipped: the
    /// accumulator fails the session unless it consumed that round.
    pub late: Option<RoundPartialState>,
}

impl RangeWait {
    /// Shard `index` of `shards` of a size-`n` session, collecting from
    /// round `round` under round cap `cap`.
    pub(crate) fn new(
        n: usize,
        shards: usize,
        index: usize,
        round: u32,
        cap: u32,
    ) -> RangeWait {
        RangeWait {
            n,
            shards,
            index,
            cap,
            shard: RoundShard::new(n, shards, index, round),
            collecting: Vec::new(),
            shipped: Vec::new(),
        }
    }

    /// Absorb one routed uplink under the engine's single round rule.
    /// Faults poison the round they hit:
    ///
    /// * an out-of-range sender poisons its claimed round if that
    ///   round's partial already shipped, else the collecting round;
    /// * a stamp outside `1..=cap`, a repeat within the collecting
    ///   round, and an uplink racing ahead of the collecting round
    ///   poison the collecting round;
    /// * an arrival for a round whose partial already shipped poisons
    ///   that round, proven against the retained transcript when it is
    ///   the last shipped round.
    ///
    /// Once every round up to the cap has shipped, "the collecting
    /// round" is the last shipped one. `conn` and `base` sign the
    /// evidence records; `env` must be the frame as the client sent it.
    pub(crate) fn ingest(
        &mut self,
        base: &AuthKey,
        conn: u32,
        env: Envelope,
        metrics: &WireMetrics,
    ) -> Ingested {
        let current = self.shard.round();
        let stray = env.from == 0 || env.from as usize > self.n;
        let behind = (1..current).contains(&env.round);
        let (evidence, poisoned_round) = if stray {
            let rec = evidence_record(base, conn, &env);
            (Some((ProvableError::OutOfRangeSender, vec![rec])), behind.then_some(env.round))
        } else if env.round == 0 || env.round > self.cap {
            let rec = evidence_record(base, conn, &env);
            (Some((ProvableError::WrongRound, vec![rec])), None)
        } else if env.round == current {
            match self.shard.ingest(env.from, env.payload.clone()) {
                Ok(Arrival::Fresh) => {
                    self.collecting.push((env.from, env.payload));
                    return Ingested::default();
                }
                Ok(Arrival::Duplicate { .. }) => {
                    let prev = self.shard.message_for(env.from);
                    (prev.map(|prev| repeat_evidence(base, conn, &env, prev)), None)
                }
                Ok(Arrival::OutOfRange) => return Ingested::default(),
                Err(_) => {
                    // Router/worker range disagreement — a bug, not
                    // wire data; surfaced in metrics.
                    metrics.decode_rejects(1);
                    return Ingested::default();
                }
            }
        } else if behind {
            let prev = (env.round + 1 == current)
                .then(|| self.shipped.iter().find(|(from, _)| *from == env.from))
                .flatten();
            (prev.map(|(_, prev)| repeat_evidence(base, conn, &env, prev)), Some(env.round))
        } else {
            // An uplink for a round whose downlinks were never issued.
            (None, None)
        };
        let late = self.poison(poisoned_round, env.from, env.payload);
        Ingested { evidence, late }
    }

    /// Record `from` as the fault of `round` — a shipped round, or the
    /// collecting one when `None`. Returns the notice to ship when the
    /// poisoned round's partial already left.
    fn poison(
        &mut self,
        round: Option<u32>,
        from: u32,
        payload: Message,
    ) -> Option<RoundPartialState> {
        let round = match round {
            Some(round) => round,
            None if self.shard.round() <= self.cap => {
                if from == 0 || from as usize > self.n {
                    let _ = self.shard.ingest(from, payload); // records the stray
                } else {
                    self.shard.note_duplicate(from);
                }
                return None;
            }
            None => self.cap,
        };
        Some(poison_notice(self.n, round, from))
    }

    /// The collecting round's partial, once the range is complete or
    /// poisoned (and the round within the cap); the wait then advances
    /// to the next round and the shipped round's transcript is kept.
    pub(crate) fn take_ready(&mut self) -> Option<RoundPartialState> {
        let s = &self.shard;
        if s.range().is_empty() || !(s.is_complete() || s.is_poisoned()) || s.round() > self.cap
        {
            return None;
        }
        let next = RoundShard::new(self.n, self.shards, self.index, s.round() + 1);
        self.shipped = std::mem::take(&mut self.collecting);
        Some(std::mem::replace(&mut self.shard, next).into_partial())
    }
}

/// The single-fault summary of round `round` that poisons it at the
/// accumulator: `from` recorded as an out-of-range sender (0 or `> n`)
/// or as a duplicate. Every deployment that reports a fault behind a
/// shipped partial — the in-process worker, the shard host, the
/// placement proxy — ships exactly this notice, so the fail-fast
/// verdict cannot drift between them.
pub(crate) fn poison_notice(n: usize, round: u32, from: u32) -> RoundPartialState {
    let mut notice = RoundPartialState::new(n, round);
    if from == 0 || from as usize > n {
        notice.note_out_of_range(from);
    } else {
        notice.note_duplicate(from);
    }
    notice
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
    /// Worker 0 only: the referee, its next round, and per-round merge
    /// accumulators `(state, quorum)`.
    stepper: Option<Box<dyn RefereeStepper>>,
    referee_round: u32,
    pending: BTreeMap<u32, (RoundPartialState, usize)>,
    /// Shards with non-empty ranges for this `n` — the per-round merge
    /// quorum (empty-range shards never emit; their empty partials are
    /// implied).
    needed: usize,
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
    placement: Option<(RemotePlacement, Duration)>,
    shutdown: &AtomicBool,
    metrics: &WireMetrics,
    poller: Poller,
) {
    let exchange_key = key.derive(MR_EXCHANGE_TWEAK);
    let (out_tx, out_rx) = std::sync::mpsc::channel::<MrOutbound>();
    // One lane per shard, plus the accumulator's (last) when the
    // ranges are remote; the router broadcasts control traffic to all.
    let acc = if placement.is_some() { shards } else { 0 };
    let lanes = shards + usize::from(placement.is_some());
    let (worker_txs, worker_rxs): (Vec<Sender<MrMsg>>, Vec<Receiver<MrMsg>>) =
        (0..lanes).map(|_| std::sync::mpsc::channel()).unzip();
    thread::scope(|scope| {
        for (i, rx) in worker_rxs.into_iter().enumerate() {
            let (base, exchange_key) = (&key, &exchange_key);
            match &placement {
                Some((placement, backoff)) if i != acc => {
                    let cfg = ProxyConfig {
                        index: i,
                        shards,
                        base,
                        exchange_key,
                        placement,
                        metrics,
                        backoff: *backoff,
                    };
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
                            index,
                            shards,
                            rx,
                            tx0,
                            otx,
                            exchange_key,
                            base,
                            catalog,
                            metrics,
                            owns_range,
                        )
                    });
                }
            }
        }
        drop(out_tx);
        mr_route(
            listener,
            key,
            catalog,
            shards,
            shutdown,
            metrics,
            &worker_txs,
            &out_rx,
            &poller,
        );
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

/// The router: accepts, authenticates, routes round-stamped uplinks by
/// session + node range, and streams downlink and verdict frames back.
/// Like the echo server's pump, it rides the poller's readiness *sets*:
/// only the connections the kernel flagged are filled and parsed each
/// wake (a full probe sweep of the pool happens only when readiness
/// degrades to `All` — the sweep backend, or the capped wait timeout).
#[allow(clippy::too_many_arguments)]
fn mr_route(
    listener: TcpListener,
    key: AuthKey,
    catalog: &ServiceCatalog,
    shards: usize,
    shutdown: &AtomicBool,
    metrics: &WireMetrics,
    worker_txs: &[Sender<MrMsg>],
    out_rx: &Receiver<MrOutbound>,
    poller: &Poller,
) {
    let listener_fd = fd_of(&listener);
    poller.register(listener_fd);
    let mut gates: Vec<(u32, Conn)> = Vec::new();
    let mut announced: HashMap<(u32, u64), SessionRoute> = HashMap::new();
    let mut finished_fifo: VecDeque<(u32, u64)> = VecDeque::new();
    let mut next_id: u32 = 1;
    let mut next_epoch: u32 = 1;
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    let mut ready: Vec<i32> = Vec::new();
    let mut readiness = Readiness::All;
    while !shutdown.load(Ordering::Relaxed) {
        let mut progress = false;
        if readiness == Readiness::All || ready.contains(&listener_fd) {
            while let Some((id, mut conn)) = accept_conn(&listener, &key, &mut next_id) {
                metrics.connections(1);
                conn.trace_with(metrics.recorder_arc(), trace_endpoint::SERVER);
                conn.meter_with(metrics.syscall_meter());
                poller.register(conn.fd());
                metrics.trace(0, trace_endpoint::SERVER, TraceKind::Dial, u64::from(id));
                gates.push((id, conn));
                progress = true;
            }
        }
        let pump_list: Vec<usize> = match readiness {
            Readiness::All => (0..gates.len()).collect(),
            Readiness::Fds => ready
                .iter()
                .filter_map(|fd| gates.iter().position(|(_, c)| c.fd() == *fd))
                .collect(),
        };
        for gi in pump_list {
            let (id, conn) = &mut gates[gi];
            progress |= conn.flush() > 0;
            if conn.pending_write() > WRITE_BACKPRESSURE_BYTES {
                if !conn.stalled {
                    conn.stalled = true;
                    metrics.backpressure_stalls(1);
                }
                continue;
            }
            conn.stalled = false;
            let got = conn.fill(&mut scratch);
            metrics.bytes_received(got as u64);
            progress |= got > 0;
            loop {
                match conn.next_frame() {
                    Ok(None) => break,
                    Ok(Some((FrameKind::Announce, env))) => {
                        metrics.frames_received(1);
                        let Some((n, name)) = decode_mr_announce(&env.payload) else {
                            metrics.decode_rejects(1);
                            conn.close();
                            break;
                        };
                        if announced
                            .get(&(*id, env.session.0))
                            .is_some_and(|route| !route.finished)
                        {
                            metrics.decode_rejects(1);
                            conn.close();
                            break;
                        }
                        // Resolve the requested service (a bare
                        // announce is index 0 — the pre-catalog wire
                        // format). An unknown name, or a network larger
                        // than `MAX_SESSION_NODES`, fails *closed*: the
                        // session is born finished with a typed error
                        // verdict already queued, so the client gets a
                        // canonical rejection instead of a hang, the
                        // connection stays usable, and no worker ever
                        // hears of the session (nor sizes state by its
                        // claimed `n`).
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
                                let payload =
                                    encode_mr_verdict(&Err(DecodeError::Invalid(why)));
                                let verdict_env = Envelope {
                                    session: env.session,
                                    round: 0,
                                    from: 0,
                                    to: 0,
                                    payload,
                                };
                                let frame_len = conn
                                    .queue_frame_mut(FrameKind::Verdict, &verdict_env)
                                    .len();
                                metrics.frames_sent(1);
                                metrics.verdict_frames(1);
                                metrics.bytes_sent(frame_len as u64);
                                metrics.trace(
                                    env.session.0,
                                    trace_endpoint::SERVER,
                                    TraceKind::Verdict,
                                    u64::from(*id),
                                );
                                announced.insert(
                                    (*id, env.session.0),
                                    SessionRoute { n, finished: true },
                                );
                                finished_fifo.push_back((*id, env.session.0));
                                while finished_fifo.len() > FINISHED_ROUTE_CAP {
                                    let key = finished_fifo.pop_front().expect("len > cap > 0");
                                    if announced.get(&key).is_some_and(|r| r.finished) {
                                        announced.remove(&key);
                                    }
                                }
                                progress = true;
                                continue;
                            }
                        };
                        let epoch = next_epoch & 0x7fff_ffff;
                        next_epoch = next_epoch.wrapping_add(1);
                        metrics.trace(
                            env.session.0,
                            trace_endpoint::SERVER,
                            TraceKind::Announce,
                            n as u64,
                        );
                        announced
                            .insert((*id, env.session.0), SessionRoute { n, finished: false });
                        // Accumulator-first: see `acc_first_order` — a
                        // partial must never overtake its announce into
                        // the accumulator's inbox.
                        for wi in acc_first_order(worker_txs.len(), shards) {
                            let _ = worker_txs[wi].send(MrMsg::Announce {
                                conn: *id,
                                session: env.session.0,
                                n,
                                epoch,
                                service,
                            });
                        }
                        progress = true;
                    }
                    Ok(Some((FrameKind::Data, env))) => {
                        metrics.frames_received(1);
                        match announced.get(&(*id, env.session.0)) {
                            Some(route) if route.finished => {
                                metrics.orphan_frames(1);
                            }
                            Some(route) => {
                                let target = route_arrival(route.n, shards, env.from);
                                metrics.trace(
                                    env.session.0,
                                    trace_endpoint::SERVER,
                                    TraceKind::Uplink,
                                    u64::from(env.from),
                                );
                                let _ = worker_txs[target].send(MrMsg::Data { conn: *id, env });
                            }
                            None => {
                                metrics.decode_rejects(1);
                                conn.close();
                                break;
                            }
                        }
                        progress = true;
                    }
                    Ok(Some(_)) => {
                        metrics.decode_rejects(1);
                        conn.close();
                        break;
                    }
                    Err(WireError::BadMac) => {
                        metrics.mac_rejects(1);
                        metrics.trace(0, trace_endpoint::SERVER, TraceKind::MacReject, 0);
                        conn.close();
                        break;
                    }
                    Err(_) => {
                        metrics.decode_rejects(1);
                        conn.close();
                        break;
                    }
                }
            }
            // Anything the parse loop queued directly (an unknown-
            // service verdict) leaves before the conn drops off the
            // readiness radar.
            conn.flush();
        }
        // Worker traffic queues frames on connections the kernel never
        // flagged, so track which conns the drain touched and flush
        // exactly those afterwards (one batched `write(2)` per conn per
        // burst — a whole round's downlinks coalesce first).
        let mut touched: Vec<u32> = Vec::new();
        while let Ok(out) = out_rx.try_recv() {
            match out {
                MrOutbound::Downlinks { conn: cid, session, round, msgs } => {
                    match gates.iter_mut().find(|(id, c)| *id == cid && c.is_open()) {
                        Some((_, conn)) => {
                            // A whole round's downlinks coalesce in the
                            // write buffer; the post-drain flush of the
                            // touched conns ships them in one write.
                            if !touched.contains(&cid) {
                                touched.push(cid);
                            }
                            for (i, payload) in msgs.into_iter().enumerate() {
                                let env = Envelope {
                                    session,
                                    round,
                                    from: 0, // the referee
                                    to: (i + 1) as u32,
                                    payload,
                                };
                                let frame_len =
                                    conn.queue_frame_mut(FrameKind::Data, &env).len();
                                metrics.frames_sent(1);
                                metrics.downlink_frames(1);
                                metrics.bytes_sent(frame_len as u64);
                            }
                        }
                        None => metrics.orphan_frames(1),
                    }
                }
                MrOutbound::Verdict { conn: cid, session, payload } => {
                    match gates.iter_mut().find(|(id, c)| *id == cid && c.is_open()) {
                        Some((_, conn)) => {
                            if !touched.contains(&cid) {
                                touched.push(cid);
                            }
                            let env = Envelope { session, round: 0, from: 0, to: 0, payload };
                            let frame_len =
                                conn.queue_frame_mut(FrameKind::Verdict, &env).len();
                            metrics.frames_sent(1);
                            metrics.bytes_sent(frame_len as u64);
                            metrics.trace(
                                session.0,
                                trace_endpoint::SERVER,
                                TraceKind::Verdict,
                                u64::from(cid),
                            );
                        }
                        None => metrics.orphan_frames(1),
                    }
                    if let Some(route) = announced.get_mut(&(cid, session.0)) {
                        route.finished = true;
                        finished_fifo.push_back((cid, session.0));
                        while finished_fifo.len() > FINISHED_ROUTE_CAP {
                            let key = finished_fifo.pop_front().expect("len > cap > 0");
                            if announced.get(&key).is_some_and(|r| r.finished) {
                                announced.remove(&key);
                            }
                        }
                    }
                    for wi in acc_first_order(worker_txs.len(), shards) {
                        let _ = worker_txs[wi]
                            .send(MrMsg::Finish { conn: cid, session: session.0 });
                    }
                }
                MrOutbound::Evidence { conn: cid, session, from, payload } => {
                    match gates.iter_mut().find(|(id, c)| *id == cid && c.is_open()) {
                        Some((_, conn)) => {
                            if !touched.contains(&cid) {
                                touched.push(cid);
                            }
                            let env = Envelope { session, round: 0, from, to: 0, payload };
                            let frame_len =
                                conn.queue_frame_mut(FrameKind::Evidence, &env).len();
                            metrics.frames_sent(1);
                            metrics.bytes_sent(frame_len as u64);
                        }
                        None => metrics.orphan_frames(1),
                    }
                }
            }
            progress = true;
        }
        for cid in touched {
            if let Some((_, conn)) = gates.iter_mut().find(|(id, _)| *id == cid) {
                conn.flush();
            }
        }
        let closed: Vec<u32> =
            gates.iter().filter(|(_, c)| !c.is_open()).map(|(id, _)| *id).collect();
        for cid in &closed {
            announced.retain(|(owner, _), _| owner != cid);
            for wi in acc_first_order(worker_txs.len(), shards) {
                let _ = worker_txs[wi].send(MrMsg::Retire { conn: *cid });
            }
        }
        if !closed.is_empty() {
            gates.retain(|(_, c)| c.is_open());
        }
        // Epoll: pumped sockets drained to WouldBlock; new bytes arrive
        // as readiness edges and worker traffic wakes the poller via
        // the out channel's waker, so wait (the capped timeout reports
        // `All`, re-probing stalled conns at sweep cadence). Sweep: no
        // edges — re-sweep immediately while traffic flows.
        if progress && poller.backend() == PollerBackend::Sweep {
            readiness = Readiness::All;
            continue;
        }
        readiness = poller.wait_ready(&mut ready);
    }
}

/// Shards with non-empty ranges under a `shards`-way split of `1..=n` —
/// the per-round merge quorum (empty ranges never emit partials).
fn nonempty_shards(n: usize, shards: usize) -> usize {
    (0..shards).filter(|&i| !shard_range(n, shards, i).is_empty()).count()
}

/// Build, self-verify, and ship an evidence bundle. The bundle rides
/// the worker→router outbound channel as an [`MrOutbound::Evidence`]
/// and reaches the client as a [`FrameKind::Evidence`] frame; it never
/// touches round/verdict bookkeeping.
#[allow(clippy::too_many_arguments)]
fn mr_evidence(
    index: usize,
    base: &AuthKey,
    session: u64,
    ws: &MrSession,
    error: ProvableError,
    records: Vec<EvidenceRecord>,
    otx: &OutTx,
    metrics: &WireMetrics,
) {
    let Some(bundle) = build_evidence(
        base,
        ws.conn,
        session,
        ws.n,
        ws.cap as u32,
        error,
        records,
        trace_endpoint::worker(index as u32),
        metrics,
    ) else {
        return;
    };
    otx.send(MrOutbound::Evidence {
        conn: ws.conn,
        session: SessionId(session),
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
    exchange_key: &AuthKey,
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
                    referee_round: 1,
                    pending: BTreeMap::new(),
                    needed: nonempty_shards(n, shards),
                    cap,
                    opened: Instant::now(),
                    round_opened: Instant::now(),
                };
                emit_ready_rounds(index, session, &mut ws, &tx0, &otx, exchange_key, metrics);
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
                let from = env.from;
                let ingested = wait.ingest(base, conn, env, metrics);
                if let Some((error, records)) = ingested.evidence {
                    mr_evidence(index, base, session, ws, error, records, &otx, metrics);
                }
                if let Some(notice) = ingested.late {
                    let endpoint = trace_endpoint::worker(index as u32);
                    metrics.trace(session, endpoint, TraceKind::Poison, u64::from(from));
                    // A poison notice is a few bits — never oversized.
                    let _ = ship(index, session, ws, notice, &tx0, exchange_key, metrics);
                }
                emit_ready_rounds(index, session, ws, &tx0, &otx, exchange_key, metrics);
                if index == 0 && try_advance(session, ws, &otx, metrics) {
                    sessions.remove(&(conn, session));
                }
            }
            MrMsg::Partial(bytes) => {
                // Worker 0 only: authenticate and decode a sibling
                // shard's round partial through the wire codec.
                let decoded = match decode_frame(exchange_key, &bytes) {
                    Ok(Some(d)) if d.kind == FrameKind::Partial => d,
                    Ok(_) => {
                        metrics.decode_rejects(1);
                        continue;
                    }
                    Err(WireError::BadMac) => {
                        metrics.mac_rejects(1);
                        continue;
                    }
                    Err(_) => {
                        metrics.decode_rejects(1);
                        continue;
                    }
                };
                let session = decoded.envelope.session.0;
                let conn = decoded.envelope.to;
                let Some(ws) = sessions.get_mut(&(conn, session)) else {
                    metrics.orphan_frames(1); // finished or retired in flight
                    continue;
                };
                // The envelope's round field carries the announce epoch:
                // a stale partial from a previous run of this (conn,
                // session) key must not merge into the current one.
                if decoded.envelope.round != ws.epoch {
                    metrics.orphan_frames(1);
                    continue;
                }
                let merged = RoundPartialState::decode(ws.n, &decoded.envelope.payload)
                    .and_then(|p| accumulate(ws, p, metrics));
                match merged {
                    Ok(()) => {
                        metrics.trace(
                            session,
                            trace_endpoint::worker(0),
                            TraceKind::PartialMerge,
                            u64::from(decoded.envelope.from),
                        );
                        if try_advance(session, ws, &otx, metrics) {
                            sessions.remove(&(conn, session));
                        }
                    }
                    Err(e) => {
                        // A partial that does not decode or merge is an
                        // internal fault; fail the session closed.
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

/// Route one partial — a range partial or a poison notice — toward the
/// accumulator: worker 0 merges in place, every other worker ships a
/// MAC'd [`FrameKind::Partial`] frame stamped with the session's
/// announce epoch. `false` if the partial is too large for the wire
/// codec's frame cap.
#[must_use]
fn ship(
    index: usize,
    session: u64,
    ws: &mut MrSession,
    partial: RoundPartialState,
    tx0: &Option<Sender<MrMsg>>,
    exchange_key: &AuthKey,
    metrics: &WireMetrics,
) -> bool {
    let Some(tx) = tx0 else {
        accumulate(ws, partial, metrics).expect("same-n partials always merge");
        return true;
    };
    let payload = partial.encode();
    if !fits_frame(&payload) {
        return false;
    }
    let env = Envelope {
        session: SessionId(session),
        round: ws.epoch,
        from: index as u32,
        to: ws.conn,
        payload,
    };
    let _ = tx.send(MrMsg::Partial(encode_wire_frame(exchange_key, FrameKind::Partial, &env)));
    true
}

/// Ship every partial this worker's range has ready. A partial beyond
/// the frame cap (a session far outside frugal message sizes) ends the
/// session with a typed `Invalid` verdict — never a worker panic, and
/// never a starved wait.
fn emit_ready_rounds(
    index: usize,
    session: u64,
    ws: &mut MrSession,
    tx0: &Option<Sender<MrMsg>>,
    otx: &OutTx,
    exchange_key: &AuthKey,
    metrics: &WireMetrics,
) {
    while let Some(partial) = ws.wait.as_mut().and_then(RangeWait::take_ready) {
        let endpoint = trace_endpoint::worker(index as u32);
        metrics.trace(session, endpoint, TraceKind::PartialEmit, u64::from(partial.round()));
        if !ship(index, session, ws, partial, tx0, exchange_key, metrics) {
            let e = DecodeError::Invalid("shard partial exceeds the wire frame cap".into());
            send_mr_verdict(session, ws, Err(e), otx, metrics);
            return;
        }
        if tx0.is_some() {
            metrics.partial_frames(1);
        }
    }
}

/// Worker 0: merge one partial into its round's accumulator. A partial
/// for a round the referee already consumed — only ever a late poison
/// notice — is dropped as an orphan.
fn accumulate(
    ws: &mut MrSession,
    partial: RoundPartialState,
    metrics: &WireMetrics,
) -> Result<(), DecodeError> {
    let round = partial.round();
    if round < ws.referee_round {
        metrics.orphan_frames(1);
        return Ok(());
    }
    let (mut acc, quorum) =
        ws.pending.remove(&round).unwrap_or_else(|| (RoundPartialState::new(ws.n, round), 0));
    acc.merge(partial)?;
    ws.pending.insert(round, (acc, quorum + 1));
    Ok(())
}

/// Worker 0: consume every round whose quorum is complete (or whose
/// accumulator is poisoned — no further partial can turn an `Err` into
/// an `Ok`), stepping the referee in round order. While the current
/// round waits, a poisoned later round already fixes the verdict's
/// `Err` shape and is judged at once. Returns whether the session is
/// done (verdict sent).
fn try_advance(session: u64, ws: &mut MrSession, otx: &OutTx, metrics: &WireMetrics) -> bool {
    loop {
        if ws.referee_round as usize > ws.cap {
            send_mr_verdict(
                session,
                ws,
                Err(DecodeError::Invalid(format!(
                    "no verdict within the {}-round cap",
                    ws.cap
                ))),
                otx,
                metrics,
            );
            return true;
        }
        let round = ws.referee_round;
        let (mut acc, quorum) = ws
            .pending
            .remove(&round)
            .unwrap_or_else(|| (RoundPartialState::new(ws.n, round), 0));
        if quorum < ws.needed && !acc.poisoned() {
            ws.pending.insert(round, (acc, quorum));
            let Some(later) =
                ws.pending.iter().find(|(_, (p, _))| p.poisoned()).map(|(r, _)| *r)
            else {
                return false;
            };
            acc = ws.pending.remove(&later).expect("found above").0;
        }
        metrics.record_stage(Stage::PartialMerge, ws.round_opened.elapsed());
        match acc.finish() {
            Err(e) => {
                send_mr_verdict(session, ws, Err(e), otx, metrics);
                return true;
            }
            Ok(uplinks) => {
                let stepper = ws.stepper.as_mut().expect("worker 0 owns the referee");
                let stepped = Instant::now();
                let step = stepper.step(ws.n, round as usize, &uplinks);
                metrics.record_stage(Stage::RefereeStep, stepped.elapsed());
                metrics.trace(
                    session,
                    trace_endpoint::worker(0),
                    TraceKind::RefereeStep,
                    u64::from(round),
                );
                match step {
                    RefereeStep::Done(out) => {
                        send_mr_verdict(session, ws, Ok(out), otx, metrics);
                        return true;
                    }
                    RefereeStep::Continue(downlinks) => {
                        if downlinks.len() != ws.n {
                            send_mr_verdict(
                                session,
                                ws,
                                Err(DecodeError::Inconsistent(format!(
                                    "referee produced {} downlinks for {} nodes",
                                    downlinks.len(),
                                    ws.n
                                ))),
                                otx,
                                metrics,
                            );
                            return true;
                        }
                        otx.send(MrOutbound::Downlinks {
                            conn: ws.conn,
                            session: SessionId(session),
                            round,
                            msgs: downlinks,
                        });
                        ws.referee_round += 1;
                        ws.round_opened = Instant::now();
                    }
                }
            }
        }
    }
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

    #[test]
    fn nonempty_shard_quorums() {
        assert_eq!(nonempty_shards(0, 4), 0);
        assert_eq!(nonempty_shards(1, 4), 1);
        assert_eq!(nonempty_shards(3, 8), 3);
        assert_eq!(nonempty_shards(10, 4), 4);
        assert_eq!(nonempty_shards(10, 1), 1);
    }
}
