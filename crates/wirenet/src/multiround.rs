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
//! `k` **shard workers** run one worker state machine (`Worker`): each
//! owns the [`RangeWait`] of its slice of a session's ID space, and
//! worker 0 also runs the session's [`RoundMerge`] — the round rule of
//! `referee_protocol::shard`, which this module only drives. A session
//! of `n` nodes splits over only
//! [`effective_shards`]`(n, k) = min(k, ⌈n / MIN_RANGE_NODES⌉)` ranges
//! (`referee_protocol::shard`): below that size a second range costs a
//! cross-thread handoff and a merge per round and buys nothing, so a
//! small session runs whole on worker 0, with no partial and no merge.
//! Per session, with `k_eff` its effective shard count:
//!
//! 1. the client announces `(session, n, service name)`
//!    ([`Announce`](FrameKind::Announce)); the router resolves the name
//!    against the catalog, fixes the service's round cap, and workers
//!    `0..k_eff` open shard `i` of `k_eff` for round 1 under that cap
//!    (worker 0 also opens the service's referee);
//! 2. round-stamped uplinks arrive as **runs** — every `(node, message)`
//!    entry of one session round in one [`Data`](FrameKind::Data) frame
//!    (see [`crate::frame`]); the router decodes each run once, splits
//!    it by sender range and hands each worker its entries as one
//!    message, which the worker applies one arrival at a time, exactly
//!    as if each had travelled in its own frame; a worker whose range
//!    completes for round `r` hands its [`RoundPartialState`] to worker
//!    0 **by value**
//!    over the in-process channel, stamped with the session's announce
//!    **epoch** (the round travels inside the partial), and advances to
//!    round `r+1` — nothing between threads of one process is encoded
//!    or MAC'd;
//! 3. worker 0's collector absorbs each round's partials (any order;
//!    empty-range shards are implied — they never emit) and, once round
//!    `r`'s quorum is complete (or poisoned, which fixes the verdict's
//!    `Err` shape), runs the protocol's
//!    [`referee_step`](referee_protocol::multiround::MultiRoundProtocol::referee_step);
//! 4. `Continue` streams the round's downlinks back to the client as
//!    MAC'd downlink runs (from = referee, round `r`: one frame unless
//!    the downlinks pass [`RUN_BYTES`](crate::frame::RUN_BYTES));
//!    `Done` ships the encoded output as a
//!    [`Verdict`](FrameKind::Verdict) frame, worker 0 drops the session,
//!    and the router retires it on workers `1..k_eff`.
//!
//! Every thread edge is one staged handoff (`Handoff`): router → lane,
//! lane → collector, proxy → collector and lane → router. The sender
//! stages messages, and each flush sends them as one channel message and
//! wakes the receiver once (a wake only where the receiver waits on a
//! poller: the router and the proxies). The router flushes every lane
//! once per pass, lane 0's first, so an announce stays ahead of every
//! partial it causes; a worker flushes once per batch it handled, and a
//! proxy once per pass. A run therefore costs no channel send of its
//! own, and the router drains the lanes' output a batch at a time.
//!
//! With a [`RemotePlacement`] the ranges live on
//! [`ShardHost`](crate::placement::ShardHost) peers instead, each fed by
//! a coordinator-side proxy in worker `i`'s lane: a shard host runs the
//! same worker's range half behind a socket, and proxy 0 runs the
//! collector half (see [`crate::placement`]). The split is the same, so
//! a small session runs on host 0 alone. Host partials cross a real
//! socket as MAC'd [`Partial`](FrameKind::Partial) frames; each proxy
//! decodes them and hands the decoded value to lane 0. Proxy 0 hears a
//! session's finish too: its journal and host 0's range still hold it.
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
//! retired from the router and every worker that holds it the moment
//! its verdict ships, and its id becomes re-announceable. Epochs fence
//! stale cross-shard partials of re-announced ids, and tampered frames
//! poison their connection at the router's MAC check.
//!
//! Faulty sessions fail fast under one rule for every round, the same
//! on in-process workers and shard hosts because both run one worker
//! around [`RangeWait::ingest`]: an out-of-range sender, a duplicate, a
//! round stamp outside `1..=cap` or an uplink racing ahead of the
//! protocol poisons the round it hit. An arrival behind a range partial that
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
use crate::frame::{decode_run, encode_runs, FrameKind, Run, RunDirection};
use crate::metrics::{trace_endpoint, Stage, WireMetrics};
use crate::placement::{run_proxy, Collector, Proxy, RemotePlacement};
use crate::poll::{Poller, Waker};
use crate::reactor::{send_hello, serve, Conn, Role};
use crate::shard::build_evidence;
use referee_protocol::evidence::SessionParams;
use referee_protocol::multiround::RefereeStep;
use referee_protocol::shard::multiround::{RangeWait, RoundMerge, RoundPartialState};
use referee_protocol::shard::{effective_shards, nonempty_shards, route_arrival, shard_range};
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

/// Router → lane (and lane → lane 0) traffic. Sessions are keyed by
/// `(conn, session)` throughout, so independent clients may number
/// their sessions identically without colliding.
pub(crate) enum MrMsg {
    /// A session opened: every worker opens its range of it at round
    /// `resume` under round cap `cap` (both fixed by the router, which
    /// resolved the catalog service — an index into the shared
    /// [`ServiceCatalog`], read only by the collector; the router fails
    /// unknown names closed before they reach any worker). A shard host
    /// hears the same message from its proxy, at the round the
    /// proxy's journal resumes at.
    Announce {
        conn: u32,
        session: u64,
        n: usize,
        epoch: u32,
        service: u32,
        cap: u32,
        resume: u32,
    },
    /// The entries of an authenticated round-`round` uplink run that
    /// fall in this worker's range, in run order.
    Data { conn: u32, session: u64, round: u32, entries: Vec<(u32, Message)> },
    /// A range partial or a poison notice for the collector, by value,
    /// from range `from`, stamped with the session's announce `epoch`.
    /// A proxy forwards a shard host's partial as it decoded it: an
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

/// Lane → router.
pub(crate) enum MrOutbound {
    /// Stream round `round`'s downlinks, encoded as runs.
    Downlinks { conn: u32, session: SessionId, round: u32, runs: Vec<Run> },
    /// The session's terminal verdict.
    Verdict { conn: u32, session: SessionId, payload: Message },
    /// A serialized evidence bundle for a provable violation observed
    /// on `conn` (any worker; judges nothing — the session stays live).
    Evidence { conn: u32, session: SessionId, from: u32, payload: Message },
}

/// Where a [`Worker`]'s output goes: an in-process worker's [`Lane`],
/// or a shard host's link.
pub(crate) trait Out {
    /// Hand the collector range `from`'s partial or poison notice for
    /// session `(conn, session)` under announce `epoch`.
    fn partial(&mut self, key: (u32, u64), epoch: u32, from: u32, partial: RoundPartialState);

    /// Ship collector output or an evidence bundle toward the client.
    /// A sink without a client link drops it (the default): a shard
    /// host keeps its evidence in its own metrics.
    fn outbound(&mut self, _out: impl FnOnce() -> MrOutbound) {}
}

/// The sending end of one thread edge (see the module docs): messages
/// are staged, and each [`flush`](Handoff::flush) sends everything
/// staged as one batch and wakes the receiver's poller once, if the
/// receiver waits on one (mpsc sends are invisible to `epoll`); a
/// worker blocks in `recv` and needs no wake.
pub(crate) struct Handoff<T> {
    tx: Sender<Vec<T>>,
    waker: Option<Waker>,
    staged: Vec<T>,
}

impl<T> Handoff<T> {
    pub(crate) fn new(tx: Sender<Vec<T>>, waker: Option<Waker>) -> Handoff<T> {
        Handoff { tx, waker, staged: Vec::new() }
    }

    pub(crate) fn stage(&mut self, msg: T) {
        self.staged.push(msg);
    }

    /// Send everything staged since the last flush as one batch, with
    /// one wake.
    pub(crate) fn flush(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let _ = self.tx.send(std::mem::take(&mut self.staged));
        if let Some(waker) = &self.waker {
            waker.wake();
        }
    }

    /// Another sender into the same receiver, with its own staging.
    pub(crate) fn sender(&self) -> Handoff<T> {
        Handoff::new(self.tx.clone(), self.waker.clone())
    }
}

/// A worker's sink (proxy 0's collector's too): partials go to the
/// collector by value (lane 0's own never leave it), client traffic to
/// the router, each staged on its edge's [`Handoff`].
/// [`Lane::flush`] runs once per inbox batch (per pass on a proxy).
pub(crate) struct Lane {
    to_collector: Option<Handoff<MrMsg>>,
    router: Handoff<MrOutbound>,
}

impl Lane {
    /// The router's batch leaves first: evidence a range cut reaches
    /// the client ahead of the verdict its poison notice causes.
    pub(crate) fn flush(&mut self) {
        self.router.flush();
        if let Some(collector) = &mut self.to_collector {
            collector.flush();
        }
    }
}

impl Out for Lane {
    fn partial(
        &mut self,
        (conn, session): (u32, u64),
        epoch: u32,
        from: u32,
        partial: RoundPartialState,
    ) {
        if let Some(collector) = &mut self.to_collector {
            collector.stage(MrMsg::Partial {
                conn,
                session,
                epoch,
                from,
                partial: Ok(partial),
            });
        }
    }

    fn outbound(&mut self, out: impl FnOnce() -> MrOutbound) {
        self.router.stage(out());
    }
}

/// Router-side per-session record.
struct SessionRoute {
    n: usize,
    /// The session's [`effective_shards`]: lanes `0..lanes` hold it.
    lanes: usize,
    finished: bool,
}

/// Per-session state inside one worker — keyed by (conn, session) in
/// the worker's map.
struct MrSession {
    n: usize,
    epoch: u32,
    /// Server-side round cap.
    cap: u32,
    /// The range half: this worker's range wait and when it opened (the
    /// announce, or the previous emit — the uplinks-complete zero
    /// point). `None` on a worker whose range is empty for this
    /// `n`, or that owns no range (proxy 0's collector).
    wait: Option<(RangeWait, Instant)>,
    /// The collector half, on the worker that runs the referee.
    referee: Option<Referee>,
}

/// A session's referee and the collector of its rounds' partials, whose
/// quorum is the shards with non-empty ranges for this `n` (empty-range
/// shards never emit; their empty partials are implied). The stepper is
/// that of the catalog service resolved at announce time (a
/// re-announced id may land on a different service under a fresh
/// epoch).
struct Referee {
    stepper: Box<dyn RefereeStepper>,
    merge: RoundMerge,
    /// When the announce arrived — the zero point for the server-side
    /// verdict stage histogram.
    opened: Instant,
    /// When the current round opened (reset per round) — the zero point
    /// for the per-round partial-merge stage histogram.
    round_opened: Instant,
}

/// The engine's worker state machine, one per in-process worker thread
/// and one per registered shard-host link. Its range half (with a
/// `range`) waits on that range of every session and ships each
/// round's partial or poison notice through its [`Out`]; its collector
/// half (with a `collector` catalog) merges every range's partials and
/// runs the referee. In process, worker 0 has both halves and keeps its
/// own partials; with remote placement lane 0's proxy holds a
/// collector-only worker and each shard host's worker is range only.
pub(crate) struct Worker<'a> {
    duty: Duty<'a>,
    sessions: HashMap<(u32, u64), MrSession>,
}

/// What a [`Worker`] runs, and under which key and trace endpoint.
struct Duty<'a> {
    range: Option<usize>,
    shards: usize,
    collector: Option<&'a ServiceCatalog>,
    base: AuthKey,
    /// Trace endpoint of every event the worker records itself.
    endpoint: u32,
}

impl<'a> Worker<'a> {
    pub(crate) fn new(
        range: Option<usize>,
        shards: usize,
        collector: Option<&'a ServiceCatalog>,
        base: AuthKey,
        endpoint: u32,
    ) -> Worker<'a> {
        let duty = Duty { range, shards, collector, base, endpoint };
        Worker { duty, sessions: HashMap::new() }
    }

    /// Sessions this worker holds state for.
    pub(crate) fn held(&self) -> u64 {
        self.sessions.len() as u64
    }

    /// Apply one message.
    pub(crate) fn handle(&mut self, msg: MrMsg, out: &mut impl Out, metrics: &WireMetrics) {
        let Worker { duty, sessions } = self;
        match msg {
            MrMsg::Announce { conn, session, n, epoch, service, cap, resume } => {
                // The session splits over its effective shard count. A
                // range outside it, or empty, never receives routed data
                // and never emits: a worker without a collector skips
                // the session.
                let shards = effective_shards(n, duty.shards);
                let wait = duty
                    .range
                    .filter(|&index| {
                        index < shards && !shard_range(n, shards, index).is_empty()
                    })
                    .map(|index| {
                        (RangeWait::new(n, shards, index, resume, cap), Instant::now())
                    });
                let referee = duty.collector.map(|catalog| Referee {
                    stepper: catalog
                        .by_index(service as usize)
                        .expect("router validated the service")
                        .open(n),
                    merge: RoundMerge::new(n, nonempty_shards(n, shards), cap as usize),
                    opened: Instant::now(),
                    round_opened: Instant::now(),
                });
                if wait.is_none() && referee.is_none() {
                    return;
                }
                let key = (conn, session);
                let mut ws = MrSession { n, epoch, cap, wait, referee };
                if !duty.settle(key, &mut ws, out, metrics) {
                    // A re-announce of a live key only happens when a
                    // shard host's coordinator re-registered (its journal
                    // replay is about to rebuild the state): start fresh.
                    sessions.insert(key, ws);
                }
            }
            MrMsg::Data { conn, session, round, entries } => {
                let key = (conn, session);
                let Some(ws) = sessions.get_mut(&key) else {
                    metrics.orphan_frames(1); // finished or retired in flight
                    return;
                };
                if ws.wait.is_none() {
                    metrics.decode_rejects(1); // a range this worker does not own
                    return;
                }
                let mut entries = entries.into_iter();
                for (from, payload) in entries.by_ref() {
                    if duty.arrive(key, ws, round, from, payload, out, metrics) {
                        sessions.remove(&key);
                        if entries.len() > 0 {
                            metrics.orphan_frames(1); // the run's judged-after rest
                        }
                        return;
                    }
                }
            }
            MrMsg::Partial { conn, session, epoch, from, partial } => {
                let key = (conn, session);
                // A stale partial from a previous run of this (conn,
                // session) key must not merge into the current one.
                let Some(ws) = sessions.get_mut(&key).filter(|ws| ws.epoch == epoch) else {
                    metrics.orphan_frames(1); // finished or retired in flight
                    return;
                };
                let Some(referee) = ws.referee.as_mut() else {
                    metrics.orphan_frames(1); // partials only merge at the collector
                    return;
                };
                let done = match absorb(&mut referee.merge, partial, metrics) {
                    Ok(()) => {
                        let from = u64::from(from);
                        metrics.trace(session, duty.endpoint, TraceKind::PartialMerge, from);
                        duty.settle(key, ws, out, metrics)
                    }
                    Err(e) => {
                        // A partial that does not decode or merge fails
                        // the session closed.
                        send_verdict(key, referee, Err(e), out, metrics);
                        true
                    }
                };
                if done {
                    sessions.remove(&key);
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

impl Duty<'_> {
    /// Apply one arrival of a run to the session's range wait, exactly as
    /// if it had its own frame: ingest, sign the evidence of a provable
    /// fault (the arrival the fault hands back, as its per-node record
    /// re-signed under the connection key), ship a poison notice, then
    /// settle. Returns whether the session is judged.
    #[allow(clippy::too_many_arguments)]
    fn arrive(
        &self,
        key: (u32, u64),
        ws: &mut MrSession,
        round: u32,
        from: u32,
        payload: Message,
        out: &mut impl Out,
        metrics: &WireMetrics,
    ) -> bool {
        let (wait, _) = ws.wait.as_mut().expect("the caller checked the range");
        let Ok(ingested) = wait.ingest(from, round, payload) else {
            // Router/worker range disagreement — a bug, not wire data;
            // surfaced in metrics.
            metrics.decode_rejects(1);
            return false;
        };
        if let Some(fault) = ingested.fault {
            let (conn, session) = (key.0, SessionId(key.1));
            let params = SessionParams { session: key.1, n: ws.n as u32, round_cap: ws.cap };
            let (base, endpoint) = (&self.base, self.endpoint);
            if let Some(bundle) =
                build_evidence(base, conn, params, (round, from), fault, endpoint, metrics)
            {
                out.outbound(|| MrOutbound::Evidence {
                    conn,
                    session,
                    from: bundle.accused.unwrap_or(0),
                    payload: bundle.encode(),
                });
            }
        }
        if let Some(notice) = ingested.notice {
            // Fail fast instead of wedging a sibling range's wait.
            metrics.trace(key.1, self.endpoint, TraceKind::Poison, u64::from(from));
            self.ship(key, ws, notice, false, out, metrics);
        }
        self.settle(key, ws, out, metrics)
    }

    /// Hand one partial — a ready range partial or a poison notice — to
    /// the collector: absorbed in place when this worker runs it, else
    /// through `out`. The one place a range emits: a ready partial is
    /// recorded here (its `UplinksComplete` stage, restarting the clock
    /// for the next round, its `PartialEmit`, and, when it leaves the
    /// worker, `partial_frames`) under the worker's own endpoint. A
    /// poison notice is no emit; `arrive` traces it as `Poison`.
    fn ship(
        &self,
        key: (u32, u64),
        ws: &mut MrSession,
        partial: RoundPartialState,
        ready: bool,
        out: &mut impl Out,
        metrics: &WireMetrics,
    ) {
        if ready {
            let (_, opened) = ws.wait.as_mut().expect("only a range emits");
            metrics.record_stage(Stage::UplinksComplete, opened.elapsed());
            *opened = Instant::now();
            let round = u64::from(partial.round());
            metrics.trace(key.1, self.endpoint, TraceKind::PartialEmit, round);
        }
        match ws.referee.as_mut() {
            Some(referee) => absorb(&mut referee.merge, Ok(partial), metrics)
                .expect("own partials stay within the cap"),
            None => {
                if ready {
                    metrics.partial_frames(1);
                }
                let from = self.range.expect("only a range emits") as u32;
                out.partial(key, ws.epoch, from, partial);
            }
        }
    }

    /// Ship every partial the session's range has ready, then judge
    /// every round the collector has ready. Returns whether the session
    /// is judged (its verdict sent).
    fn settle(
        &self,
        key: (u32, u64),
        ws: &mut MrSession,
        out: &mut impl Out,
        metrics: &WireMetrics,
    ) -> bool {
        while let Some(partial) = ws.wait.as_mut().and_then(|(wait, _)| wait.take_ready()) {
            self.ship(key, ws, partial, true, out, metrics);
        }
        ws.referee.is_some() && try_advance(key, ws, out, metrics)
    }
}

/// The catalog server loop (spawned by
/// [`FleetServerBuilder::spawn`](crate::FleetServerBuilder::spawn) for
/// every non-echo server): `shards` lanes, of which lane 0 also runs the
/// referee and the per-round merge. In process, lane `i` is a worker
/// owning range `i`; with a `placement`, it is a proxy forwarding range
/// `i` to a [`ShardHost`](crate::placement::ShardHost), which runs the
/// engine's range worker behind a socket. Proxies wait on their own
/// pollers, on the server's backend; workers block in `recv`.
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
    let (out_tx, out_rx) = std::sync::mpsc::channel();
    let to_router = Handoff::new(out_tx, Some(poller.waker()));
    let (inboxes, ends): (Vec<Handoff<MrMsg>>, Vec<_>) = (0..shards)
        .map(|_| {
            let (tx, rx) = std::sync::mpsc::channel();
            let lane_poller = placement.is_some().then(|| Poller::new(poller.backend()));
            let waker = lane_poller.as_ref().map(Poller::waker);
            (Handoff::new(tx, waker), (rx, lane_poller))
        })
        .unzip();
    thread::scope(|scope| {
        for (i, (rx, lane_poller)) in ends.into_iter().enumerate() {
            // Lane 0 runs the collector and must not hold a sender to
            // itself (its inbox would never disconnect).
            let to_collector = (i != 0).then(|| inboxes[0].sender());
            let mut lane = Lane { to_collector, router: to_router.sender() };
            let range = placement.is_none().then_some(i);
            let collector = (i == 0).then_some(catalog);
            let endpoint = trace_endpoint::worker(range.unwrap_or(0) as u32);
            let mut worker = Worker::new(range, shards, collector, key, endpoint);
            match (&placement, lane_poller) {
                (Some(placement), Some(lane_poller)) => {
                    let collector = match i {
                        0 => Collector::Here(worker, lane),
                        _ => Collector::There(inboxes[0].sender()),
                    };
                    let proxy = Proxy { index: i, base: &key, placement, metrics, collector };
                    scope.spawn(move || run_proxy(proxy, rx, lane_poller));
                }
                _ => {
                    scope.spawn(move || {
                        while let Ok(batch) = rx.recv() {
                            for msg in batch {
                                worker.handle(msg, &mut lane, metrics);
                            }
                            lane.flush();
                        }
                        metrics.sessions_held(worker.held());
                    });
                }
            }
        }
        drop(to_router);
        let mut router = Router {
            key,
            catalog,
            proxied: placement.is_some(),
            inboxes,
            out_rx: &out_rx,
            announced: HashMap::new(),
            finished_fifo: VecDeque::new(),
            next_epoch: 1,
        };
        serve(listener, key, &mut router, shutdown, metrics, &poller);
        let unjudged = router.announced.values().filter(|route| !route.finished).count();
        metrics.sessions_held(unjudged as u64);
        // Dropping the senders disconnects every lane's inbox (lane 0's
        // once the other lanes exit); the scope then joins the lanes.
        drop(router);
    });
}

/// The router role of the server loop: authenticates, routes
/// round-stamped uplinks by session + node range, and streams downlink
/// and verdict frames back. Each connection's link is its id. What it
/// routes to a lane is staged on that lane's [`Handoff`] and leaves once
/// per pass, in lane order, lane 0 (the collector's) first, so an
/// announce stays ahead of every partial it causes.
struct Router<'a> {
    key: AuthKey,
    catalog: &'a ServiceCatalog,
    /// Remote placement: every lane, lane 0 included, is a proxy.
    proxied: bool,
    inboxes: Vec<Handoff<MrMsg>>,
    out_rx: &'a Receiver<Vec<MrOutbound>>,
    announced: HashMap<(u32, u64), SessionRoute>,
    /// Finished routes, oldest first (at most [`FINISHED_ROUTE_CAP`]).
    finished_fifo: VecDeque<(u32, u64)>,
    next_epoch: u32,
}

impl Router<'_> {
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
                let index = name.as_deref().map_or(Some(0), |name| catalog.index_of(name));
                let service = match index.and_then(|i| Some((i, catalog.by_index(i)?))) {
                    _ if n > MAX_SESSION_NODES => Err(format!(
                        "network size {n} exceeds the limit of {MAX_SESSION_NODES} nodes"
                    )),
                    Some((index, entry)) => Ok((index as u32, entry.round_cap(n) as u32)),
                    None => Err(format!(
                        "unknown catalog service {:?}",
                        name.as_deref().unwrap_or("")
                    )),
                };
                let (service, cap) = match service {
                    Ok(resolved) => resolved,
                    Err(why) => {
                        metrics.decode_rejects(1);
                        let payload = encode_mr_verdict(&Err(DecodeError::Invalid(why)));
                        queue_verdict(conn, env.session, payload, metrics);
                        let route = SessionRoute { n, lanes: 0, finished: true };
                        self.announced.insert(key, route);
                        self.remember_finished(key);
                        return true;
                    }
                };
                let epoch = self.next_epoch & 0x7fff_ffff;
                self.next_epoch = self.next_epoch.wrapping_add(1);
                metrics.trace(key.1, trace_endpoint::SERVER, TraceKind::Announce, n as u64);
                let lanes = effective_shards(n, self.inboxes.len());
                self.announced.insert(key, SessionRoute { n, lanes, finished: false });
                let (conn, session, resume) = (id, key.1, 1);
                for inbox in &mut self.inboxes[..lanes] {
                    inbox.stage(MrMsg::Announce {
                        conn,
                        session,
                        n,
                        epoch,
                        service,
                        cap,
                        resume,
                    });
                }
                true
            }
            FrameKind::Data => match self.announced.get(&key) {
                Some(route) if route.finished => {
                    metrics.orphan_frames(1);
                    true
                }
                Some(route) => {
                    // A client's run addresses the referee; a malformed
                    // one is a bad payload.
                    let entries = match decode_run(&env, RunDirection::Uplink) {
                        Ok(entries) if env.to == 0 => entries,
                        _ => return false,
                    };
                    let count = entries.len() as u64;
                    metrics.trace(key.1, trace_endpoint::SERVER, TraceKind::Uplink, count);
                    let (conn, session, round) = (id, key.1, env.round);
                    if route.lanes == 1 {
                        self.inboxes[0].stage(MrMsg::Data { conn, session, round, entries });
                        return true;
                    }
                    let mut split = vec![Vec::new(); route.lanes];
                    for entry in entries {
                        split[route_arrival(route.n, route.lanes, entry.0)].push(entry);
                    }
                    for (inbox, entries) in self.inboxes.iter_mut().zip(split) {
                        if !entries.is_empty() {
                            inbox.stage(MrMsg::Data { conn, session, round, entries });
                        }
                    }
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

    /// Drain the lanes' outbound batches onto the client connections.
    fn after_pump(&mut self, conns: &mut [(Conn, u32)], metrics: &WireMetrics) -> bool {
        // Lane traffic queues frames on connections the kernel never
        // flagged, so track which conns the drain touched and flush
        // exactly those afterwards (one batched `write(2)` per conn per
        // burst — a whole round's downlinks coalesce first).
        let mut touched: Vec<u32> = Vec::new();
        let mut progress = false;
        while let Ok(batch) = self.out_rx.try_recv() {
            progress = true;
            for out in batch {
                match out {
                    MrOutbound::Downlinks { conn, session, round, runs } => {
                        if let Some(c) = open_conn(conns, &mut touched, conn, metrics) {
                            metrics.downlink_frames(runs.len() as u64);
                            for run in runs {
                                let run = run.envelope(session, round, RunDirection::Downlink);
                                c.queue_frame(FrameKind::Data, &run);
                            }
                        }
                    }
                    MrOutbound::Verdict { conn, session, payload } => {
                        if let Some(c) = open_conn(conns, &mut touched, conn, metrics) {
                            queue_verdict(c, session, payload, metrics);
                        }
                        self.finished(conn, session.0);
                    }
                    MrOutbound::Evidence { conn, session, from, payload } => {
                        if let Some(c) = open_conn(conns, &mut touched, conn, metrics) {
                            let env = Envelope { session, round: 0, from, to: 0, payload };
                            c.queue_frame(FrameKind::Evidence, &env);
                        }
                    }
                }
            }
        }
        for (conn, id) in conns.iter_mut() {
            if touched.contains(id) {
                conn.flush();
            }
        }
        // One batch (and, on a proxy lane, one wake) per lane this pass
        // staged for, lane 0 first.
        self.inboxes.iter_mut().for_each(Handoff::flush);
        progress
    }

    /// Runs after this pass's flush, so the retire leaves at once.
    fn closed(&mut self, id: u32) {
        self.announced.retain(|(owner, _), _| *owner != id);
        for inbox in &mut self.inboxes {
            inbox.stage(MrMsg::Retire { conn: id });
            inbox.flush();
        }
    }
}

impl Router<'_> {
    /// Session `(conn, session)` was judged: mark its route finished
    /// and tell the lanes that still hold it.
    fn finished(&mut self, conn: u32, session: u64) {
        let key = (conn, session);
        let Some(route) = self.announced.get_mut(&key) else {
            return; // its connection closed: every lane retired it
        };
        route.finished = true;
        // Only the lanes that hold the session hear of it. In process,
        // lane 0's collector dropped it when it judged it; a proxy lane 0
        // still holds its journal, and host 0 its range.
        let first = usize::from(!self.proxied);
        for inbox in &mut self.inboxes[first.min(route.lanes)..route.lanes] {
            inbox.stage(MrMsg::Finish { conn, session });
        }
        self.remember_finished(key);
    }
}

/// The open connection `cid`, marked `touched` for the post-drain
/// flush; `None` (one orphan counted) when it is gone.
fn open_conn<'c>(
    conns: &'c mut [(Conn, u32)],
    touched: &mut Vec<u32>,
    cid: u32,
    metrics: &WireMetrics,
) -> Option<&'c mut Conn> {
    let Some((conn, _)) = conns.iter_mut().find(|(c, id)| *id == cid && c.is_open()) else {
        metrics.orphan_frames(1);
        return None;
    };
    if !touched.contains(&cid) {
        touched.push(cid);
    }
    Some(conn)
}

/// Queue `session`'s verdict on `conn`, counted and traced: the one
/// place the router queues a verdict, the collector's or the typed
/// refusal of an announce it fails closed.
fn queue_verdict(conn: &mut Conn, session: SessionId, payload: Message, metrics: &WireMetrics) {
    metrics.verdict_frames(1);
    let bits = payload.len_bits() as u64;
    conn.queue_frame(
        FrameKind::Verdict,
        &Envelope { session, round: 0, from: 0, to: 0, payload },
    );
    metrics.trace(session.0, trace_endpoint::SERVER, TraceKind::Verdict, bits);
}

/// Absorb one partial into the session's collector. A partial for a
/// round the referee already judged — only ever a late poison notice —
/// is dropped as an orphan.
fn absorb(
    merge: &mut RoundMerge,
    partial: Result<RoundPartialState, DecodeError>,
    metrics: &WireMetrics,
) -> Result<(), DecodeError> {
    if !merge.absorb(partial?)? {
        metrics.orphan_frames(1);
    }
    Ok(())
}

/// Judge every round the collector has ready, stepping the referee in
/// round order (see [`RoundMerge::next`]). Returns whether the session
/// is done (verdict sent).
fn try_advance(
    key: (u32, u64),
    ws: &mut MrSession,
    out: &mut impl Out,
    metrics: &WireMetrics,
) -> bool {
    let (n, cap) = (ws.n, ws.cap);
    let referee = ws.referee.as_mut().expect("the collector runs the referee");
    let verdict = loop {
        if referee.merge.round() > cap {
            break Err(DecodeError::Invalid(format!("no verdict within the {cap}-round cap")));
        }
        let Some(acc) = referee.merge.next() else { return false };
        let round = referee.merge.round();
        metrics.record_stage(Stage::PartialMerge, referee.round_opened.elapsed());
        let uplinks = match acc.finish() {
            Ok(uplinks) => uplinks,
            Err(e) => break Err(e),
        };
        let stepped = Instant::now();
        let step = referee.stepper.step(n, round as usize, &uplinks);
        metrics.record_stage(Stage::RefereeStep, stepped.elapsed());
        let endpoint = trace_endpoint::worker(0);
        metrics.trace(key.1, endpoint, TraceKind::RefereeStep, u64::from(round));
        match step {
            RefereeStep::Done(out) => break Ok(out),
            RefereeStep::Continue(downlinks) if downlinks.len() != n => {
                break Err(DecodeError::Inconsistent(format!(
                    "referee produced {} downlinks for {n} nodes",
                    downlinks.len(),
                )));
            }
            RefereeStep::Continue(msgs) => {
                let (conn, session) = (key.0, SessionId(key.1));
                out.outbound(|| {
                    // Node i + 1's downlink is msgs[i].
                    let runs =
                        encode_runs(msgs.iter().enumerate().map(|(i, m)| (i as u32 + 1, m)));
                    MrOutbound::Downlinks { conn, session, round, runs }
                });
                referee.merge.advance();
                referee.round_opened = Instant::now();
            }
        }
    };
    send_verdict(key, referee, verdict, out, metrics);
    true
}

fn send_verdict(
    (conn, session): (u32, u64),
    referee: &Referee,
    result: Result<Message, DecodeError>,
    out: &mut impl Out,
    metrics: &WireMetrics,
) {
    metrics.record_stage(Stage::Verdict, referee.opened.elapsed());
    let payload = encode_mr_verdict(&result);
    out.outbound(|| MrOutbound::Verdict { conn, session: SessionId(session), payload });
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
