//! Causal event tracing: the per-session "why" companion to
//! [`hist`](crate::hist)'s fleet-wide "how much".
//!
//! [`hist`](crate::hist) answers *that* a tail regressed; this module
//! records *what happened to one session* — as compact binary
//! [`TraceEvent`]s (session id, endpoint id, monotone per-endpoint
//! sequence number, clock timestamp, event kind + small payload) written
//! into a lock-free fixed-capacity ring buffer, the [`FlightRecorder`].
//! The recorder is a black box: it is always cheap enough to leave on,
//! it drops the *oldest* events under overflow (surfacing the drop count
//! so dashboards notice), and its contents are only materialized when
//! something goes wrong.
//!
//! Snapshots follow the same mergeable-partial-state discipline as
//! [`HistSnapshot`](crate::hist::HistSnapshot): a frozen
//! [`TraceSnapshot`] merges commutatively and associatively (canonical
//! event order, exact duplicates deduplicated) and has a canonical
//! [`encode`](TraceSnapshot::encode)/[`decode`](TraceSnapshot::decode)
//! wire form, so shard hosts ship their trace segments back to the
//! coordinator exactly like partial states, and the coordinator
//! stitches one causally-ordered timeline per session.
//!
//! For post-mortems the stitched snapshot renders as Chrome
//! `trace_event` JSON ([`TraceSnapshot::to_chrome_json`]) — load the
//! dump into `chrome://tracing` / Perfetto with one endpoint per `pid`
//! row and one session per `tid` track. [`dump_if_armed`] gates dumps
//! behind the `REFEREE_TRACE_DUMP` environment variable so production
//! runs pay nothing unless a human armed the recorder.

use crate::{BitReader, BitWriter, DecodeError, Message};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Default [`FlightRecorder`] ring capacity (events). At 48 bytes of
/// atomics per slot this is ~400 KiB per endpoint — sized so a
/// several-second incident window survives at typical wire rates
/// (~10k sessions/s × a handful of events each) before drop-oldest
/// kicks in.
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// Environment variable arming post-mortem dumps (see [`dump_if_armed`]).
pub const TRACE_DUMP_ENV: &str = "REFEREE_TRACE_DUMP";

/// Hard ceiling on decoded snapshot size — rejects absurd length
/// prefixes before allocating (the same defensive posture as the frame
/// layer's `MAX_BODY_BYTES`).
pub const MAX_TRACE_EVENTS: usize = 1 << 22;

/// What happened, compressed to one byte on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// A connection was dialed (payload: generation or conn id).
    Dial = 0,
    /// A proxy re-dialed its shard host after loss (payload: generation).
    Redial = 1,
    /// A session announce was sent or accepted (payload: `n`).
    Announce = 2,
    /// Uplinks crossed the endpoint: wire servers and shard hosts record
    /// one event per uplink run (payload: the run's entry count); a wire
    /// client records one event per round burst (payload: the round).
    /// The placement simulator's arrivals are runs of one (payload 1).
    Uplink = 3,
    /// A shard emitted its partial state (payload: the partial's
    /// protocol round; a one-round session's partials are round 1's).
    PartialEmit = 4,
    /// A partial state merged into an accumulator (payload: shard index).
    PartialMerge = 5,
    /// One referee invocation — the global phase or one multi-round
    /// step (payload: protocol round).
    RefereeStep = 6,
    /// A frame failed MAC verification and its connection closed
    /// (payload: always 0).
    MacReject = 7,
    /// A session was poisoned / a poison notice was synthesized
    /// (payload: offending sender when known).
    Poison = 8,
    /// A journaled uplink run was replayed to a restarted shard host
    /// (payload: the run's entry count; the placement simulator replays
    /// runs of one, payload 1).
    Replay = 9,
    /// A verdict was issued or observed (payload: the bit length of
    /// the verdict payload on the wire).
    Verdict = 10,
    /// A host/process was killed by a chaos schedule (payload: host id).
    Kill = 11,
    /// A scheduler task began (payload: task index).
    TaskStart = 12,
    /// A scheduler task finished (payload: task index).
    TaskEnd = 13,
    /// An evidence bundle was emitted for a provable violation
    /// (payload: accused principal when known).
    Evidence = 14,
}

impl TraceKind {
    /// Every kind, in wire-code order.
    pub const ALL: [TraceKind; 15] = [
        TraceKind::Dial,
        TraceKind::Redial,
        TraceKind::Announce,
        TraceKind::Uplink,
        TraceKind::PartialEmit,
        TraceKind::PartialMerge,
        TraceKind::RefereeStep,
        TraceKind::MacReject,
        TraceKind::Poison,
        TraceKind::Replay,
        TraceKind::Verdict,
        TraceKind::Kill,
        TraceKind::TaskStart,
        TraceKind::TaskEnd,
        TraceKind::Evidence,
    ];

    /// Stable snake_case name (used in Chrome trace output and logs).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Dial => "dial",
            TraceKind::Redial => "redial",
            TraceKind::Announce => "announce",
            TraceKind::Uplink => "uplink",
            TraceKind::PartialEmit => "partial_emit",
            TraceKind::PartialMerge => "partial_merge",
            TraceKind::RefereeStep => "referee_step",
            TraceKind::MacReject => "mac_reject",
            TraceKind::Poison => "poison",
            TraceKind::Replay => "replay",
            TraceKind::Verdict => "verdict",
            TraceKind::Kill => "kill",
            TraceKind::TaskStart => "task_start",
            TraceKind::TaskEnd => "task_end",
            TraceKind::Evidence => "evidence",
        }
    }

    /// Inverse of `kind as u8`; `None` for unknown codes (strict
    /// decoding rejects them).
    pub fn from_code(code: u8) -> Option<TraceKind> {
        TraceKind::ALL.get(code as usize).copied()
    }
}

/// One recorded event. `seq` is assigned by the recording
/// [`FlightRecorder`] from a single monotone counter, so within any
/// `(session, endpoint)` pair sequence numbers are strictly increasing
/// — the property stitching relies on to order an endpoint's view of a
/// session even when timestamps tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Session the event belongs to (0 for endpoint-scoped events like
    /// dials and kills).
    pub session: u64,
    /// The recording endpoint (coordinator, client, proxy, shard host —
    /// the deployment assigns the id space).
    pub endpoint: u32,
    /// Monotone per-recorder sequence number.
    pub seq: u64,
    /// Clock timestamp, microseconds. Wire deployments stamp wall-clock
    /// time so same-machine processes stitch onto one axis; simnet
    /// stamps a [`ManualClock`](../../referee_simnet/clock) for
    /// bit-for-bit reproducible traces.
    pub ts_us: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Small kind-specific payload (see [`TraceKind`] docs).
    pub payload: u64,
}

impl TraceEvent {
    /// The canonical total order: by session, then endpoint, then the
    /// endpoint's own sequence — so a stitched snapshot groups each
    /// session's per-endpoint histories, each internally in causal
    /// (recording) order.
    fn key(&self) -> (u64, u32, u64, u64, u8, u64) {
        (self.session, self.endpoint, self.seq, self.ts_us, self.kind as u8, self.payload)
    }
}

// One ring slot: a seqlock-style version word plus the event fields.
// `version` is `2·cursor+1` while a writer owns the slot and `2·cursor+2`
// once it is stable; concurrent writers claim distinct cursors, so a
// reader observing the *same even* version before and after its field
// loads saw a torn-free event.
#[derive(Default)]
struct Slot {
    version: AtomicU64,
    session: AtomicU64,
    endpoint_kind: AtomicU64,
    seq: AtomicU64,
    ts_us: AtomicU64,
    payload: AtomicU64,
}

/// A lock-free, fixed-capacity, drop-oldest ring of [`TraceEvent`]s.
///
/// Writers claim slots with one `fetch_add` and never block; once the
/// ring wraps, each write overwrites the oldest surviving event and
/// bumps [`dropped`](FlightRecorder::dropped). A zero-capacity recorder
/// ([`FlightRecorder::disabled`]) makes every record a no-op, for
/// overhead-sensitive runs.
pub struct FlightRecorder {
    slots: Vec<Slot>,
    cursor: AtomicU64,
    next_seq: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.cursor.load(Ordering::Relaxed))
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (0 disables it),
    /// assigning sequence numbers from 0 — deterministic, for sim use.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder::with_capacity_and_epoch(capacity, 0)
    }

    /// A recorder whose sequence numbers start at `epoch` instead of 0.
    ///
    /// Sequence numbers are per-*recorder*, but a stitched timeline
    /// groups events per `(session, endpoint)` lane — and a restarted
    /// process observing the same endpoint (a killed-and-respawned
    /// shard host) starts a *fresh* recorder. Seeding the epoch with
    /// the recorder's creation wall-clock (as `wirenet` does) keeps
    /// each incarnation's seq range disjoint and increasing, so lane
    /// order stays strictly monotone across restarts. Deterministic
    /// users (simnet) keep epoch 0.
    pub fn with_capacity_and_epoch(capacity: usize, epoch: u64) -> FlightRecorder {
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            cursor: AtomicU64::new(0),
            next_seq: AtomicU64::new(epoch),
            dropped: AtomicU64::new(0),
        }
    }

    /// A recorder with the default capacity.
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// A no-op recorder: records nothing, drops nothing.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder::with_capacity(0)
    }

    /// Whether this recorder stores anything at all.
    pub fn is_enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events overwritten by drop-oldest overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The next sequence number this recorder will assign — pass an
    /// earlier reading to [`snapshot_since`](FlightRecorder::snapshot_since)
    /// to ship only the segment recorded in between.
    pub fn last_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Record one event. Lock-free; never blocks, never fails — under
    /// overflow the oldest surviving event is overwritten instead.
    pub fn record(
        &self,
        ts_us: u64,
        session: u64,
        endpoint: u32,
        kind: TraceKind,
        payload: u64,
    ) {
        let cap = self.slots.len() as u64;
        if cap == 0 {
            return;
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let cursor = self.cursor.fetch_add(1, Ordering::Relaxed);
        if cursor >= cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let slot = &self.slots[(cursor % cap) as usize];
        slot.version.store(2 * cursor + 1, Ordering::SeqCst);
        slot.session.store(session, Ordering::SeqCst);
        slot.endpoint_kind.store((u64::from(endpoint) << 8) | kind as u64, Ordering::SeqCst);
        slot.seq.store(seq, Ordering::SeqCst);
        slot.ts_us.store(ts_us, Ordering::SeqCst);
        slot.payload.store(payload, Ordering::SeqCst);
        slot.version.store(2 * cursor + 2, Ordering::SeqCst);
    }

    /// Freeze the surviving ring contents into a canonical snapshot.
    /// Slots torn by a concurrent writer are skipped (they will appear
    /// in a later snapshot); in quiescent or single-threaded use the
    /// snapshot is exact.
    pub fn snapshot(&self) -> TraceSnapshot {
        self.snapshot_since(0)
    }

    /// Like [`snapshot`](FlightRecorder::snapshot), restricted to
    /// events with `seq ≥ floor` — the incremental segment a shard host
    /// ships on `Finish`/`Retire` without resending history.
    pub fn snapshot_since(&self, floor: u64) -> TraceSnapshot {
        let mut events = Vec::new();
        for slot in &self.slots {
            let v1 = slot.version.load(Ordering::SeqCst);
            if v1 == 0 || v1 % 2 == 1 {
                continue; // never written, or mid-write
            }
            let session = slot.session.load(Ordering::SeqCst);
            let endpoint_kind = slot.endpoint_kind.load(Ordering::SeqCst);
            let seq = slot.seq.load(Ordering::SeqCst);
            let ts_us = slot.ts_us.load(Ordering::SeqCst);
            let payload = slot.payload.load(Ordering::SeqCst);
            if slot.version.load(Ordering::SeqCst) != v1 {
                continue; // torn by a wrapping writer
            }
            let Some(kind) = TraceKind::from_code((endpoint_kind & 0xff) as u8) else {
                continue;
            };
            if seq < floor {
                continue;
            }
            events.push(TraceEvent {
                session,
                endpoint: (endpoint_kind >> 8) as u32,
                seq,
                ts_us,
                kind,
                payload,
            });
        }
        TraceSnapshot::from_events(events)
    }
}

/// A frozen, mergeable set of trace events in canonical order — the
/// trace analogue of [`HistSnapshot`](crate::hist::HistSnapshot).
///
/// Merging is commutative, associative and idempotent (set union under
/// the canonical order), so segments from any number of endpoints,
/// shipped in any order, stitch into the same timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    events: Vec<TraceEvent>,
}

impl TraceSnapshot {
    /// An empty snapshot.
    pub fn new() -> TraceSnapshot {
        TraceSnapshot::default()
    }

    /// Canonicalize a raw event list: sort by
    /// `(session, endpoint, seq, …)` and drop exact duplicates.
    pub fn from_events(mut events: Vec<TraceEvent>) -> TraceSnapshot {
        events.sort_unstable_by_key(TraceEvent::key);
        events.dedup();
        TraceSnapshot { events }
    }

    /// The events, in canonical order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the snapshot holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Every event belonging to `session`, in canonical order — the
    /// per-session timeline a post-mortem reads.
    pub fn session_events(&self, session: u64) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.session == session)
    }

    /// Set-union `other` into `self` (commutative, associative,
    /// idempotent — pinned by property tests).
    pub fn merge(&mut self, other: &TraceSnapshot) {
        if other.events.is_empty() {
            return;
        }
        self.events.extend_from_slice(&other.events);
        self.events.sort_unstable_by_key(TraceEvent::key);
        self.events.dedup();
    }

    /// Canonical wire form. Layout: `gamma(count+1)`, then per event
    /// (in canonical order) each field as a minimal-width value —
    /// `gamma(width)` + `width` bits — except the kind, fixed at 5
    /// bits. Strictly canonical: any non-minimal width, out-of-order
    /// event, unknown kind, or trailing bit fails decoding.
    pub fn encode(&self) -> Message {
        let mut w = BitWriter::new();
        w.write_gamma(self.events.len() as u64 + 1);
        for e in &self.events {
            write_compact(&mut w, e.session);
            write_compact(&mut w, u64::from(e.endpoint));
            write_compact(&mut w, e.seq);
            write_compact(&mut w, e.ts_us);
            w.write_bits(e.kind as u64, 5);
            write_compact(&mut w, e.payload);
        }
        Message::from_writer(w)
    }

    /// Strict inverse of [`encode`](TraceSnapshot::encode).
    pub fn decode(msg: &Message) -> Result<TraceSnapshot, DecodeError> {
        let mut r = msg.reader();
        let count = r.read_gamma()? - 1;
        if count > MAX_TRACE_EVENTS as u64 {
            return Err(DecodeError::OutOfRange(format!(
                "{count} trace events, max {MAX_TRACE_EVENTS}"
            )));
        }
        let mut events = Vec::with_capacity(count as usize);
        let mut prev: Option<(u64, u32, u64, u64, u8, u64)> = None;
        for _ in 0..count {
            let session = read_compact(&mut r)?;
            let endpoint = read_compact(&mut r)?;
            if endpoint > u64::from(u32::MAX) {
                return Err(DecodeError::OutOfRange(format!("endpoint {endpoint} > u32")));
            }
            let seq = read_compact(&mut r)?;
            let ts_us = read_compact(&mut r)?;
            let code = r.read_bits(5)? as u8;
            let kind = TraceKind::from_code(code)
                .ok_or_else(|| DecodeError::OutOfRange(format!("trace kind {code}")))?;
            let payload = read_compact(&mut r)?;
            let e =
                TraceEvent { session, endpoint: endpoint as u32, seq, ts_us, kind, payload };
            if let Some(p) = prev {
                if e.key() <= p {
                    return Err(DecodeError::Invalid(
                        "trace events out of canonical order".into(),
                    ));
                }
            }
            prev = Some(e.key());
            events.push(e);
        }
        if !r.is_exhausted() {
            return Err(DecodeError::Invalid("trailing bits after trace snapshot".into()));
        }
        Ok(TraceSnapshot { events })
    }

    /// Render as Chrome `trace_event` JSON (the object form with a
    /// `traceEvents` array of instant events): one `pid` row per
    /// endpoint, one `tid` track per session — load into
    /// `chrome://tracing` or Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"referee\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"seq\":{},\"payload\":{}}}}}",
                e.kind.name(),
                e.ts_us,
                e.endpoint,
                e.session,
                e.seq,
                e.payload
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Minimal-width value coding: `gamma(width)` then `width` bits, with
/// the top bit of multi-bit values required to be set (so every `u64`
/// has exactly one encoding).
fn write_compact(w: &mut BitWriter, v: u64) {
    let width = (64 - v.leading_zeros()).max(1);
    w.write_gamma(u64::from(width));
    w.write_bits(v, width);
}

/// Strict inverse of [`write_compact`]: rejects widths outside
/// `1..=64` and non-minimal encodings.
fn read_compact(r: &mut BitReader) -> Result<u64, DecodeError> {
    let width = r.read_gamma()?;
    if width == 0 || width > 64 {
        return Err(DecodeError::OutOfRange(format!("field width {width}")));
    }
    let v = r.read_bits(width as u32)?;
    if width > 1 && (v >> (width - 1)) == 0 {
        return Err(DecodeError::Invalid("non-minimal field width".into()));
    }
    Ok(v)
}

/// Wall-clock microseconds since the UNIX epoch — the shared timestamp
/// base for wire deployments, so traces from cooperating processes on
/// one machine stitch onto a single time axis.
pub fn wall_clock_us() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}

/// Whether post-mortem trace dumps are armed (`REFEREE_TRACE_DUMP` set
/// to anything non-empty other than `0`). Off by default: production
/// runs record into the ring but never touch the filesystem.
pub fn dump_armed() -> bool {
    std::env::var(TRACE_DUMP_ENV).map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

/// If dumps are armed and `snap` is non-empty, write it as Chrome
/// trace JSON to `TRACE_{label}.json` in the current directory and
/// return the path. Failures to write are reported, not fatal — a
/// post-mortem must never take down the run it is diagnosing.
pub fn dump_if_armed(label: &str, snap: &TraceSnapshot) -> Option<std::path::PathBuf> {
    if !dump_armed() || snap.is_empty() {
        return None;
    }
    let path = std::path::PathBuf::from(format!("TRACE_{label}.json"));
    match std::fs::write(&path, snap.to_chrome_json()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("trace dump to {} failed: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(session: u64, endpoint: u32, seq: u64, ts: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent { session, endpoint, seq, ts_us: ts, kind, payload: seq * 7 }
    }

    #[test]
    fn recorder_records_in_order() {
        let r = FlightRecorder::with_capacity(16);
        r.record(10, 1, 0, TraceKind::Announce, 5);
        r.record(20, 1, 0, TraceKind::Uplink, 3);
        r.record(30, 1, 0, TraceKind::Verdict, 1);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        let kinds: Vec<TraceKind> = snap.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [TraceKind::Announce, TraceKind::Uplink, TraceKind::Verdict]);
        let seqs: Vec<u64> = snap.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn drop_oldest_under_overflow() {
        let r = FlightRecorder::with_capacity(4);
        for i in 0..10u64 {
            r.record(i, 0, 0, TraceKind::Uplink, i);
        }
        assert_eq!(r.dropped(), 6, "10 events into 4 slots drop the oldest 6");
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        // The *newest* four survive.
        let seqs: Vec<u64> = snap.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9]);
    }

    #[test]
    fn disabled_recorder_is_a_noop() {
        let r = FlightRecorder::disabled();
        assert!(!r.is_enabled());
        r.record(1, 1, 1, TraceKind::Dial, 0);
        assert!(r.snapshot().is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn snapshot_since_ships_increments() {
        let r = FlightRecorder::with_capacity(16);
        r.record(1, 9, 2, TraceKind::Announce, 0);
        let mark = r.last_seq();
        r.record(2, 9, 2, TraceKind::Verdict, 0);
        let inc = r.snapshot_since(mark);
        assert_eq!(inc.len(), 1);
        assert_eq!(inc.events()[0].kind, TraceKind::Verdict);
    }

    #[test]
    fn merge_is_union_and_idempotent() {
        let a = TraceSnapshot::from_events(vec![
            ev(2, 0, 1, 100, TraceKind::Announce),
            ev(1, 0, 0, 90, TraceKind::Dial),
        ]);
        let b = TraceSnapshot::from_events(vec![
            ev(1, 1, 0, 95, TraceKind::Uplink),
            ev(1, 0, 0, 90, TraceKind::Dial), // duplicate of a's event
        ]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.len(), 3, "exact duplicates deduplicate");
        let mut again = ab.clone();
        again.merge(&b);
        assert_eq!(again, ab, "merge is idempotent");
    }

    #[test]
    fn encode_decode_round_trip() {
        let snap = TraceSnapshot::from_events(vec![
            ev(7, 3, 0, 1000, TraceKind::Announce),
            ev(7, 3, 1, 2000, TraceKind::Verdict),
            ev(8, 0, 2, u64::MAX, TraceKind::Kill),
            TraceEvent {
                session: u64::MAX,
                endpoint: u32::MAX,
                seq: u64::MAX,
                ts_us: 0,
                kind: TraceKind::TaskEnd,
                payload: u64::MAX,
            },
        ]);
        let decoded = TraceSnapshot::decode(&snap.encode()).expect("own encoding decodes");
        assert_eq!(decoded, snap);
        let empty = TraceSnapshot::new();
        assert_eq!(TraceSnapshot::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn decode_rejects_out_of_order_and_trailing_bits() {
        // Build a non-canonical stream by hand: two events in reversed
        // order.
        let hi = ev(5, 0, 1, 10, TraceKind::Uplink);
        let lo = ev(5, 0, 0, 5, TraceKind::Announce);
        let mut w = BitWriter::new();
        w.write_gamma(3);
        for e in [hi, lo] {
            write_compact(&mut w, e.session);
            write_compact(&mut w, u64::from(e.endpoint));
            write_compact(&mut w, e.seq);
            write_compact(&mut w, e.ts_us);
            w.write_bits(e.kind as u64, 5);
            write_compact(&mut w, e.payload);
        }
        let msg = Message::from_writer(w);
        assert!(matches!(TraceSnapshot::decode(&msg), Err(DecodeError::Invalid(_))));

        // Trailing bit after a valid snapshot.
        let snap = TraceSnapshot::from_events(vec![lo]);
        let (bytes, len_bits) = {
            let mut w = BitWriter::new();
            w.write_gamma(2);
            write_compact(&mut w, lo.session);
            write_compact(&mut w, u64::from(lo.endpoint));
            write_compact(&mut w, lo.seq);
            write_compact(&mut w, lo.ts_us);
            w.write_bits(lo.kind as u64, 5);
            write_compact(&mut w, lo.payload);
            w.push_bit(false);
            w.finish()
        };
        let msg = Message::from_bits(bytes, len_bits).expect("well-formed byte carrier");
        assert!(matches!(TraceSnapshot::decode(&msg), Err(DecodeError::Invalid(_))));
        // Sanity: the canonical form still decodes.
        assert_eq!(TraceSnapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn decode_rejects_unknown_kind_and_nonminimal_width() {
        // Unknown kind code 31.
        let mut w = BitWriter::new();
        w.write_gamma(2);
        write_compact(&mut w, 1);
        write_compact(&mut w, 0);
        write_compact(&mut w, 0);
        write_compact(&mut w, 0);
        w.write_bits(31, 5);
        write_compact(&mut w, 0);
        let msg = Message::from_writer(w);
        assert!(matches!(TraceSnapshot::decode(&msg), Err(DecodeError::OutOfRange(_))));

        // Non-minimal width: value 1 encoded in 2 bits.
        let mut w = BitWriter::new();
        w.write_gamma(2);
        w.write_gamma(2); // width 2 …
        w.write_bits(1, 2); // … for value 1 (top bit clear)
        let msg = Message::from_writer(w);
        assert!(matches!(TraceSnapshot::decode(&msg), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn chrome_json_shape() {
        let snap = TraceSnapshot::from_events(vec![ev(4, 2, 0, 1500, TraceKind::Redial)]);
        let json = snap.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"redial\""));
        assert!(json.contains("\"ts\":1500"));
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("\"tid\":4"));
        assert!(json.ends_with("]}\n") || json.ends_with("\"ms\"}\n"));
    }

    #[test]
    fn concurrent_recording_loses_nothing_within_capacity() {
        let r = FlightRecorder::with_capacity(4096);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        r.record(i, u64::from(t), t, TraceKind::Uplink, i);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4000);
        assert_eq!(r.dropped(), 0);
        // Per-endpoint seqs strictly increase.
        for t in 0..4u32 {
            let seqs: Vec<u64> =
                snap.events().iter().filter(|e| e.endpoint == t).map(|e| e.seq).collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn dump_respects_the_env_contract() {
        // Unarmed by default in the test environment.
        assert!(!dump_armed() || std::env::var(TRACE_DUMP_ENV).is_ok());
        let snap = TraceSnapshot::new();
        // Empty snapshots never dump, armed or not.
        assert_eq!(dump_if_armed("unit_test_empty", &snap), None);
    }
}
