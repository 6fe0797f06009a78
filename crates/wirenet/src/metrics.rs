//! Wire-level observability: atomic counters shared between the reactor,
//! the transports, and whoever reports — plus per-stage latency
//! histograms and a causal-event flight recorder over the session
//! lifecycle.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use referee_protocol::evidence::EvidenceBundle;
use referee_protocol::hist::{HistSnapshot, LatencyHistogram};
use referee_protocol::trace::{self, FlightRecorder, TraceKind, TraceSnapshot};

/// Environment variable sizing the per-endpoint [`FlightRecorder`] ring
/// (events). `0` disables tracing entirely; unset or unparsable keeps
/// [`DEFAULT_TRACE_CAPACITY`](referee_protocol::trace::DEFAULT_TRACE_CAPACITY).
pub const TRACE_CAPACITY_ENV: &str = "REFEREE_TRACE_CAPACITY";

/// Number of [`EvidenceBundle`]s retained per endpoint (the
/// `evidence_bundles` counter keeps counting past it). Bundles are a
/// few dozen bytes each, and a healthy fleet emits none, so the cap
/// only guards against a hostile peer grinding out violations.
pub const DEFAULT_EVIDENCE_CAP: usize = 1024;

/// Resolve a recorder capacity from the env value (passed as a
/// parameter so unit tests never mutate the process environment).
pub(crate) fn resolve_trace_capacity(env: Option<&str>) -> usize {
    env.and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(referee_protocol::trace::DEFAULT_TRACE_CAPACITY)
}

/// Endpoint-id conventions for [`TraceEvent`](referee_protocol::TraceEvent)s
/// recorded by the wire layers, so stitched timelines attribute every
/// event to the process/role that recorded it.
pub mod trace_endpoint {
    /// The coordinator / fleet-server router.
    pub const SERVER: u32 = 0;
    /// A client connection pool.
    pub const CLIENT: u32 = 1;
    /// The coordinator-side placement proxy for shard `i`.
    pub fn proxy(i: u32) -> u32 {
        0x100 + i
    }
    /// The remote shard host serving shard `i`.
    pub fn shard_host(i: u32) -> u32 {
        0x200 + i
    }
    /// Server-side shard worker `i` (in-process sharded services).
    pub fn worker(i: u32) -> u32 {
        0x300 + i
    }
    /// An external chaos/fault injector (kill schedules in soak
    /// harnesses record what they did under this endpoint, so the
    /// post-mortem shows the injected faults on the same timeline).
    pub const CHAOS: u32 = 0x400;
}

/// Named stages of the session lifecycle, each timed into its own
/// latency histogram on [`WireMetrics`]. Client-side endpoints populate
/// the connect/announce/uplink/verdict stages; server-side endpoints
/// populate the merge and referee stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// TCP connect through the Hello exchange (client pool connections
    /// and placement-proxy dials to a shard host).
    ConnectHello,
    /// Session open → announce frame queued and flushed.
    Announce,
    /// A round's start → its last uplink queued on a client, or a
    /// range's uplinks complete on the range worker that emits its
    /// partial, in process or on a shard host (once per range and
    /// round).
    UplinksComplete,
    /// Server side: a session (or round) opening → its partial states
    /// fully merged across shards.
    PartialMerge,
    /// One referee invocation: the global phase, or one multi-round
    /// step.
    RefereeStep,
    /// Announce → verdict observed (received on a client, sent on a
    /// server).
    Verdict,
}

impl Stage {
    /// Every stage, in lifecycle order — the index into
    /// [`WireSnapshot::stages`].
    pub const ALL: [Stage; 6] = [
        Stage::ConnectHello,
        Stage::Announce,
        Stage::UplinksComplete,
        Stage::PartialMerge,
        Stage::RefereeStep,
        Stage::Verdict,
    ];

    /// Stable snake_case name (used in logs and bench output).
    pub fn name(self) -> &'static str {
        match self {
            Stage::ConnectHello => "connect_hello",
            Stage::Announce => "announce",
            Stage::UplinksComplete => "uplinks_complete",
            Stage::PartialMerge => "partial_merge",
            Stage::RefereeStep => "referee_step",
            Stage::Verdict => "verdict",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The counters a [`Conn`](crate::reactor) bumps itself: the frames and
/// bytes it wrote and the `write(2)`/`read(2)` syscalls it issued.
#[derive(Debug, Default)]
struct ConnCounters {
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    write_syscalls: AtomicU64,
    read_syscalls: AtomicU64,
}

/// A cloneable handle on an endpoint's [`ConnCounters`], shared with
/// the owning [`WireMetrics`]: every connection carries one, so each
/// frame is counted sent where it is written and each syscall where it
/// is issued, and `frames_sent / write_syscalls` is
/// [`WireSnapshot::frames_per_write`].
#[derive(Debug, Clone)]
pub(crate) struct ConnMeter(Arc<ConnCounters>);

impl ConnMeter {
    /// Count one `write(2)` issued (would-block attempts included —
    /// they are real syscalls).
    pub(crate) fn count_write(&self) {
        self.0.write_syscalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one `read(2)` issued.
    pub(crate) fn count_read(&self) {
        self.0.read_syscalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `frames` frames of `bytes` wire bytes written.
    pub(crate) fn count_sent(&self, frames: u64, bytes: u64) {
        self.0.frames_sent.fetch_add(frames, Ordering::Relaxed);
        self.0.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Live counters for one endpoint (a client's connection pool or a
/// server). All counter and trace methods are lock-free; read a
/// coherent-enough view with [`WireMetrics::snapshot`].
#[derive(Debug)]
pub struct WireMetrics {
    frames_received: AtomicU64,
    bytes_received: AtomicU64,
    mac_rejects: AtomicU64,
    decode_rejects: AtomicU64,
    backpressure_stalls: AtomicU64,
    tampered: AtomicU64,
    orphan_frames: AtomicU64,
    connections: AtomicU64,
    partial_frames: AtomicU64,
    verdict_frames: AtomicU64,
    downlink_frames: AtomicU64,
    shard_reconnects: AtomicU64,
    replayed_frames: AtomicU64,
    sessions_held: AtomicU64,
    evidence_bundles: AtomicU64,
    /// Frames and bytes sent and syscalls issued, `Arc`-shared so every
    /// connection carries a cheap [`ConnMeter`] clone into the reactor
    /// layer and counts them itself.
    conn: Arc<ConnCounters>,
    stages: [LatencyHistogram; Stage::ALL.len()],
    /// The endpoint's black-box flight recorder (lock-free ring).
    /// `Arc`-shared so individual connections can carry a trace hook
    /// into the reactor layer without borrowing the whole metrics.
    recorder: Arc<FlightRecorder>,
    /// Trace segments shipped in from remote endpoints (shard hosts on
    /// `Finish`/`Retire`), stitched with the local ring by
    /// [`WireMetrics::stitched_trace`]. Only touched at segment-ship
    /// and post-mortem time, so a mutex is fine here.
    remote_trace: Mutex<RemoteTrace>,
    /// Evidence bundles cut (or received) by this endpoint, capped at
    /// `evidence_cap` ([`DEFAULT_EVIDENCE_CAP`]). Violations are rare and
    /// off the hot path, so a mutex is fine here too.
    evidence_log: Mutex<Vec<EvidenceBundle>>,
    evidence_cap: usize,
}

/// The remote trace segments a coordinator keeps, oldest first.
#[derive(Debug, Default)]
struct RemoteTrace {
    segments: VecDeque<TraceSnapshot>,
    /// Events held across `segments`.
    events: usize,
    /// Events dropped with the oldest segments.
    dropped: u64,
}

impl Default for WireMetrics {
    /// Recorder capacity comes from [`TRACE_CAPACITY_ENV`] (default
    /// [`DEFAULT_TRACE_CAPACITY`](referee_protocol::trace::DEFAULT_TRACE_CAPACITY),
    /// `0` disables tracing).
    fn default() -> Self {
        WireMetrics::with_trace_capacity(resolve_trace_capacity(
            std::env::var(TRACE_CAPACITY_ENV).ok().as_deref(),
        ))
    }
}

macro_rules! bump {
    ($name:ident) => {
        pub(crate) fn $name(&self, by: u64) {
            self.$name.fetch_add(by, Ordering::Relaxed);
        }
    };
}

impl WireMetrics {
    /// Metrics with an explicitly sized flight recorder (`0` disables
    /// tracing; counters and histograms are unaffected).
    pub fn with_trace_capacity(capacity: usize) -> WireMetrics {
        WireMetrics {
            frames_received: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            mac_rejects: AtomicU64::new(0),
            decode_rejects: AtomicU64::new(0),
            backpressure_stalls: AtomicU64::new(0),
            tampered: AtomicU64::new(0),
            orphan_frames: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            partial_frames: AtomicU64::new(0),
            verdict_frames: AtomicU64::new(0),
            downlink_frames: AtomicU64::new(0),
            shard_reconnects: AtomicU64::new(0),
            replayed_frames: AtomicU64::new(0),
            sessions_held: AtomicU64::new(0),
            evidence_bundles: AtomicU64::new(0),
            conn: Arc::default(),
            stages: std::array::from_fn(|_| LatencyHistogram::new()),
            // Creation-time epoch: a restarted process observing the
            // same endpoint lane (a respawned shard host) gets a later,
            // disjoint seq range, keeping stitched lanes strictly
            // monotone across incarnations.
            recorder: Arc::new(FlightRecorder::with_capacity_and_epoch(
                capacity,
                trace::wall_clock_us(),
            )),
            remote_trace: Mutex::new(RemoteTrace::default()),
            evidence_log: Mutex::new(Vec::new()),
            evidence_cap: DEFAULT_EVIDENCE_CAP,
        }
    }

    bump!(frames_received);
    bump!(bytes_received);
    bump!(mac_rejects);
    bump!(decode_rejects);
    bump!(backpressure_stalls);
    bump!(tampered);
    bump!(orphan_frames);
    bump!(connections);
    bump!(partial_frames);
    bump!(verdict_frames);
    bump!(downlink_frames);
    bump!(shard_reconnects);
    bump!(replayed_frames);
    bump!(sessions_held);

    /// A [`ConnMeter`] sharing this endpoint's send and syscall
    /// counters — attach it to every [`Conn`](crate::reactor) via
    /// `meter_with`.
    pub(crate) fn conn_meter(&self) -> ConnMeter {
        ConnMeter(Arc::clone(&self.conn))
    }

    /// Record one duration sample into `stage`'s latency histogram.
    pub(crate) fn record_stage(&self, stage: Stage, elapsed: Duration) {
        self.stages[stage.index()].record_duration(elapsed);
    }

    /// Record one causal trace event into this endpoint's flight
    /// recorder, stamped with wall-clock microseconds so cooperating
    /// processes on one machine stitch onto a single time axis.
    /// Lock-free; a no-op when the recorder is disabled.
    pub fn trace(&self, session: u64, endpoint: u32, kind: TraceKind, payload: u64) {
        self.recorder.record(trace::wall_clock_us(), session, endpoint, kind, payload);
    }

    /// The endpoint's flight recorder (for incremental segment
    /// shipping via [`FlightRecorder::snapshot_since`]).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// A shared handle to the flight recorder — what the reactor's
    /// per-connection trace hooks hold.
    pub(crate) fn recorder_arc(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.recorder)
    }

    /// Keep a trace segment shipped from a remote endpoint (the
    /// coordinator-side half of cross-process trace stitching). Segments sit
    /// in a FIFO holding at most the local recorder's capacity in
    /// events: the oldest whole segments make room, counted in
    /// [`WireSnapshot::remote_trace_drops`]. Constant work per segment;
    /// sorting waits for [`WireMetrics::stitched_trace`].
    pub fn absorb_trace(&self, snap: &TraceSnapshot) {
        let mut remote = self.remote_trace.lock().expect("remote trace lock");
        remote.events += snap.len();
        remote.segments.push_back(snap.clone());
        while remote.events > self.recorder.capacity() {
            let oldest = remote.segments.pop_front().expect("events > 0 means a segment");
            remote.events -= oldest.len();
            remote.dropped += oldest.len() as u64;
        }
    }

    /// Log one [`EvidenceBundle`] cut (or received) by this endpoint:
    /// bumps the `evidence_bundles` counter unconditionally and retains
    /// the bundle up to the [`DEFAULT_EVIDENCE_CAP`] cap.
    pub fn record_evidence(&self, bundle: &EvidenceBundle) {
        self.evidence_bundles.fetch_add(1, Ordering::Relaxed);
        let mut log = self.evidence_log.lock().expect("evidence log lock");
        if log.len() < self.evidence_cap {
            log.push(bundle.clone());
        }
    }

    /// A copy of every retained [`EvidenceBundle`], in emission order.
    pub fn evidence(&self) -> Vec<EvidenceBundle> {
        self.evidence_log.lock().expect("evidence log lock").clone()
    }

    /// One causally-ordered timeline: the local ring's surviving events
    /// merged with every retained remote segment.
    pub fn stitched_trace(&self) -> TraceSnapshot {
        let mut events = self.recorder.snapshot().events().to_vec();
        let remote = self.remote_trace.lock().expect("remote trace lock");
        for segment in &remote.segments {
            events.extend_from_slice(segment.events());
        }
        TraceSnapshot::from_events(events)
    }

    /// A point-in-time copy of every counter and stage histogram.
    pub fn snapshot(&self) -> WireSnapshot {
        WireSnapshot {
            frames_sent: self.conn.frames_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_sent: self.conn.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            mac_rejects: self.mac_rejects.load(Ordering::Relaxed),
            decode_rejects: self.decode_rejects.load(Ordering::Relaxed),
            backpressure_stalls: self.backpressure_stalls.load(Ordering::Relaxed),
            tampered: self.tampered.load(Ordering::Relaxed),
            orphan_frames: self.orphan_frames.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            partial_frames: self.partial_frames.load(Ordering::Relaxed),
            verdict_frames: self.verdict_frames.load(Ordering::Relaxed),
            downlink_frames: self.downlink_frames.load(Ordering::Relaxed),
            shard_reconnects: self.shard_reconnects.load(Ordering::Relaxed),
            replayed_frames: self.replayed_frames.load(Ordering::Relaxed),
            sessions_held: self.sessions_held.load(Ordering::Relaxed),
            evidence_bundles: self.evidence_bundles.load(Ordering::Relaxed),
            write_syscalls: self.conn.write_syscalls.load(Ordering::Relaxed),
            read_syscalls: self.conn.read_syscalls.load(Ordering::Relaxed),
            trace_drops: self.recorder.dropped(),
            remote_trace_drops: self.remote_trace.lock().expect("remote trace lock").dropped,
            stages: std::array::from_fn(|i| self.stages[i].snapshot()),
        }
    }
}

/// A frozen view of [`WireMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Frames written (after any tampering), counted by the connection
    /// once its write buffer drains; frames queued on a connection that
    /// closes first are not counted. The Hello handshake is counted on
    /// neither end.
    pub frames_sent: u64,
    /// Frames received, authenticated and decoded.
    pub frames_received: u64,
    /// Wire bytes of the frames counted in `frames_sent`.
    pub bytes_sent: u64,
    /// Wire bytes read off sockets.
    pub bytes_received: u64,
    /// Frames rejected by MAC verification.
    pub mac_rejects: u64,
    /// Frames rejected for structural reasons (version, length,
    /// payload canonicality).
    pub decode_rejects: u64,
    /// Backpressure events. On a client: sends that had to wait for a
    /// congested write buffer to drain. On a server: throttling
    /// episodes where reading from a peer was paused until its echo
    /// buffer drained.
    pub backpressure_stalls: u64,
    /// Frames deliberately corrupted by the fault-injection hook.
    pub tampered: u64,
    /// Authenticated frames that arrived for a session no longer (or
    /// never) registered — late echoes after session teardown. A run
    /// counts once, as one frame (a run judged after part of it was
    /// applied counts its rest once).
    pub orphan_frames: u64,
    /// Connections ever opened.
    pub connections: u64,
    /// Sharded referee only: range partials handed to the collector,
    /// counted by the range worker that emits them — by value from an
    /// in-process worker, as a `Partial` frame from a shard host — and
    /// again by the proxy that forwards a host's `Partial` frame. A
    /// collector's own range never hands over, and a poison notice is
    /// not a range partial (it is traced as `Poison`).
    pub partial_frames: u64,
    /// Sharded referee only: session verdicts issued.
    pub verdict_frames: u64,
    /// Multi-round referee only: downlink frames streamed back to
    /// clients — runs, one per session round unless the round's
    /// downlinks pass [`RUN_BYTES`](crate::frame::RUN_BYTES).
    pub downlink_frames: u64,
    /// Remote placement only: (re)connections a coordinator proxy made
    /// to its shard host — 1 per proxy for a clean run, more after
    /// shard-host loss.
    pub shard_reconnects: u64,
    /// Remote placement only: journaled uplink runs resent to a
    /// reconnected shard host (announcements excluded). A proxy's first dial sends
    /// what the router queued before the link came up; that is not a
    /// replay.
    pub replayed_frames: u64,
    /// Catalog server only, counted as it stops: the sessions its router
    /// (unjudged routes), workers and proxies (journals) still held.
    /// A leak detector: it reads 0 when every session was judged or its
    /// connection closed, so a nonzero value in the snapshot
    /// [`FleetServer::stop`](crate::FleetServer::stop) returns names
    /// session state some lane kept after it should have let go (say, a
    /// lane that never heard its session finish).
    pub sessions_held: u64,
    /// Evidence bundles cut (server) or received (client) — see
    /// [`WireMetrics::record_evidence`] and
    /// [`referee_protocol::evidence`]. Nonzero means a peer committed a
    /// provable protocol violation.
    pub evidence_bundles: u64,
    /// `write(2)` syscalls issued by this endpoint's connections
    /// (would-block attempts included). With the batched write path,
    /// this should sit well below `frames_sent` — see
    /// [`WireSnapshot::frames_per_write`].
    pub write_syscalls: u64,
    /// `read(2)` syscalls issued by this endpoint's connections.
    pub read_syscalls: u64,
    /// Trace events overwritten by flight-recorder ring overflow
    /// (drop-oldest) — nonzero means the post-mortem window was shorter
    /// than the incident and the ring needs resizing
    /// (`REFEREE_TRACE_CAPACITY`).
    pub trace_drops: u64,
    /// Remote trace events (segments shipped in by shard hosts) dropped
    /// oldest-first to keep the retained ones within the recorder's
    /// capacity — see [`WireMetrics::absorb_trace`].
    pub remote_trace_drops: u64,
    /// Per-stage latency histograms, indexed in [`Stage::ALL`] order.
    pub stages: [HistSnapshot; Stage::ALL.len()],
}

impl WireSnapshot {
    /// The latency histogram for one lifecycle stage.
    pub fn stage(&self, stage: Stage) -> &HistSnapshot {
        &self.stages[stage.index()]
    }

    /// Frames sent per `write(2)` issued — the batching ratio of the
    /// coalescing write path. Above 1.0 means frames shared syscalls;
    /// `0.0` when no writes were issued (or syscalls are unmetered).
    pub fn frames_per_write(&self) -> f64 {
        if self.write_syscalls == 0 {
            0.0
        } else {
            self.frames_sent as f64 / self.write_syscalls as f64
        }
    }

    /// Saturating counter (and histogram-bucket) difference
    /// `self − earlier`, so one phase of a run — a tamper sweep, a soak
    /// window — can be measured in isolation from the counters'
    /// lifetime totals.
    pub fn delta(&self, earlier: &WireSnapshot) -> WireSnapshot {
        WireSnapshot {
            frames_sent: self.frames_sent.saturating_sub(earlier.frames_sent),
            frames_received: self.frames_received.saturating_sub(earlier.frames_received),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            mac_rejects: self.mac_rejects.saturating_sub(earlier.mac_rejects),
            decode_rejects: self.decode_rejects.saturating_sub(earlier.decode_rejects),
            backpressure_stalls: self
                .backpressure_stalls
                .saturating_sub(earlier.backpressure_stalls),
            tampered: self.tampered.saturating_sub(earlier.tampered),
            orphan_frames: self.orphan_frames.saturating_sub(earlier.orphan_frames),
            connections: self.connections.saturating_sub(earlier.connections),
            partial_frames: self.partial_frames.saturating_sub(earlier.partial_frames),
            verdict_frames: self.verdict_frames.saturating_sub(earlier.verdict_frames),
            downlink_frames: self.downlink_frames.saturating_sub(earlier.downlink_frames),
            shard_reconnects: self.shard_reconnects.saturating_sub(earlier.shard_reconnects),
            replayed_frames: self.replayed_frames.saturating_sub(earlier.replayed_frames),
            sessions_held: self.sessions_held.saturating_sub(earlier.sessions_held),
            evidence_bundles: self.evidence_bundles.saturating_sub(earlier.evidence_bundles),
            write_syscalls: self.write_syscalls.saturating_sub(earlier.write_syscalls),
            read_syscalls: self.read_syscalls.saturating_sub(earlier.read_syscalls),
            trace_drops: self.trace_drops.saturating_sub(earlier.trace_drops),
            remote_trace_drops: self
                .remote_trace_drops
                .saturating_sub(earlier.remote_trace_drops),
            stages: std::array::from_fn(|i| self.stages[i].delta(&earlier.stages[i])),
        }
    }
}

impl std::fmt::Display for WireSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conns {} | frames {}/{} | bytes {}/{} | mac-rejects {} | decode-rejects {} | \
             stalls {} | tampered {} | orphans {} | partials {} | verdicts {} | downlinks {} \
             | shard-reconnects {} | replays {} | held {} | evidence {} | \
             syscalls {}w/{}r ({:.1} frames/write) | trace-drops {} | remote-trace-drops {}",
            self.connections,
            self.frames_sent,
            self.frames_received,
            self.bytes_sent,
            self.bytes_received,
            self.mac_rejects,
            self.decode_rejects,
            self.backpressure_stalls,
            self.tampered,
            self.orphan_frames,
            self.partial_frames,
            self.verdict_frames,
            self.downlink_frames,
            self.shard_reconnects,
            self.replayed_frames,
            self.sessions_held,
            self.evidence_bundles,
            self.write_syscalls,
            self.read_syscalls,
            self.frames_per_write(),
            self.trace_drops,
            self.remote_trace_drops,
        )?;
        for stage in Stage::ALL {
            let h = self.stage(stage);
            if h.count() > 0 {
                write!(f, " | {} {}", stage.name(), h)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let m = WireMetrics::default();
        m.conn_meter().count_sent(3, 120);
        m.bytes_received(100);
        m.mac_rejects(1);
        let s = m.snapshot();
        assert_eq!((s.frames_sent, s.bytes_sent), (3, 120));
        assert_eq!(s.bytes_received, 100);
        assert_eq!(s.mac_rejects, 1);
        assert_eq!(s.frames_received, 0);
        assert!(format!("{s}").contains("mac-rejects 1"));
    }

    #[test]
    fn syscall_meter_feeds_frames_per_write() {
        let m = WireMetrics::default();
        assert_eq!(m.snapshot().frames_per_write(), 0.0, "no writes yet");
        let meter = m.conn_meter();
        let clone = meter.clone(); // connections share the same counters
        meter.count_write();
        clone.count_write();
        clone.count_read();
        clone.count_sent(6, 0);
        let s = m.snapshot();
        assert_eq!(s.write_syscalls, 2);
        assert_eq!(s.read_syscalls, 1);
        assert!((s.frames_per_write() - 3.0).abs() < f64::EPSILON);
        assert!(format!("{s}").contains("syscalls 2w/1r (3.0 frames/write)"));
        // Delta isolates phases for the syscall counters too.
        meter.count_write();
        let d = m.snapshot().delta(&s);
        assert_eq!(d.write_syscalls, 1);
        assert_eq!(d.read_syscalls, 0);
    }

    #[test]
    fn snapshot_reflects_stage_histograms() {
        let m = WireMetrics::default();
        m.record_stage(Stage::Verdict, Duration::from_micros(700));
        m.record_stage(Stage::Verdict, Duration::from_micros(900));
        m.record_stage(Stage::RefereeStep, Duration::from_micros(3));
        let s = m.snapshot();
        assert_eq!(s.stage(Stage::Verdict).count(), 2);
        assert_eq!(s.stage(Stage::Verdict).p50(), 1023);
        assert_eq!(s.stage(Stage::RefereeStep).count(), 1);
        assert_eq!(s.stage(Stage::Announce).count(), 0);
        let rendered = format!("{s}");
        assert!(rendered.contains("verdict n=2 p50=1023us"), "{rendered}");
        assert!(!rendered.contains("announce"), "{rendered}");
    }

    #[test]
    fn trace_drops_pin_drop_oldest_overflow() {
        // A deliberately tiny ring: 4 slots fed 7 events must drop the
        // *oldest* 3 and report exactly that in the snapshot counter.
        let m = WireMetrics::with_trace_capacity(4);
        for i in 0..7u64 {
            m.trace(i, trace_endpoint::SERVER, TraceKind::Uplink, i);
        }
        let s = m.snapshot();
        assert_eq!(s.trace_drops, 3);
        let surviving = m.stitched_trace();
        assert_eq!(surviving.len(), 4);
        let sessions: Vec<u64> = surviving.events().iter().map(|e| e.session).collect();
        assert_eq!(sessions, [3, 4, 5, 6], "the newest four survive drop-oldest");
        assert!(format!("{s}").contains("trace-drops 3"));
        // Delta keeps isolating phases for the new counter too.
        for i in 0..2u64 {
            m.trace(i, trace_endpoint::SERVER, TraceKind::Uplink, i);
        }
        assert_eq!(m.snapshot().delta(&s).trace_drops, 2);
    }

    #[test]
    fn evidence_log_counts_and_caps() {
        use referee_protocol::evidence::{EvidenceBundle, EvidenceRecord, ProvableError};
        let bundle = EvidenceBundle {
            error: ProvableError::OutOfRangeSender,
            accused: Some(9),
            records: vec![EvidenceRecord { path: vec![7], body: vec![1, 2, 3], tag: 42 }],
        };
        let m = WireMetrics { evidence_cap: 2, ..WireMetrics::default() };
        for _ in 0..5 {
            m.record_evidence(&bundle);
        }
        // The counter keeps counting past the cap; the log stops.
        let s = m.snapshot();
        assert_eq!(s.evidence_bundles, 5);
        assert_eq!(m.evidence().len(), 2);
        assert_eq!(m.evidence()[0], bundle);
        assert!(format!("{s}").contains("evidence 5"));
        // Delta isolates phases for the evidence counter too.
        m.record_evidence(&bundle);
        assert_eq!(m.snapshot().delta(&s).evidence_bundles, 1);
    }

    #[test]
    fn trace_capacity_resolution_precedence() {
        use referee_protocol::trace::DEFAULT_TRACE_CAPACITY;
        assert_eq!(resolve_trace_capacity(None), DEFAULT_TRACE_CAPACITY);
        assert_eq!(resolve_trace_capacity(Some("64")), 64);
        assert_eq!(resolve_trace_capacity(Some(" 128 ")), 128);
        // 0 is a *valid* setting: it disables the recorder.
        assert_eq!(resolve_trace_capacity(Some("0")), 0);
        assert_eq!(resolve_trace_capacity(Some("junk")), DEFAULT_TRACE_CAPACITY);
        let m = WireMetrics::with_trace_capacity(0);
        m.trace(1, trace_endpoint::CLIENT, TraceKind::Dial, 0);
        assert!(m.stitched_trace().is_empty());
        assert_eq!(m.snapshot().trace_drops, 0, "disabled recorders drop nothing");
    }

    #[test]
    fn stitching_absorbs_remote_segments() {
        let m = WireMetrics::with_trace_capacity(16);
        m.trace(5, trace_endpoint::SERVER, TraceKind::Announce, 9);
        let remote = WireMetrics::with_trace_capacity(16);
        remote.trace(5, trace_endpoint::shard_host(2), TraceKind::PartialEmit, 2);
        m.absorb_trace(&remote.stitched_trace());
        let stitched = m.stitched_trace();
        assert_eq!(stitched.len(), 2);
        assert_eq!(stitched.session_events(5).count(), 2);
        // Absorbing the same segment again is idempotent.
        m.absorb_trace(&remote.stitched_trace());
        assert_eq!(m.stitched_trace(), stitched);
    }

    #[test]
    fn remote_trace_stays_within_capacity() {
        // 10k sessions' segments of 3 events each into a 4096-event cap:
        // the oldest whole segments go, and every shipped event is
        // either retained or counted dropped.
        let cap = 4096;
        let m = WireMetrics::with_trace_capacity(cap);
        let mut shipped = 0u64;
        for session in 0..10_000u64 {
            let host = WireMetrics::with_trace_capacity(8);
            for kind in [TraceKind::Announce, TraceKind::Uplink, TraceKind::PartialEmit] {
                host.trace(session, trace_endpoint::shard_host(1), kind, session);
            }
            let segment = host.stitched_trace();
            shipped += segment.len() as u64;
            m.absorb_trace(&segment);
        }
        let retained = m.stitched_trace();
        let dropped = m.snapshot().remote_trace_drops;
        assert!(retained.len() <= cap, "{} retained", retained.len());
        assert_eq!(retained.len() as u64 + dropped, shipped);
        // Whole segments: the newest sessions survive, each complete.
        assert_eq!(retained.len(), cap / 3 * 3);
        assert_eq!(retained.session_events(9_999).count(), 3);
        assert_eq!(retained.session_events(0).count(), 0);
        assert!(format!("{}", m.snapshot()).contains(&format!("remote-trace-drops {dropped}")));
    }

    #[test]
    fn delta_isolates_a_phase() {
        let m = WireMetrics::default();
        let meter = m.conn_meter();
        meter.count_sent(10, 0);
        m.connections(2);
        m.record_stage(Stage::Verdict, Duration::from_micros(100));
        let before = m.snapshot();
        meter.count_sent(5, 0);
        m.mac_rejects(1);
        m.record_stage(Stage::Verdict, Duration::from_micros(4000));
        let after = m.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.frames_sent, 5);
        assert_eq!(d.mac_rejects, 1);
        assert_eq!(d.connections, 0);
        assert_eq!(d.stage(Stage::Verdict).count(), 1);
        assert_eq!(d.stage(Stage::Verdict).p50(), 4095);
        // Degenerate direction saturates instead of wrapping.
        let rev = before.delta(&after);
        assert_eq!(rev.frames_sent, 0);
        assert_eq!(rev.stage(Stage::Verdict).count(), 0);
    }
}
