//! The concurrency layer: run thousands of independent sessions on a
//! fixed worker pool.
//!
//! Work distribution is claim-based batching over scoped threads: a
//! shared atomic cursor hands each idle worker the next contiguous batch
//! of session indices, so fast workers steal the tail from slow ones
//! without any channel or lock on the hot path. Within a batch, sessions
//! are *interleaved* — each gets one `step()` per sweep of the batch —
//! exercising the poll-style API exactly the way an async reactor would.
//!
//! While a sweep runs, the per-run nested parallelism of the legacy
//! simulator ([`referee_protocol::parallel_threshold`]) is disabled:
//! with every core already driving sessions, a per-session fan-out would
//! only oversubscribe the machine.

use crate::byzantine::{ByzantineConfig, InjectionCounts, Misbehaving};
use crate::fault::{FaultConfig, FaultyTransport};
use crate::metrics::AggregateMetrics;
use crate::session::{MultiRoundReport, MultiRoundSession, OneRoundReport, Step};
use crate::transport::{PerfectTransport, SessionId};
use referee_graph::{LabelledGraph, VertexId};
use referee_protocol::combinators::OneRoundAsMultiRound;
use referee_protocol::evidence::{EvidenceBundle, SessionParams};
use referee_protocol::multiround::{MultiRoundProtocol, MultiRoundStats};
use referee_protocol::trace::{wall_clock_us, FlightRecorder, TraceKind};
use referee_protocol::MacKey;
use referee_protocol::{DecodeError, Message, OneRoundProtocol};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Runs batches of sessions across a scoped worker pool.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// Worker threads (defaults to available parallelism, capped at 64).
    pub workers: usize,
    /// Sessions claimed per cursor fetch.
    pub batch: usize,
    /// Optional flight recorder: when set, every claimed batch records a
    /// `TaskStart`/`TaskEnd` pair (endpoint `0x300 + worker`, payload =
    /// the batch's `lo` index), so a post-mortem shows how the claim
    /// cursor actually distributed work across the pool.
    recorder: Option<Arc<FlightRecorder>>,
}

impl Default for Scheduler {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(4, |p| p.get()).min(64);
        Scheduler { workers, batch: 32, recorder: None }
    }
}

impl Scheduler {
    /// A scheduler with explicit worker and batch sizes (both clamped to
    /// at least 1).
    pub fn new(workers: usize, batch: usize) -> Self {
        Scheduler { workers: workers.max(1), batch: batch.max(1), recorder: None }
    }

    /// Attach a flight recorder; see the `recorder` field docs.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Generic claim-based parallel map: `run(i)` for every `i` in
    /// `0..jobs`, results in index order.
    pub fn run_indexed<R, F>(&self, jobs: usize, run: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run_batched(jobs, |lo, hi| (lo..hi).map(&run).collect())
    }

    /// The one claim-based worker loop everything above builds on: idle
    /// workers fetch-add the next contiguous `[lo, hi)` batch off a
    /// shared cursor, run `drive_batch` on it, and results are
    /// reassembled in input order.
    fn run_batched<R, F>(&self, jobs: usize, drive_batch: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, usize) -> Vec<R> + Sync,
    {
        // Clamp at the point of use: the fields are public, and
        // `batch = 0` would spin the cursor forever while `workers = 0`
        // would silently run nothing.
        let batch = self.batch.max(1);
        let workers = self.workers.clamp(1, jobs.max(1));
        let cursor = AtomicUsize::new(0);
        let mut tagged: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let cursor = &cursor;
                    let drive_batch = &drive_batch;
                    let recorder = self.recorder.as_deref();
                    scope.spawn(move || {
                        let endpoint = 0x300 + w as u32;
                        let mut mine = Vec::new();
                        loop {
                            let lo = cursor.fetch_add(batch, Ordering::Relaxed);
                            if lo >= jobs {
                                break;
                            }
                            let hi = (lo + batch).min(jobs);
                            if let Some(r) = recorder {
                                r.record(
                                    wall_clock_us(),
                                    0,
                                    endpoint,
                                    TraceKind::TaskStart,
                                    lo as u64,
                                );
                            }
                            mine.push((lo, drive_batch(lo, hi)));
                            if let Some(r) = recorder {
                                r.record(
                                    wall_clock_us(),
                                    0,
                                    endpoint,
                                    TraceKind::TaskEnd,
                                    lo as u64,
                                );
                            }
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("worker panicked")).collect()
        });
        tagged.sort_by_key(|(lo, _)| *lo);
        tagged.into_iter().flat_map(|(_, rs)| rs).collect()
    }

    /// Run `protocol` once per graph, each session on its own transport
    /// (faulty when `faults` is given, perfect otherwise), interleaving
    /// sessions within each claimed batch: the one-shard case of
    /// [`sweep_one_round_sharded`](Self::sweep_one_round_sharded).
    pub fn sweep_one_round<P>(
        &self,
        protocol: &P,
        graphs: &[LabelledGraph],
        faults: Option<FaultConfig>,
    ) -> SweepReport<OneRoundReport<P::Output>>
    where
        P: OneRoundProtocol + Sync,
        P::Output: Send,
    {
        self.sweep_one_round_sharded(protocol, graphs, 1, faults)
    }

    /// Like [`sweep_one_round`](Self::sweep_one_round), but every
    /// session's referee runs as `shards` mergeable shards: each
    /// session is the cap-1 [`MultiRoundSession`] of
    /// [`OneRoundAsMultiRound`]`(protocol)` with `shards` shards.
    /// Exchange orders are scrambled with a per-lane seed (decorrelated
    /// the same way transport fault seeds are), so a sweep exercises
    /// many interleavings at once.
    pub fn sweep_one_round_sharded<P>(
        &self,
        protocol: &P,
        graphs: &[LabelledGraph],
        shards: usize,
        faults: Option<FaultConfig>,
    ) -> SweepReport<OneRoundReport<P::Output>>
    where
        P: OneRoundProtocol + Sync,
        P::Output: Send,
    {
        let adapted = OneRoundAsMultiRound(protocol);
        self.sweep(graphs.len(), |lo, hi| {
            let mut lanes: Vec<Option<_>> = (lo..hi)
                .map(|i| {
                    let transport = session_transport(faults, i);
                    let session = MultiRoundSession::new(&adapted, &graphs[i], 1)
                        .with_shards(shards)
                        .with_exchange_seed(lane_seed(0x9aa2_d1b5, i));
                    Some((session, transport))
                })
                .collect();
            drive_interleaved(
                &mut lanes,
                |s, t| s.step(t),
                |s, t| OneRoundReport::from(s.into_report(t)),
            )
        })
    }

    /// Multi-round analogue of [`sweep_one_round`](Self::sweep_one_round):
    /// the one-shard case of
    /// [`sweep_multi_round_sharded`](Self::sweep_multi_round_sharded).
    pub fn sweep_multi_round<P>(
        &self,
        protocol: &P,
        graphs: &[LabelledGraph],
        max_rounds: usize,
        faults: Option<FaultConfig>,
    ) -> SweepReport<MultiRoundReport<P::Output>>
    where
        P: MultiRoundProtocol + Sync,
        P::Output: Send,
        P::NodeState: Send,
        P::RefereeState: Send,
    {
        self.sweep_multi_round_sharded(protocol, graphs, 1, max_rounds, faults)
    }

    /// Like [`sweep_multi_round`](Self::sweep_multi_round), but every
    /// session's per-round referee wait runs as `shards` mergeable
    /// shards with a cross-shard exchange before each `referee_step`.
    /// Exchange orders are scrambled with a per-lane seed, so a sweep
    /// exercises many interleavings at once; the aggregate can be
    /// reclassified with [`SweepReport::reclassify_ok`] exactly like
    /// every other sweep (the rollup is rebuilt from the reports, never
    /// patched).
    pub fn sweep_multi_round_sharded<P>(
        &self,
        protocol: &P,
        graphs: &[LabelledGraph],
        shards: usize,
        max_rounds: usize,
        faults: Option<FaultConfig>,
    ) -> SweepReport<MultiRoundReport<P::Output>>
    where
        P: MultiRoundProtocol + Sync,
        P::Output: Send,
        P::NodeState: Send,
        P::RefereeState: Send,
    {
        self.sweep(graphs.len(), |lo, hi| {
            let mut lanes: Vec<Option<_>> = (lo..hi)
                .map(|i| {
                    let transport = session_transport(faults, i);
                    let session = MultiRoundSession::new(protocol, &graphs[i], max_rounds)
                        .with_shards(shards)
                        .with_exchange_seed(lane_seed(0x51ab_77ed, i));
                    Some((session, transport))
                })
                .collect();
            drive_interleaved(&mut lanes, |s, t| s.step(t), |s, t| s.into_report(t))
        })
    }

    /// Sweep sharded one-round sessions (cap-1, as in
    /// [`sweep_one_round_sharded`](Self::sweep_one_round_sharded)) over
    /// seeded byzantine [`Misbehaving`] transports: lane `i` runs on
    /// `graphs[i]` with a per-lane derived seed, byzantine mask,
    /// session id and base key, and after the session ends (however it
    /// ends) the independent prosecutor scans the MAC'd transcript into
    /// evidence bundles.
    /// Each [`ByzantineReport`] carries everything a third-party
    /// verifier needs (`base`, `params`) plus the injection ground
    /// truth, so harnesses can assert the accountability properties —
    /// completeness and no-framing — per lane.
    pub fn sweep_byzantine<P>(
        &self,
        protocol: &P,
        graphs: &[LabelledGraph],
        shards: usize,
        cfg: ByzantineConfig,
    ) -> SweepReport<ByzantineReport<P::Output>>
    where
        P: OneRoundProtocol + Sync,
        P::Output: Send,
    {
        let adapted = OneRoundAsMultiRound(protocol);
        self.sweep(graphs.len(), |lo, hi| {
            let mut lanes: Vec<Option<_>> = (lo..hi)
                .map(|i| {
                    let g = &graphs[i];
                    let lane_cfg = ByzantineConfig { seed: lane_seed(cfg.seed, i), ..cfg };
                    let params =
                        SessionParams { session: i as u64 + 1, n: g.n() as u32, round_cap: 1 };
                    let base = byzantine_base_key(lane_cfg.seed);
                    let mask = lane_cfg.sample_mask(g.n());
                    let transport =
                        Misbehaving::new(PerfectTransport::new(), lane_cfg, mask, base, params);
                    let session = MultiRoundSession::new(&adapted, g, 1)
                        .with_shards(shards)
                        .with_session(SessionId(params.session))
                        .with_exchange_seed(lane_seed(0x6b79_7a61, i));
                    Some((session, transport))
                })
                .collect();
            drive_interleaved(
                &mut lanes,
                |s, t| s.step(t),
                |s, t: &Misbehaving<PerfectTransport>| {
                    let report = OneRoundReport::from(s.into_report(t));
                    ByzantineReport {
                        outcome: report.outcome,
                        metrics: report.metrics,
                        shards: report.shards,
                        base: t.base_key(),
                        params: t.params(),
                        mask: t.mask().iter().copied().collect(),
                        injections: t.injections(),
                        bundles: t.prosecute(),
                    }
                },
            )
        })
    }

    /// Sweep a **heterogeneous mix** of protocols in one pool: session
    /// `i` runs `lanes[i % lanes.len()]`'s protocol on `graphs[i]`, so
    /// sessions of every service interleave within each claimed batch —
    /// the sans-I/O twin of a catalog-mode
    /// `FleetServer` refereeing several services concurrently. Outputs
    /// are type-erased through each lane's encoder (the same
    /// `fn(&Output) -> Message` a
    /// [`ServiceCatalog`](referee_protocol::service::ServiceCatalog)
    /// entry registers), so one [`SweepReport`] aggregates across
    /// protocols while staying bit-comparable to wire verdicts.
    ///
    /// Panics if `lanes` is empty.
    pub fn sweep_mixed<'a>(
        &self,
        lanes: &[MixedLane<'a>],
        graphs: &'a [LabelledGraph],
        max_rounds: usize,
        faults: Option<FaultConfig>,
    ) -> SweepReport<MixedReport> {
        assert!(!lanes.is_empty(), "sweep_mixed needs at least one lane");
        self.sweep(graphs.len(), |lo, hi| {
            let mut live: Vec<Option<_>> = (lo..hi)
                .map(|i| {
                    let transport = session_transport(faults, i);
                    let session = lanes[i % lanes.len()].open(&graphs[i], max_rounds);
                    Some((session, transport))
                })
                .collect();
            drive_interleaved(&mut live, |s, t| s.step(t), |s, t| s.finish(t))
        })
    }

    /// Shared sweep driver: claim batches, run them, aggregate.
    fn sweep<R: Report + Send>(
        &self,
        jobs: usize,
        drive_batch: impl Fn(usize, usize) -> Vec<R> + Sync,
    ) -> SweepReport<R> {
        // Sessions already saturate the pool; nested per-run parallelism
        // would oversubscribe it. The guard is reference-counted (nested
        // or concurrent sweeps restore only when the last one exits) and
        // restores on unwind if a worker panics.
        let _guard = NestedParallelismGuard::enter();

        let t0 = Instant::now();
        let reports = self.run_batched(jobs, drive_batch);
        let mut aggregate = AggregateMetrics::default();
        for r in &reports {
            aggregate.absorb(r.metrics(), r.is_ok());
        }
        aggregate.wall_seconds = t0.elapsed().as_secs_f64();
        SweepReport { reports, aggregate }
    }
}

/// Process-wide, reference-counted suspension of the legacy simulators'
/// nested parallelism. Save/suspend and restore both happen under one
/// mutex, so overlapping sweeps can never observe `usize::MAX` as the
/// "previous" value, the last sweep out restores, and a panicking sweep
/// still restores on unwind (poisoned locks are ridden through — the
/// state stays valid).
struct NestedParallelismGuard;

/// `(active_sweeps, saved_threshold)`.
static SWEEP_STATE: Mutex<(usize, usize)> = Mutex::new((0, 0));

fn sweep_state() -> std::sync::MutexGuard<'static, (usize, usize)> {
    SWEEP_STATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl NestedParallelismGuard {
    fn enter() -> Self {
        let mut state = sweep_state();
        if state.0 == 0 {
            state.1 = referee_protocol::parallel_threshold();
            referee_protocol::set_parallel_threshold(usize::MAX);
        }
        state.0 += 1;
        NestedParallelismGuard
    }
}

impl Drop for NestedParallelismGuard {
    fn drop(&mut self) {
        let mut state = sweep_state();
        state.0 -= 1;
        if state.0 == 0 {
            referee_protocol::set_parallel_threshold(state.1);
        }
    }
}

/// The transport every scheduler lane uses: fault-injecting when
/// configured, a transparent lossless decorator otherwise. Per-lane seeds
/// are derived by splitmix-style mixing so lanes are decorrelated.
fn session_transport(
    faults: Option<FaultConfig>,
    lane: usize,
) -> FaultyTransport<PerfectTransport> {
    let mut cfg = faults.unwrap_or(FaultConfig::lossless(0));
    cfg.seed = lane_seed(cfg.seed, lane);
    FaultyTransport::new(PerfectTransport::new(), cfg)
}

/// Splitmix-style per-lane seed derivation (decorrelates lanes).
fn lane_seed(base: u64, lane: usize) -> u64 {
    base.wrapping_add((lane as u64).wrapping_mul(0x9e3779b97f4a7c15))
        .wrapping_add(0xd1b54a32d192ed03)
}

/// Deterministic per-lane session base key for byzantine sweeps (a
/// fixture-quality derivation — real deployments provision keys out of
/// band).
fn byzantine_base_key(seed: u64) -> MacKey {
    let mut k = [0u8; 16];
    k[..8].copy_from_slice(&seed.to_le_bytes());
    k[8..]
        .copy_from_slice(&seed.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17).to_le_bytes());
    MacKey(k)
}

/// Round-robin step every live lane until all complete.
fn drive_interleaved<S, T, R>(
    lanes: &mut [Option<(S, T)>],
    mut step: impl FnMut(&mut S, &mut T) -> Step,
    mut finish: impl FnMut(S, &T) -> R,
) -> Vec<R> {
    let mut done: Vec<Option<R>> = (0..lanes.len()).map(|_| None).collect();
    let mut remaining = lanes.len();
    while remaining > 0 {
        for (i, lane) in lanes.iter_mut().enumerate() {
            if let Some((mut session, mut transport)) = lane.take() {
                if step(&mut session, &mut transport) == Step::Done {
                    done[i] = Some(finish(session, &transport));
                    remaining -= 1;
                } else {
                    *lane = Some((session, transport));
                }
            }
        }
    }
    done.into_iter().map(|r| r.expect("lane finished")).collect()
}

/// A whole sweep: per-session reports plus the fleet rollup.
#[derive(Debug)]
pub struct SweepReport<R> {
    /// One report per input graph, in input order.
    pub reports: Vec<R>,
    /// The rollup (including sweep wall time). `ok`/`rejected` here
    /// count *session-level* outcomes (did delivery complete?); see
    /// [`SweepReport::reclassify_ok`] for protocol-aware counting.
    pub aggregate: AggregateMetrics,
}

impl<R: Report> SweepReport<R> {
    /// Reclassify every session with a caller-supplied notion of
    /// "usable outcome" and **rebuild the whole fleet rollup** from the
    /// per-session reports under that classification.
    ///
    /// The generic runtime can only see whether a session *delivered*;
    /// protocols whose `Output` is itself a `Result` (the degeneracy
    /// family, checked Borůvka) report decoder-level rejections inside
    /// that output, invisible at this layer. Callers that know the
    /// concrete type pass a classifier to fold those in.
    ///
    /// Rebuilding (rather than patching `ok`/`rejected` in place)
    /// guarantees no counter can be left stale relative to the reports —
    /// every tally, including the session counts, message-bit totals and
    /// merged transport counters, is recomputed; only the measured
    /// `wall_seconds` of the sweep is preserved. The method is
    /// idempotent.
    pub fn reclassify_ok(&mut self, usable: impl Fn(&R) -> bool) {
        let wall_seconds = self.aggregate.wall_seconds;
        let mut fresh = AggregateMetrics::default();
        for r in &self.reports {
            fresh.absorb(r.metrics(), usable(r));
        }
        fresh.wall_seconds = wall_seconds;
        self.aggregate = fresh;
    }
}

/// Internal: lets the shared sweep driver aggregate either report type.
pub trait Report {
    /// Session metrics for aggregation.
    fn metrics(&self) -> &crate::metrics::SessionMetrics;
    /// Whether the session produced a usable outcome.
    fn is_ok(&self) -> bool;
}

impl<O> Report for OneRoundReport<O> {
    fn metrics(&self) -> &crate::metrics::SessionMetrics {
        &self.metrics
    }
    fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

impl<O> Report for MultiRoundReport<O> {
    fn metrics(&self) -> &crate::metrics::SessionMetrics {
        &self.metrics
    }
    fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// Outcome of one byzantine-sweep lane: the session result plus
/// everything needed to independently verify (or refute) the evidence
/// the prosecutor produced.
#[derive(Debug)]
pub struct ByzantineReport<O> {
    /// The referee's output, or the failure that ended the session.
    pub outcome: Result<O, DecodeError>,
    /// Per-session delivery metrics.
    pub metrics: crate::metrics::SessionMetrics,
    /// Shard count the session ran with.
    pub shards: usize,
    /// The session base key — the only secret a third-party verifier
    /// needs.
    pub base: MacKey,
    /// Public session facts ([`verify_bundle`](referee_protocol::evidence::verify_bundle)
    /// input).
    pub params: SessionParams,
    /// The byzantine nodes this lane actually ran with.
    pub mask: Vec<VertexId>,
    /// Injection ground truth from the [`Misbehaving`] wrapper.
    pub injections: InjectionCounts,
    /// Evidence bundles the prosecutor built from the transcript.
    pub bundles: Vec<EvidenceBundle>,
}

impl<O> Report for ByzantineReport<O> {
    fn metrics(&self) -> &crate::metrics::SessionMetrics {
        &self.metrics
    }
    fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// One service in a heterogeneous [`Scheduler::sweep_mixed`] pool: a
/// protocol plus the verdict encoder a
/// [`ServiceCatalog`](referee_protocol::service::ServiceCatalog) entry
/// would register for it. The protocol's concrete `Output` is erased at
/// the lane boundary, so lanes of different protocols coexist in one
/// slice and one sweep.
pub struct MixedLane<'a> {
    name: String,
    open: Box<dyn Fn(&'a LabelledGraph, usize) -> Box<dyn ErasedMultiRound + 'a> + Sync + 'a>,
}

impl std::fmt::Debug for MixedLane<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MixedLane").field("name", &self.name).finish_non_exhaustive()
    }
}

impl<'a> MixedLane<'a> {
    /// A lane running `protocol` under `name`, erasing outputs through
    /// `encode` (use the same encoder the catalog entry registers so
    /// simnet outcomes stay bit-comparable to wire verdicts).
    pub fn new<P>(
        name: &str,
        protocol: &'a P,
        encode: fn(&P::Output) -> Message,
    ) -> MixedLane<'a>
    where
        P: MultiRoundProtocol + Sync,
        P::Output: Send,
        P::NodeState: Send,
        P::RefereeState: Send,
    {
        let service = name.to_string();
        MixedLane {
            name: service.clone(),
            open: Box::new(move |g, max_rounds| {
                Box::new(ErasedSession {
                    session: MultiRoundSession::new(protocol, g, max_rounds),
                    encode,
                    service: service.clone(),
                })
            }),
        }
    }

    /// The service name stamped on every report this lane produces.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn open(&self, g: &'a LabelledGraph, max_rounds: usize) -> Box<dyn ErasedMultiRound + 'a> {
        (self.open)(g, max_rounds)
    }
}

/// Object-safe view of an in-flight multi-round session; the concrete
/// protocol (and its `Output`) hide behind this so [`MixedLane`]s of
/// different protocols share one sweep.
trait ErasedMultiRound {
    fn step(&mut self, transport: &mut FaultyTransport<PerfectTransport>) -> Step;
    fn finish(self: Box<Self>, transport: &FaultyTransport<PerfectTransport>) -> MixedReport;
}

struct ErasedSession<'a, P: MultiRoundProtocol> {
    session: MultiRoundSession<'a, P>,
    encode: fn(&P::Output) -> Message,
    service: String,
}

impl<P: MultiRoundProtocol> ErasedMultiRound for ErasedSession<'_, P> {
    fn step(&mut self, transport: &mut FaultyTransport<PerfectTransport>) -> Step {
        self.session.step(transport)
    }
    fn finish(self: Box<Self>, transport: &FaultyTransport<PerfectTransport>) -> MixedReport {
        let report = self.session.into_report(transport);
        MixedReport {
            service: self.service,
            outcome: report.outcome.map(|o| o.map(|out| (self.encode)(&out))),
            metrics: report.metrics,
            stats: report.stats,
        }
    }
}

/// A [`MultiRoundReport`] with the output already pushed through its
/// lane's verdict encoder, plus the lane name — the common shape every
/// protocol in a mixed sweep reduces to.
#[derive(Debug, Clone)]
pub struct MixedReport {
    /// Which [`MixedLane`] produced this report.
    pub service: String,
    /// `Ok(Some(encoded))` when the referee returned a verdict within
    /// the round budget; `Ok(None)` when the budget ran out; `Err` when
    /// the session-layer runtime rejected delivery.
    pub outcome: Result<Option<Message>, DecodeError>,
    /// Per-session delivery metrics.
    pub metrics: crate::metrics::SessionMetrics,
    /// Round/bit complexity as measured by the session runtime.
    pub stats: MultiRoundStats,
}

impl Report for MixedReport {
    fn metrics(&self) -> &crate::metrics::SessionMetrics {
        &self.metrics
    }
    fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_is_ordered_and_complete() {
        let s = Scheduler::new(8, 3);
        let out = s.run_indexed(100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn run_indexed_zero_jobs() {
        let s = Scheduler::default();
        let out: Vec<u8> = s.run_indexed(0, |_| unreachable!("no jobs"));
        assert!(out.is_empty());
    }

    /// One pool, three services interleaved per batch: every mixed
    /// report must carry its lane's name and an encoded verdict
    /// bit-for-bit equal to running that lane's protocol directly.
    #[test]
    fn sweep_mixed_interleaves_services_and_matches_direct_runs() {
        use referee_protocol::combinators::OneRoundAsMultiRound;
        use referee_protocol::easy::{DegreeSequenceProtocol, EdgeCountProtocol};
        use referee_protocol::multiround::{run_multiround, BoruvkaConnectivity};
        use referee_protocol::service::encode_bool_output;
        use referee_protocol::BitWriter;

        fn encode_count(out: &Result<usize, DecodeError>) -> Message {
            let mut w = BitWriter::new();
            match out {
                Ok(v) => {
                    w.push_bit(true);
                    w.write_bits(*v as u64, 32);
                }
                Err(_) => w.push_bit(false),
            }
            Message::from_writer(w)
        }
        fn encode_degrees(out: &Result<Vec<usize>, DecodeError>) -> Message {
            let mut w = BitWriter::new();
            match out {
                Ok(ds) => {
                    w.push_bit(true);
                    for d in ds {
                        w.write_bits(*d as u64, 16);
                    }
                }
                Err(_) => w.push_bit(false),
            }
            Message::from_writer(w)
        }

        let graphs: Vec<LabelledGraph> = (0..9)
            .map(|i| match i % 3 {
                0 => referee_graph::generators::cycle(4 + i).expect("n >= 3"),
                1 => referee_graph::generators::grid(2, 2 + i),
                _ => referee_graph::generators::star(3 + i).expect("n >= 1"),
            })
            .collect();

        let edge_count = OneRoundAsMultiRound(EdgeCountProtocol);
        let degrees = OneRoundAsMultiRound(DegreeSequenceProtocol);
        let lanes = [
            MixedLane::new("boruvka", &BoruvkaConnectivity, encode_bool_output),
            MixedLane::new("edge-count", &edge_count, encode_count),
            MixedLane::new("degrees", &degrees, encode_degrees),
        ];
        let sweep = Scheduler::new(4, 2).sweep_mixed(&lanes, &graphs, 64, None);
        assert_eq!(sweep.reports.len(), graphs.len());
        assert_eq!(sweep.aggregate.ok, graphs.len());
        for (i, r) in sweep.reports.iter().enumerate() {
            assert_eq!(r.service, lanes[i % lanes.len()].name());
            let got =
                r.outcome.as_ref().expect("delivered").as_ref().expect("verdict within budget");
            let want = match i % lanes.len() {
                0 => encode_bool_output(
                    &run_multiround(&BoruvkaConnectivity, &graphs[i], 64).0.expect("verdict"),
                ),
                1 => encode_count(
                    &run_multiround(&edge_count, &graphs[i], 64).0.expect("verdict"),
                ),
                _ => encode_degrees(
                    &run_multiround(&degrees, &graphs[i], 64).0.expect("verdict"),
                ),
            };
            assert_eq!(got.len_bits(), want.len_bits(), "lane {i}");
            assert_eq!(got.as_bytes(), want.as_bytes(), "lane {i}");
            assert!(r.stats.rounds >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn sweep_mixed_rejects_empty_lane_set() {
        let graphs = [referee_graph::generators::grid(2, 2)];
        Scheduler::new(1, 1).sweep_mixed(&[], &graphs, 8, None);
    }

    #[test]
    fn reclassify_rebuilds_every_fleet_counter() {
        use referee_protocol::easy::EdgeCountProtocol;
        let graphs: Vec<_> =
            (0..12).map(|i| referee_graph::generators::grid(2, 2 + i % 3)).collect();
        let mut sweep = Scheduler::new(4, 3).sweep_one_round(&EdgeCountProtocol, &graphs, None);
        assert_eq!(sweep.aggregate.ok, 12);
        let wall = sweep.aggregate.wall_seconds;

        // Simulate the stale-tally bug: a caller (or a buggy merge) has
        // clobbered fleet counters. Reclassifying must restore every
        // field from the reports, not just patch ok/rejected.
        sweep.aggregate.ok = 999;
        sweep.aggregate.sessions = 0;
        sweep.aggregate.total_message_bits = 0;
        sweep.aggregate.total_rounds = 77;
        sweep.aggregate.transport = crate::metrics::TransportCounters::default();

        // Classify sessions on even-sized graphs as failures.
        sweep.reclassify_ok(|r| r.metrics.stats.n % 2 == 1);
        let expected_ok = graphs.iter().filter(|g| g.n() % 2 == 1).count();
        assert_eq!(sweep.aggregate.ok, expected_ok);
        assert_eq!(sweep.aggregate.rejected, 12 - expected_ok);
        assert_eq!(sweep.aggregate.sessions, 12);
        assert_eq!(sweep.aggregate.total_rounds, 12);
        let bits: u128 =
            sweep.reports.iter().map(|r| r.metrics.stats.total_message_bits as u128).sum();
        assert_eq!(sweep.aggregate.total_message_bits, bits);
        let sent: u64 = sweep.reports.iter().map(|r| r.metrics.transport.sent).sum();
        assert_eq!(sweep.aggregate.transport.sent, sent);
        assert_eq!(sweep.aggregate.wall_seconds, wall, "measured wall time preserved");

        // Idempotent: a second identical reclassification is a no-op.
        let before = format!("{:?}", sweep.aggregate);
        sweep.reclassify_ok(|r| r.metrics.stats.n % 2 == 1);
        assert_eq!(format!("{:?}", sweep.aggregate), before);
    }

    #[test]
    fn sharded_sweep_matches_unsharded() {
        use referee_protocol::easy::EdgeCountProtocol;
        let graphs: Vec<_> =
            (0..40).map(|i| referee_graph::generators::grid(2 + i % 3, 3 + i % 4)).collect();
        let s = Scheduler::new(4, 4);
        let mono = s.sweep_one_round(&EdgeCountProtocol, &graphs, None);
        for k in [1usize, 2, 5, 8] {
            let sharded = s.sweep_one_round_sharded(&EdgeCountProtocol, &graphs, k, None);
            assert_eq!(sharded.aggregate.ok, graphs.len());
            for (a, b) in sharded.reports.iter().zip(&mono.reports) {
                assert_eq!(a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap(), "k={k}");
                assert_eq!(
                    a.metrics.stats.total_message_bits,
                    b.metrics.stats.total_message_bits
                );
            }
        }
    }

    #[test]
    fn sharded_multi_round_sweep_matches_unsharded() {
        use referee_protocol::multiround::BoruvkaConnectivity;
        let graphs: Vec<_> =
            (0..24).map(|i| referee_graph::generators::grid(2 + i % 3, 2 + i % 5)).collect();
        let s = Scheduler::new(4, 4);
        let mono = s.sweep_multi_round(&BoruvkaConnectivity, &graphs, 64, None);
        for k in [1usize, 2, 4, 8] {
            let mut sharded =
                s.sweep_multi_round_sharded(&BoruvkaConnectivity, &graphs, k, 64, None);
            assert_eq!(sharded.aggregate.ok, graphs.len());
            for (a, b) in sharded.reports.iter().zip(&mono.reports) {
                assert_eq!(a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap(), "k={k}");
                assert_eq!(a.stats, b.stats, "k={k}");
            }
            // The protocol-aware reclassification path works unchanged:
            // every Borůvka verdict decodes in an honest sweep.
            sharded.reclassify_ok(|r| matches!(&r.outcome, Ok(Some(Ok(_)))));
            assert_eq!(sharded.aggregate.ok, graphs.len());
            assert_eq!(sharded.aggregate.sessions, graphs.len());
        }
    }

    #[test]
    fn degenerate_public_fields_are_clamped() {
        // The fields are public; zero values must neither hang (batch)
        // nor silently drop work (workers).
        let s = Scheduler { workers: 0, batch: 0, recorder: None };
        let out = s.run_indexed(10, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn recorder_sees_every_claimed_batch() {
        let recorder = Arc::new(FlightRecorder::with_capacity(1024));
        let s = Scheduler::new(4, 8).with_recorder(Arc::clone(&recorder));
        let out = s.run_indexed(50, |i| i);
        assert_eq!(out.len(), 50);
        let snap = recorder.snapshot();
        let starts: Vec<u64> = snap
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::TaskStart)
            .map(|e| e.payload)
            .collect();
        let ends: Vec<u64> = snap
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::TaskEnd)
            .map(|e| e.payload)
            .collect();
        // 50 jobs / batch 8 → 7 claims, each bracketed by a start/end
        // pair carrying the batch's lo index.
        let mut expect: Vec<u64> = (0..7).map(|b| b * 8).collect();
        let mut got_starts = starts.clone();
        got_starts.sort_unstable();
        let mut got_ends = ends;
        got_ends.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got_starts, expect);
        assert_eq!(got_ends, expect);
        // Worker endpoints live in the 0x300 lane.
        assert!(snap.events().iter().all(|e| (0x300..0x340).contains(&e.endpoint)));
    }
}
