//! The simulator: runs a one-round protocol on a concrete graph.
//!
//! The paper distinguishes the *communication time complexity* (number of
//! rounds — here always one) from the *local time complexity* (the cost of
//! the local computations); [`RunStats`] reports both wall times plus the
//! quantity the frugality definition bounds: the maximum message size in
//! bits, `|Γ^l(G)| = max_i |Γ^l_n(i, N_G(i))|`.
//!
//! The local phase is embarrassingly parallel (each node computes from its
//! own view only — the model guarantees it), so it fans out across threads
//! with `std::thread::scope` when the graph is large enough to pay for it.

use crate::model::{NodeView, OneRoundProtocol};
use crate::Message;
use referee_graph::LabelledGraph;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Below this many vertices the local phase runs sequentially (thread
/// spawn overhead dominates under ~10k cheap local calls).
const DEFAULT_PARALLEL_THRESHOLD: usize = 2048;

static PARALLEL_THRESHOLD: AtomicUsize = AtomicUsize::new(DEFAULT_PARALLEL_THRESHOLD);

/// The current local-phase parallelism threshold: simulators fan the
/// local phase out across threads only for graphs with at least this
/// many vertices.
///
/// It is 2048 until a [`set_parallel_threshold`] call changes it.
/// Callers that drive *many* protocol runs concurrently (e.g. the
/// `simnet` scheduler) set this to `usize::MAX` so per-run parallelism
/// does not oversubscribe their worker pool.
pub fn parallel_threshold() -> usize {
    PARALLEL_THRESHOLD.load(Ordering::Relaxed)
}

/// Override the local-phase parallelism threshold process-wide.
/// `usize::MAX` disables nested parallelism entirely.
pub fn set_parallel_threshold(threshold: usize) {
    PARALLEL_THRESHOLD.store(threshold, Ordering::Relaxed);
}

/// Measurements from one protocol run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Graph size.
    pub n: usize,
    /// `max_i |m_i|` in bits — the frugality quantity.
    pub max_message_bits: usize,
    /// `Σ_i |m_i|` in bits.
    pub total_message_bits: usize,
    /// Wall time of the local phase (all nodes).
    pub local_seconds: f64,
    /// Wall time of the referee's global phase.
    pub global_seconds: f64,
}

impl RunStats {
    /// `max_message_bits / log₂(n)` — the empirical frugality constant
    /// for this run.
    ///
    /// For `n ≤ 1` the divisor is degenerate (0 or −∞), so the ratio is
    /// measured against 1 bit — the minimum width [`crate::bits_for`]
    /// ever produces — keeping it **finite** on single-node and empty
    /// graphs (the old `f64::INFINITY` sentinel tripped `ratio < c`
    /// assertions in sweeps that included tiny graphs; the same fix as
    /// [`MultiRoundStats::frugality_ratio`](crate::multiround::MultiRoundStats::frugality_ratio)).
    pub fn frugality_ratio(&self) -> f64 {
        if self.n <= 1 {
            return self.max_message_bits as f64;
        }
        self.max_message_bits as f64 / (self.n as f64).log2()
    }
}

/// A protocol output together with its measurements.
#[derive(Debug, Clone)]
pub struct RunOutcome<O> {
    /// The referee's output `Γ(G)`.
    pub output: O,
    /// Stats of the run.
    pub stats: RunStats,
}

/// Compute the full message vector `Γ^l(G)` (parallel when worthwhile).
pub fn local_phase<P>(protocol: &P, g: &LabelledGraph) -> Vec<Message>
where
    P: OneRoundProtocol + Sync,
{
    let n = g.n();
    if n < parallel_threshold() {
        return (1..=n as u32)
            .map(|v| protocol.local(NodeView::new(n, v, g.neighbourhood(v))))
            .collect();
    }
    let threads = std::thread::available_parallelism().map_or(4, |p| p.get()).min(32);
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Message> = vec![Message::empty(); n];
    std::thread::scope(|scope| {
        for (t, slot) in out.chunks_mut(chunk).enumerate() {
            let start = t * chunk;
            scope.spawn(move || {
                for (off, m) in slot.iter_mut().enumerate() {
                    let v = (start + off + 1) as u32;
                    *m = protocol.local(NodeView::new(n, v, g.neighbourhood(v)));
                }
            });
        }
    });
    out
}

/// Run `protocol` on `g`: local phase at every node, then the referee's
/// global phase on the collected message vector.
pub fn run_protocol<P>(protocol: &P, g: &LabelledGraph) -> RunOutcome<P::Output>
where
    P: OneRoundProtocol + Sync,
{
    let n = g.n();
    let t0 = Instant::now();
    let messages = local_phase(protocol, g);
    let local_seconds = t0.elapsed().as_secs_f64();

    let max_message_bits = messages.iter().map(Message::len_bits).max().unwrap_or(0);
    let total_message_bits = messages.iter().map(Message::len_bits).sum();

    let t1 = Instant::now();
    let output = protocol.global(n, &messages);
    let global_seconds = t1.elapsed().as_secs_f64();

    RunOutcome {
        output,
        stats: RunStats {
            n,
            max_message_bits,
            total_message_bits,
            local_seconds,
            global_seconds,
        },
    }
}

/// Assemble a message vector from **asynchronous arrivals**.
///
/// §I.B: "since we only consider a single round of communication, the
/// network may be asynchronous. Indeed, the referee can wait until it has
/// received one message from every vertex (this only requires that the
/// referee knows the size of the network)." This function is that wait:
/// it accepts `(sender, message)` pairs in *any* order and produces the
/// ID-indexed vector `Γ^l(G)`, rejecting duplicates, unknown senders and
/// missing nodes.
///
/// Since the sharded-referee refactor this is literally a one-shard run
/// of [`crate::shard::RefereeShard`] — splitting the same arrivals
/// across any shard count and merging the
/// [`PartialState`](crate::shard::PartialState)s in any order reproduces
/// this function's result bit for bit (pinned by property tests). The
/// error verdict is therefore **canonical** (independent of arrival
/// order): smallest out-of-range sender, else smallest duplicated
/// sender, else smallest missing node. Canonicality is bought by
/// ingesting the *whole* stream before judging (the old code failed on
/// the first fault in arrival order, which no sharded assembly can
/// reproduce); faulty streams cost a full pass, honest ones an ordered
/// map instead of a flat vector — both invisible next to the protocol
/// work they feed.
pub fn assemble_from_arrivals(
    n: usize,
    arrivals: impl IntoIterator<Item = (referee_graph::VertexId, Message)>,
) -> Result<Vec<Message>, crate::DecodeError> {
    let mut shard = crate::shard::RefereeShard::new(n, 1, 0);
    for (sender, msg) in arrivals {
        // A single shard owns every ID, so ingest cannot see a routing
        // fault; any duplicate — identical or not — is rejected, which
        // is the referee's contract (exactly one message per node).
        if let crate::shard::Arrival::Duplicate { .. } = shard.ingest(sender, msg)? {
            shard.note_duplicate(sender);
        }
    }
    shard.into_partial().finish()
}

/// Run a protocol with messages delivered in an arbitrary order
/// (deterministic given `order`, which must be a permutation of `1..=n`).
/// The output must equal the synchronous run — a theorem of the model,
/// pinned by tests.
pub fn run_protocol_async<P>(
    protocol: &P,
    g: &LabelledGraph,
    order: &[referee_graph::VertexId],
) -> Result<P::Output, crate::DecodeError>
where
    P: OneRoundProtocol + Sync,
{
    let n = g.n();
    let messages = local_phase(protocol, g);
    let arrivals = order.iter().map(|&v| (v, messages[(v - 1) as usize].clone()));
    let assembled = assemble_from_arrivals(n, arrivals)?;
    Ok(protocol.global(n, &assembled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitWriter;
    use crate::bits_for;

    /// Node sends its own ID; referee returns the sorted list (checks
    /// message ordering and parallel/sequential agreement).
    struct Echo;

    impl OneRoundProtocol for Echo {
        type Output = Vec<u64>;

        fn name(&self) -> String {
            "echo".into()
        }

        fn local(&self, view: NodeView<'_>) -> Message {
            let mut w = BitWriter::new();
            w.write_bits(view.id as u64, bits_for(view.n));
            Message::from_writer(w)
        }

        fn global(&self, n: usize, messages: &[Message]) -> Vec<u64> {
            messages.iter().map(|m| m.reader().read_bits(bits_for(n)).unwrap()).collect()
        }
    }

    #[test]
    fn message_vector_is_id_ordered() {
        let g = referee_graph::generators::path(10);
        let out = run_protocol(&Echo, &g);
        assert_eq!(out.output, (1..=10u64).collect::<Vec<_>>());
        assert_eq!(out.stats.n, 10);
        assert_eq!(out.stats.max_message_bits, bits_for(10) as usize);
        assert_eq!(out.stats.total_message_bits, 10 * bits_for(10) as usize);
    }

    #[test]
    fn parallel_path_agrees_with_sequential() {
        // Large enough to trigger the threaded path.
        let g = referee_graph::generators::path(3000);
        let par = local_phase(&Echo, &g);
        let seq: Vec<Message> = (1..=3000u32)
            .map(|v| Echo.local(NodeView::new(3000, v, g.neighbourhood(v))))
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn frugality_ratio() {
        let g = referee_graph::generators::path(1024);
        let out = run_protocol(&Echo, &g);
        // 11 bits per message on n = 1024 → ratio 1.1
        assert!((out.stats.frugality_ratio() - 1.1).abs() < 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g = referee_graph::LabelledGraph::new(0);
        let out = run_protocol(&Echo, &g);
        assert!(out.output.is_empty());
        assert_eq!(out.stats.max_message_bits, 0);
    }

    #[test]
    fn tiny_graphs_report_finite_frugality_ratios() {
        // n ≤ 1 used to return f64::INFINITY (the sentinel the
        // multi-round stats shared); both now measure against 1 bit.
        let empty = run_protocol(&Echo, &referee_graph::LabelledGraph::new(0));
        assert_eq!(empty.stats.frugality_ratio(), 0.0);
        let single = run_protocol(&Echo, &referee_graph::LabelledGraph::new(1));
        let ratio = single.stats.frugality_ratio();
        assert!(ratio.is_finite() && ratio >= 1.0, "ratio {ratio}");
    }

    #[test]
    fn async_delivery_is_order_invariant() {
        // §I.B: one round ⇒ asynchrony is harmless. Reversed and shuffled
        // arrival orders give the synchronous output.
        let g = referee_graph::generators::petersen();
        let sync = run_protocol(&Echo, &g).output;
        let reversed: Vec<u32> = (1..=10u32).rev().collect();
        assert_eq!(run_protocol_async(&Echo, &g, &reversed).unwrap(), sync);
        let shuffled = [3u32, 7, 1, 10, 5, 2, 9, 4, 8, 6];
        assert_eq!(run_protocol_async(&Echo, &g, &shuffled).unwrap(), sync);
    }

    #[test]
    fn assemble_rejects_bad_arrivals() {
        use crate::DecodeError;
        let m = Message::empty();
        // duplicate sender
        let dup = assemble_from_arrivals(2, [(1, m.clone()), (1, m.clone())]);
        assert!(matches!(dup, Err(DecodeError::Inconsistent(_))));
        // missing sender
        let missing = assemble_from_arrivals(2, [(1, m.clone())]);
        assert!(matches!(missing, Err(DecodeError::Inconsistent(_))));
        // unknown sender
        let unknown = assemble_from_arrivals(2, [(1, m.clone()), (3, m.clone())]);
        assert!(matches!(unknown, Err(DecodeError::OutOfRange(_))));
        // complete set works
        let ok = assemble_from_arrivals(2, [(2, m.clone()), (1, m.clone())]);
        assert_eq!(ok.unwrap().len(), 2);
    }
}
