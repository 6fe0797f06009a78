//! The referee services' benchmark: one workload per run, end-to-end
//! metrics on an untraced run (`--trace 0`), per-layer metrics on a
//! separate traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload verify-oneround --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every metric is printed by name with its unit, the results (with the
//! host fingerprint) are written to `perfbench/out/`, and the last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` in
//! this directory for the workloads and the metric definitions.

mod host;
mod inputs;
mod ladder;
mod live;
mod spans;

use inputs::{Inputs, Services, Workload, SERVICES};
use live::Epoch;
use referee_core::protocol::HistSnapshot;
use referee_core::wirenet::{Stage, WireSnapshot, TRACE_CAPACITY_ENV};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Dedicated set-up/tear-down cycles after the timed epochs; `setup_s`
/// is the median over these and every epoch's own set-up.
const SETUP_CYCLES: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

type Metric = (String, f64, &'static str);

/// Metrics in report order: `(name, value, unit)`. `metrics` are the
/// ones `BENCHMARK.json` lists for this mode; `unbounded` ones are
/// printed and stored with the results but carry no regression bound.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    unbounded: Vec<Metric>,
}

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The end-to-end figures of one pass (a run of back-to-back epochs).
struct Summary {
    sessions: usize,
    failed: usize,
    sessions_per_s: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    cpu_us_per_session: f64,
    wall_s: f64,
    cpu_s: f64,
}

/// Latency samples per percentile window: enough that a window's p99
/// has ten samples beyond it.
const WINDOW_SESSIONS: usize = 1000;

/// The median over windows of quantile `q`, where a window is the
/// fewest consecutive epochs holding [`WINDOW_SESSIONS`] samples (a
/// trailing short window joins the one before it). A stall that hits
/// one window moves its quantile, not the median of them.
fn windowed_quantile(epochs: &[Epoch], q: f64) -> f64 {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut open: Vec<f64> = Vec::new();
    for e in epochs {
        open.extend(&e.latency_us);
        if open.len() >= WINDOW_SESSIONS {
            windows.push(std::mem::take(&mut open));
        }
    }
    match windows.last_mut() {
        Some(last) => last.extend(open),
        None => windows.push(open),
    }
    median(
        windows
            .into_iter()
            .map(|mut w| {
                w.sort_by(f64::total_cmp);
                quantile(&w, q)
            })
            .collect(),
    )
}

fn summarize(epochs: &[Epoch]) -> Summary {
    let per_epoch = |f: fn(&Epoch) -> f64| median(epochs.iter().map(f).collect());
    Summary {
        sessions: epochs.iter().map(|e| e.latency_us.len()).sum(),
        failed: epochs.iter().map(|e| e.failed).sum(),
        sessions_per_s: per_epoch(|e| e.latency_us.len() as f64 / e.wall.as_secs_f64()),
        latency_p50_us: windowed_quantile(epochs, 0.50),
        latency_p99_us: windowed_quantile(epochs, 0.99),
        cpu_us_per_session: per_epoch(|e| {
            e.cpu.as_secs_f64() * 1e6 / e.latency_us.len() as f64
        }),
        wall_s: epochs.iter().map(|e| e.wall.as_secs_f64()).sum(),
        cpu_s: epochs.iter().map(|e| e.cpu.as_secs_f64()).sum(),
    }
}

/// Median over epochs of (median latency of the last tenth of the
/// sequence ÷ that of the first tenth): above 1 when per-session cost
/// grows with sessions already served.
fn latency_drift(epochs: &[Epoch]) -> f64 {
    median(
        epochs
            .iter()
            .map(|e| {
                let tenth = (e.latency_us.len() / 10).max(1);
                let first = median(e.latency_us[..tenth].to_vec());
                let last = median(e.latency_us[e.latency_us.len() - tenth..].to_vec());
                last / first
            })
            .collect(),
    )
}

fn merged_stage(snaps: impl Iterator<Item = WireSnapshot>, stage: Stage) -> HistSnapshot {
    let mut h = HistSnapshot::new();
    for s in snaps {
        h.merge(s.stage(stage));
    }
    h
}

fn end_to_end(report: &mut Report, s: &Summary, rss_peak_mib: f64, setups: Vec<f64>) {
    report.add("cpu_us_per_session", s.cpu_us_per_session, "us");
    report.add("rss_peak_mib", rss_peak_mib, "MiB");
    report.add("setup_s", median(setups), "s");
    // Wall-clock figures of a closed loop follow the host's scheduling
    // latency: on a shared 2-core host their spread between runs
    // exceeded the largest bound the benchmark may set, so they are
    // reported without one.
    report.unbounded.push(("sessions_per_s".into(), s.sessions_per_s, "sess/s"));
    report.unbounded.push(("latency_p50_us".into(), s.latency_p50_us, "us"));
    report.unbounded.push(("latency_p99_us".into(), s.latency_p99_us, "us"));
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median over epochs of `FleetServer::stitched_trace()` length.
fn retained_events(epochs: &[Epoch]) -> f64 {
    median(epochs.iter().filter_map(|e| e.trace_events).map(|v| v as f64).collect())
}

/// The placement hop, from live passes of a stack whose shards sit on
/// shard hosts: `(untraced, recorder off)`. Zero where the workload runs
/// no such pass.
fn placement_layer(report: &mut Report, passes: Option<(&[Epoch], &[Epoch])>) {
    let (on, off) = passes.unwrap_or((&[], &[]));
    let (s, s_off) = (summarize(on), summarize(off));
    report.add("wirenet.placement.sessions_per_s", s.sessions_per_s, "sess/s");
    report.add("wirenet.placement.latency_p50_us", s.latency_p50_us, "us");
    report.add("wirenet.placement.cpu_us_per_session", s.cpu_us_per_session, "us");
    let host_wait =
        merged_stage(on.iter().flat_map(|e| e.hosts.iter().copied()), Stage::UplinksComplete);
    report.add("wirenet.placement.host_uplinks_complete_p50_us", host_wait.p50() as f64, "us");
    let sum = |f: fn(&WireSnapshot) -> u64| on.iter().map(|e| f(&e.server)).sum::<u64>() as f64;
    report.add("wirenet.placement.replayed_frames", sum(|s| s.replayed_frames), "frames");
    report.add("wirenet.placement.shard_reconnects", sum(|s| s.shard_reconnects), "count");
    report.add("wirenet.placement.remote_events_retained", retained_events(on), "events");
    report.add(
        "wirenet.placement.recorder_off_speedup",
        ratio(s.cpu_us_per_session, s_off.cpu_us_per_session),
        "ratio",
    );
    report.add("wirenet.placement.latency_drift", latency_drift(on), "ratio");
}

/// Per-layer metrics from the live passes of a traced run and the
/// ladder.
fn per_layer(
    report: &mut Report,
    inputs: &Inputs,
    ladder: &ladder::Ladder,
    untraced: &[Epoch],
    traced: &[Epoch],
    recorder_off: &[Epoch],
    placement: Option<(&[Epoch], &[Epoch])>,
) {
    let base = summarize(untraced);
    let n = base.sessions as f64;
    let sum = |f: &dyn Fn(&Epoch) -> u64| untraced.iter().map(f).sum::<u64>() as f64;
    let hosts =
        |f: fn(&WireSnapshot) -> u64| move |e: &Epoch| e.hosts.iter().map(f).sum::<u64>();

    // protocol
    report.add("protocol.local_phase_us", ladder.node_us, "us");
    report.add("protocol.referee_us", ladder.referee_us, "us");
    for (name, us) in SERVICES.iter().zip(ladder.replay_us) {
        report.add(format!("protocol.replay_us.{name}"), us, "us");
    }
    report.add("protocol.max_uplink_bits", ladder.max_uplink_bits as f64, "bits");
    // simnet
    report.add("simnet.session_us", ladder.simnet_us, "us");
    // wirenet.frame / auth
    report.add("wirenet.frame.encode_ns", ladder.encode_ns_per_frame, "ns");
    report.add("wirenet.frame.decode_ns", ladder.decode_ns_per_frame, "ns");
    report.add("wirenet.frame.frames_per_session", ladder.frames_per_session, "frames");
    report.add("wirenet.frame.bytes_per_session", ladder.bytes_per_session, "bytes");
    // wirenet.reactor / poll
    let client_bytes = sum(&|e| e.client.bytes_sent + e.client.bytes_received);
    report.add("wirenet.reactor.client_bytes_per_session", client_bytes / n, "bytes");
    let reads = sum(&|e| e.client.read_syscalls + e.server.read_syscalls)
        + sum(&hosts(|h| h.read_syscalls));
    let writes = sum(&|e| e.client.write_syscalls + e.server.write_syscalls)
        + sum(&hosts(|h| h.write_syscalls));
    report.add("wirenet.reactor.read_syscalls_per_session", reads / n, "syscalls");
    report.add("wirenet.reactor.write_syscalls_per_session", writes / n, "syscalls");
    report.add(
        "wirenet.reactor.client_frames_per_write",
        ratio(sum(&|e| e.client.frames_sent), sum(&|e| e.client.write_syscalls)),
        "frames",
    );
    report.add(
        "wirenet.reactor.server_frames_per_write",
        ratio(sum(&|e| e.server.frames_sent), sum(&|e| e.server.write_syscalls)),
        "frames",
    );
    let idle = 1.0 - base.cpu_s / (base.wall_s * host::nproc() as f64);
    report.add("process.idle_share", idle, "ratio");
    // wirenet.shard
    report.add(
        "wirenet.shard.partial_frames_per_session",
        (sum(&|e| e.server.partial_frames) + sum(&hosts(|h| h.partial_frames))) / n,
        "frames",
    );
    for stage in [Stage::PartialMerge, Stage::RefereeStep, Stage::Verdict] {
        let h = merged_stage(untraced.iter().map(|e| e.server), stage);
        report.add(format!("wirenet.shard.{}_p50_us", stage.name()), h.p50() as f64, "us");
    }
    // wirenet.multiround / core.catalog
    report.add("wirenet.multiround.rounds_per_session", ladder.rounds_per_session, "rounds");
    report.add(
        "wirenet.multiround.downlink_frames_per_session",
        sum(&|e| e.server.downlink_frames) / n,
        "frames",
    );
    for (svc, name) in SERVICES.iter().enumerate() {
        let p50 = match inputs {
            Inputs::Catalog(cases) => median(
                untraced
                    .iter()
                    .flat_map(|e| {
                        e.latency_us.iter().zip(cases).filter(|(_, c)| c.service == svc)
                    })
                    .map(|(l, _)| *l)
                    .collect(),
            ),
            Inputs::OneRound(_) => 0.0,
        };
        report.add(format!("catalog.latency_p50_us.{name}"), p50, "us");
    }
    placement_layer(report, placement);
    // trace and state growth
    report.add("trace.remote_events_retained", retained_events(untraced), "events");
    let off = summarize(recorder_off);
    report.add(
        "trace.recorder_off_speedup",
        ratio(base.cpu_us_per_session, off.cpu_us_per_session),
        "ratio",
    );
    report.add("client.latency_p99_us", base.latency_p99_us, "us");
    report.add("client.latency_drift", latency_drift(untraced), "ratio");
    // Memory a server leaves behind after it stops: the process's peak
    // grows by this much per fresh stack served.
    let first = untraced.first().map_or(0.0, |e| e.rss_peak_mib);
    let last = untraced.last().map_or(0.0, |e| e.rss_peak_mib);
    report.add(
        "process.rss_growth_mib_per_epoch",
        (last - first) / (untraced.len().max(2) - 1) as f64,
        "MiB",
    );
    // the ladder's ledger
    let live_cpu = base.cpu_us_per_session;
    report.add("ladder.protocol_us", ladder.protocol_us, "us");
    report.add("ladder.simnet_self_us", ladder.simnet_us - ladder.protocol_us, "us");
    report.add("ladder.frame_us", ladder.frame_us, "us");
    report.add("ladder.wire_residual_us", live_cpu - ladder.simnet_us - ladder.frame_us, "us");
    report.add("ledger.coverage", (ladder.simnet_us + ladder.frame_us) / live_cpu, "ratio");
    // the benchmark's own spans
    let spans: Vec<spans::Span> = traced.iter().flat_map(|e| e.spans.iter().cloned()).collect();
    let self_ns = spans::self_ns(&spans);
    let traced = summarize(traced);
    for name in [
        "session",
        "protocol.local_phase",
        "wirenet.verify_session",
        "wirenet.run_multiround_session_as",
    ] {
        let us = self_ns.get(name).map_or(0.0, |&ns| ns as f64 / 1e3 / traced.sessions as f64);
        report.add(format!("span.self_us.{name}"), us, "us");
    }
    report.add(
        "span.overhead_cpu_ratio",
        traced.cpu_us_per_session / base.cpu_us_per_session,
        "ratio",
    );
    report.add("span.traced_latency_p50_us", traced.latency_p50_us, "us");
    report.add("span.untraced_latency_p50_us", base.latency_p50_us, "us");
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_str(name), json_str(unit))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> std::io::Result<(bool, usize, usize, Report)> {
    let fingerprint = host::fingerprint();
    let host_line: Vec<String> = fingerprint.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# host: {}", host_line.join(" "));
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let services = Services::new();
    let inputs = inputs::generate(args.workload, args.seed, &services);
    let mut report = Report::default();
    let (correct, attempted, failed);
    let mut span_log = Vec::new();
    if !args.trace {
        let epochs =
            live::run_pass(args.workload, &inputs, &services, args.seconds, false, None)?;
        let mut setups: Vec<f64> = epochs.iter().map(|e| e.setup.as_secs_f64()).collect();
        for _ in 0..SETUP_CYCLES {
            setups.push(live::setup_once(args.workload)?.as_secs_f64());
        }
        let s = summarize(&epochs);
        println!(
            "# {} epochs of {} sessions, {} sessions in {:.2} s",
            epochs.len(),
            inputs.len(),
            s.sessions,
            s.wall_s
        );
        end_to_end(&mut report, &s, epochs[0].rss_peak_mib, setups);
        (attempted, failed) = (s.sessions, s.failed);
        correct = failed == 0;
    } else {
        // Each live pass gets a third of `--seconds`.
        let share = args.seconds / 3.0;
        let origin = Instant::now();
        let mut log = spans::SpanLog::new(origin, 0, true);
        let ladder = ladder::run(&inputs, &services, &mut log);
        span_log = log.spans;
        let pass = |workload, trace_events, spans| {
            live::run_pass(workload, &inputs, &services, share, trace_events, spans)
        };
        // `verify-oneround` also serves its sequence through shard hosts:
        // the difference is the placement hop, measured against its
        // control in the same run.
        let hop = args.workload == Workload::VerifyOneRound;
        let untraced = pass(args.workload, true, None)?;
        let traced = pass(args.workload, false, Some(origin))?;
        let hop_on =
            if hop { pass(Workload::RemotePlacement, true, None)? } else { Vec::new() };
        // No other thread is alive here: every server, host and client
        // of the passes above has been stopped and joined.
        std::env::set_var(TRACE_CAPACITY_ENV, "0");
        let recorder_off = pass(args.workload, false, None);
        let hop_off =
            if hop { pass(Workload::RemotePlacement, false, None) } else { Ok(Vec::new()) };
        std::env::remove_var(TRACE_CAPACITY_ENV);
        let (recorder_off, hop_off) = (recorder_off?, hop_off?);
        let placement = match args.workload {
            Workload::VerifyOneRound => Some((&hop_on[..], &hop_off[..])),
            Workload::RemotePlacement => Some((&untraced[..], &recorder_off[..])),
            Workload::CatalogMultiround => None,
        };
        per_layer(&mut report, &inputs, &ladder, &untraced, &traced, &recorder_off, placement);
        span_log.extend(traced.iter().flat_map(|e| e.spans.iter().cloned()));
        let passes =
            [&untraced, &traced, &recorder_off, &hop_on, &hop_off].map(|p| summarize(p));
        attempted = passes.iter().map(|s| s.sessions).sum();
        failed = passes.iter().map(|s| s.failed).sum::<usize>();
        println!(
            "# ladder: {} sessions per rung, {} mismatched verdicts or frames",
            ladder.sessions, ladder.mismatches
        );
        correct = failed == 0 && ladder.mismatches == 0;
    }

    // Never 0 is a condition of a bounded metric, and a correct run has
    // no failures, so the failure share is reported without a bound.
    report.unbounded.push((
        "failed_share".into(),
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    for (name, value, unit) in &report.metrics {
        println!("{name:<52} {value:>16.4} {unit}");
    }
    println!("# reported without a regression bound:");
    for (name, value, unit) in &report.unbounded {
        println!("{name:<52} {value:>16.4} {unit}");
    }
    println!("# {failed} of {attempted} sessions failed");
    let out_dir = Path::new("perfbench/out");
    std::fs::create_dir_all(out_dir)?;
    let stem =
        format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    if !span_log.is_empty() {
        spans::write_chrome(&out_dir.join(format!("{stem}.spans.json")), &span_log)?;
    }
    let fp: Vec<String> =
        fingerprint.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    let result = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{{}}}, \
         \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}, \
         \"unbounded\": {}}}\n",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fp.join(", "),
        metrics_json(&report.metrics),
        metrics_json(&report.unbounded)
    );
    std::fs::write(out_dir.join(format!("{stem}.json")), result)?;
    Ok((correct, attempted, failed, report))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, report)) => {
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
                metrics_json(&report.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
