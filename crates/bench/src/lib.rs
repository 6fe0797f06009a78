//! Experiment harness for the `referee-one-round` reproduction.
//!
//! The paper (a theory paper) has two figures — both gadget constructions
//! — and no measured tables; `EXPERIMENTS.md` at the repository root
//! defines the experiment grid E1–E25 that substitutes for them. Each
//! submodule of [`experiments`] computes one experiment's rows; the
//! `exp_*` binaries in `src/bin/` print them, and the Criterion benches in
//! `benches/` measure the runtime-scaling claims (local time O(n),
//! reconstruction O(n²), table-vs-Newton decoding).
//!
//! Everything here is deterministic under fixed seeds so `EXPERIMENTS.md`
//! can quote exact numbers.

pub mod experiments;

use std::env::VarError;

/// Render aligned rows (first row = header) as a markdown-ish table.
pub fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        out.push('|');
        for (i, w) in widths.iter().enumerate() {
            let cell = row.get(i).map(String::as_str).unwrap_or("");
            out.push_str(&format!(" {cell:>w$} |"));
        }
        out.push('\n');
        if ri == 0 {
            out.push('|');
            for w in &widths {
                out.push_str(&format!("{}|", "-".repeat(w + 2)));
            }
            out.push('\n');
        }
    }
    out
}

/// Print a section header for the experiment binaries.
pub fn section(title: &str) {
    println!("\n### {title}\n");
}

/// Tail-latency summary riding along with a throughput number: the
/// p50/p99/p999 bucket bounds (microseconds) of a per-session latency
/// histogram. Log₂-bucketed upstream, so each value overestimates the
/// true percentile by less than 2× — coarse, but stable across runs and
/// cheap enough to record on every session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Median session latency, µs (bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile session latency, µs (bucket upper bound).
    pub p99_us: u64,
    /// 99.9th-percentile session latency, µs (bucket upper bound).
    pub p999_us: u64,
}

impl Percentiles {
    /// Summarise a latency histogram; `None` when it holds no samples
    /// (so empty sweeps keep the old JSON shape).
    pub fn from_hist(h: &referee_protocol::HistSnapshot) -> Option<Percentiles> {
        if h.count() == 0 {
            None
        } else {
            Some(Percentiles { p50_us: h.p50(), p99_us: h.p99(), p999_us: h.p999() })
        }
    }
}

/// One machine-readable throughput measurement for the bench
/// trajectory: a backend (`"simnet"`, `"wirenet"`, `"remote"`), a sweep
/// axis value (shard count for the shard sweeps, connection count for
/// the fleet sweeps — the axis is named in the JSON), and the measured
/// sessions per second.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Which backend produced the number.
    pub backend: String,
    /// The sweep's axis value (shards or conns, named per bench).
    pub shards: usize,
    /// Verified sessions per wall-clock second.
    pub sessions_per_sec: f64,
    /// Optional tail-latency summary. `None` (the [`BenchRecord::new`]
    /// default) keeps the emitted JSON byte-identical to the historic
    /// format, so old trajectory files stay comparable.
    pub percentiles: Option<Percentiles>,
    /// Extra numeric measurements emitted as additional JSON keys (in
    /// order). Empty by default, which — like `percentiles: None` —
    /// keeps the historic byte format. `exp_catalog` uses this for
    /// round/bit complexity per (service, family) cell.
    pub extras: Vec<(String, f64)>,
}

impl BenchRecord {
    /// Convenience constructor.
    pub fn new(backend: &str, shards: usize, sessions_per_sec: f64) -> BenchRecord {
        BenchRecord {
            backend: backend.into(),
            shards,
            sessions_per_sec,
            percentiles: None,
            extras: Vec::new(),
        }
    }

    /// Attach a tail-latency summary (builder style); `None` is a no-op
    /// so callers can pass [`Percentiles::from_hist`] straight through.
    pub fn with_percentiles(mut self, p: Option<Percentiles>) -> BenchRecord {
        self.percentiles = p;
        self
    }

    /// Append an extra numeric measurement (builder style). Keys must
    /// be plain identifiers — they are emitted into JSON unescaped.
    pub fn with_extra(mut self, key: &str, value: f64) -> BenchRecord {
        debug_assert!(
            key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "extra key {key:?} must be a plain identifier"
        );
        self.extras.push((key.to_string(), value));
        self
    }
}

/// Serialize bench records as the `BENCH_{name}.json` document the
/// bench trajectory accumulates (hand-rolled writer — the offline build
/// has no serde). Format, pinned by tests:
///
/// ```json
/// {"bench":"exp_shard","unit":"sessions_per_second","results":[
///   {"backend":"simnet","shards":1,"sessions_per_sec":12345.6}, …]}
/// ```
pub fn bench_json(name: &str, records: &[BenchRecord]) -> String {
    bench_json_axis(name, "shards", records)
}

/// Like [`bench_json`], with the sweep axis named explicitly — a bench
/// whose independent variable is not a shard count (e.g. `exp_wirenet`
/// sweeping connection pools) names its axis (`"conns"`) instead of
/// mislabelling it.
pub fn bench_json_axis(name: &str, axis: &str, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"bench\":\"{name}\",\"unit\":\"sessions_per_second\",\"results\":["
    ));
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"backend\":\"{}\",\"{axis}\":{},\"sessions_per_sec\":{:.1}",
            r.backend, r.shards, r.sessions_per_sec
        ));
        for (key, value) in &r.extras {
            out.push_str(&format!(",\"{key}\":{value:.1}"));
        }
        if let Some(p) = r.percentiles {
            out.push_str(&format!(
                ",\"p50_us\":{},\"p99_us\":{},\"p999_us\":{}",
                p.p50_us, p.p99_us, p.p999_us
            ));
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Write `BENCH_{name}.json` into `dir` and return its path.
pub fn write_bench_json_in(
    dir: &std::path::Path,
    name: &str,
    records: &[BenchRecord],
) -> std::io::Result<std::path::PathBuf> {
    write_bench_json_axis_in(dir, name, "shards", records)
}

/// The one place the `BENCH_{name}.json` path and write live: every
/// other writer delegates here, mirroring how [`bench_json`] delegates
/// to [`bench_json_axis`].
pub fn write_bench_json_axis_in(
    dir: &std::path::Path,
    name: &str,
    axis: &str,
    records: &[BenchRecord],
) -> std::io::Result<std::path::PathBuf> {
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, bench_json_axis(name, axis, records))?;
    Ok(path)
}

/// [`write_bench_json`] with an explicit axis name (see
/// [`bench_json_axis`]).
pub fn write_bench_json_axis(
    name: &str,
    axis: &str,
    records: &[BenchRecord],
) -> std::io::Result<std::path::PathBuf> {
    write_bench_json_axis_in(std::path::Path::new("."), name, axis, records)
}

/// Write `BENCH_{name}.json` into the current directory (the repo root
/// under `cargo run`) and return its path.
pub fn write_bench_json(
    name: &str,
    records: &[BenchRecord],
) -> std::io::Result<std::path::PathBuf> {
    write_bench_json_in(std::path::Path::new("."), name, records)
}

/// Environment variable arming [`SloCheck::p99_us`].
const SLO_P99_ENV: &str = "REFEREE_SLO_P99_US";

/// Environment variable arming [`SloCheck::p999_us`].
const SLO_P999_ENV: &str = "REFEREE_SLO_P999_US";

/// A tail-latency SLO assertion for soak runs: ceilings (µs) on the
/// p99 and/or p999 session latency. Disabled bounds are `None`, so a
/// default `SloCheck` passes everything — soak examples call
/// [`SloCheck::from_env`] and get a no-op unless CI opts in by setting
/// `REFEREE_SLO_P99_US` / `REFEREE_SLO_P999_US`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SloCheck {
    /// Ceiling on p99 session latency, µs. `None` = unchecked.
    pub p99_us: Option<u64>,
    /// Ceiling on p999 session latency, µs. `None` = unchecked.
    pub p999_us: Option<u64>,
}

impl SloCheck {
    /// Build from `REFEREE_SLO_P99_US` / `REFEREE_SLO_P999_US`.
    /// An unset or empty variable leaves that bound disabled; any other
    /// value must be a `u64` microsecond count.
    ///
    /// # Panics
    ///
    /// If a variable is set to anything else (`5s`, a non-Unicode
    /// value, ...): a typo must fail the gate, not disarm it.
    pub fn from_env() -> SloCheck {
        SloCheck::from_values(std::env::var(SLO_P99_ENV), std::env::var(SLO_P999_ENV))
    }

    /// [`SloCheck::from_env`] over the two lookup results, passed as
    /// parameters so unit tests never mutate the process environment.
    fn from_values(p99: Result<String, VarError>, p999: Result<String, VarError>) -> SloCheck {
        let bound = |var: &str, value: Result<String, VarError>| match value {
            Err(VarError::NotPresent) => None,
            Ok(v) if v.is_empty() => None,
            Ok(v) => Some(
                v.parse::<u64>()
                    .unwrap_or_else(|e| panic!("{var}={v:?} is not a microsecond count: {e}")),
            ),
            Err(VarError::NotUnicode(v)) => panic!("{var}={v:?} is not valid Unicode"),
        };
        SloCheck { p99_us: bound(SLO_P99_ENV, p99), p999_us: bound(SLO_P999_ENV, p999) }
    }

    /// Whether any bound is armed.
    pub fn is_enabled(&self) -> bool {
        self.p99_us.is_some() || self.p999_us.is_some()
    }

    /// Check measured percentiles against the armed bounds. `Ok(())`
    /// when every armed bound holds (or none are armed); `Err` carries
    /// a human-readable violation report naming `label`.
    pub fn check(&self, label: &str, p: &Percentiles) -> Result<(), String> {
        let mut violations = Vec::new();
        if let Some(cap) = self.p99_us {
            if p.p99_us > cap {
                violations.push(format!("p99 {}us > SLO {}us", p.p99_us, cap));
            }
        }
        if let Some(cap) = self.p999_us {
            if p.p999_us > cap {
                violations.push(format!("p999 {}us > SLO {}us", p.p999_us, cap));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(format!("SLO violation in {label}: {}", violations.join(", ")))
        }
    }

    /// [`SloCheck::check`], panicking on violation — the form soak
    /// examples use so a tail-latency regression fails CI loudly.
    pub fn enforce(&self, label: &str, p: &Percentiles) {
        if let Err(e) = self.check(label, p) {
            panic!("{e}");
        }
        if self.is_enabled() {
            println!(
                "SLO ok for {label}: p99 {}us, p999 {}us within bounds",
                p.p99_us, p.p999_us
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let rows = vec![
            vec!["n".into(), "bits".into()],
            vec!["8".into(), "24".into()],
            vec!["1024".into(), "77".into()],
        ];
        let t = render_table(&rows);
        assert!(t.contains("|    n | bits |"));
        assert!(t.lines().count() == 4);
        let widths: Vec<usize> = t.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "aligned: {t}");
    }

    #[test]
    fn empty_table() {
        assert_eq!(render_table(&[]), "");
    }

    #[test]
    fn bench_json_format_is_stable() {
        let records =
            [BenchRecord::new("simnet", 1, 70000.049), BenchRecord::new("wirenet", 8, 5234.0)];
        let json = bench_json("exp_shard", &records);
        assert_eq!(
            json,
            "{\"bench\":\"exp_shard\",\"unit\":\"sessions_per_second\",\"results\":[\
             {\"backend\":\"simnet\",\"shards\":1,\"sessions_per_sec\":70000.0},\
             {\"backend\":\"wirenet\",\"shards\":8,\"sessions_per_sec\":5234.0}]}\n"
        );
    }

    #[test]
    fn bench_json_axis_renames_the_axis_only() {
        let records = [BenchRecord::new("wirenet", 8, 7700.0)];
        assert_eq!(
            bench_json_axis("exp_wirenet", "conns", &records),
            "{\"bench\":\"exp_wirenet\",\"unit\":\"sessions_per_second\",\"results\":[\
             {\"backend\":\"wirenet\",\"conns\":8,\"sessions_per_sec\":7700.0}]}\n"
        );
        // The default axis stays "shards" — the pinned historic format.
        assert_eq!(bench_json("x", &records), bench_json_axis("x", "shards", &records));
    }

    #[test]
    fn bench_json_percentiles_extend_the_record_in_place() {
        // With percentiles attached, the three `*_us` fields append
        // inside the record; records without them are untouched, so a
        // mixed trajectory stays valid line-by-line.
        let records = [
            BenchRecord::new("wirenet", 4, 900.0).with_percentiles(Some(Percentiles {
                p50_us: 1023,
                p99_us: 16383,
                p999_us: 65535,
            })),
            BenchRecord::new("simnet", 4, 70000.0),
        ];
        assert_eq!(
            bench_json("exp_shard", &records),
            "{\"bench\":\"exp_shard\",\"unit\":\"sessions_per_second\",\"results\":[\
             {\"backend\":\"wirenet\",\"shards\":4,\"sessions_per_sec\":900.0,\
             \"p50_us\":1023,\"p99_us\":16383,\"p999_us\":65535},\
             {\"backend\":\"simnet\",\"shards\":4,\"sessions_per_sec\":70000.0}]}\n"
        );
    }

    #[test]
    fn percentiles_from_hist_summarises_nonempty_only() {
        let mut h = referee_protocol::HistSnapshot::new();
        assert_eq!(Percentiles::from_hist(&h), None);
        h.record_us(1000);
        assert_eq!(
            Percentiles::from_hist(&h),
            Some(Percentiles { p50_us: 1023, p99_us: 1023, p999_us: 1023 })
        );
    }

    #[test]
    fn slo_check_bounds() {
        let p = Percentiles { p50_us: 511, p99_us: 4095, p999_us: 16383 };
        // Disarmed: passes anything.
        assert!(SloCheck::default().check("x", &p).is_ok());
        assert!(!SloCheck::default().is_enabled());
        // Armed and satisfied.
        let ok = SloCheck { p99_us: Some(5000), p999_us: Some(20000) };
        assert!(ok.check("x", &p).is_ok());
        // Armed and violated — the report names the label and bound.
        let tight = SloCheck { p99_us: Some(1000), p999_us: None };
        let err = tight.check("soak", &p).unwrap_err();
        assert!(err.contains("soak") && err.contains("p99 4095us > SLO 1000us"), "{err}");
        // Both bounds violated → both reported.
        let both = SloCheck { p99_us: Some(1), p999_us: Some(2) };
        let err = both.check("s", &p).unwrap_err();
        assert!(err.contains("p99 ") && err.contains("p999 "), "{err}");
    }

    #[test]
    fn slo_from_values_arms_parses_and_disarms() {
        let set = |v: &str| Ok(v.to_string());
        let unset = || Err(VarError::NotPresent);
        assert_eq!(SloCheck::from_values(unset(), unset()), SloCheck::default());
        // An empty variable disarms its bound like an unset one.
        assert_eq!(SloCheck::from_values(set(""), unset()), SloCheck::default());
        assert_eq!(
            SloCheck::from_values(set("5000000"), set("60000000")),
            SloCheck { p99_us: Some(5_000_000), p999_us: Some(60_000_000) }
        );
    }

    #[test]
    #[should_panic(expected = "REFEREE_SLO_P99_US=\"5s\"")]
    fn slo_from_values_rejects_a_typo() {
        SloCheck::from_values(Ok("5s".to_string()), Err(VarError::NotPresent));
    }

    #[cfg(unix)]
    #[test]
    #[should_panic(expected = "REFEREE_SLO_P999_US")]
    fn slo_from_values_rejects_non_unicode() {
        use std::os::unix::ffi::OsStringExt;
        let raw = std::ffi::OsString::from_vec(vec![b'5', 0xff]);
        SloCheck::from_values(Err(VarError::NotPresent), Err(VarError::NotUnicode(raw)));
    }

    #[test]
    fn bench_json_writes_a_file() {
        let dir = std::env::temp_dir().join(format!("bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path =
            write_bench_json_in(&dir, "unit_test", &[BenchRecord::new("simnet", 2, 1.5)])
                .unwrap();
        assert!(path.ends_with("BENCH_unit_test.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"shards\":2"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
