//! G-OLA benchmark: end-to-end and per-layer metrics over three workloads.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload q17_nested --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` runs the same workload with spans recorded around
//! every layer call, adds per-layer replays, prints the per-layer metrics
//! and writes the spans to `.perfbench/`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Any failed correctness check makes the exit code 1.
//!
//! The metric names and units are those `BENCHMARK.json` lists.
//! `perfbench/DESIGN.md` says why each workload exists, what each metric
//! means on it, and which end-to-end metric each per-layer one should move.

mod ingest;
mod inproc;
mod layers;
mod online;
mod service;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gola_bootstrap::BootstrapSpec;
use gola_common::rng::SplitMix64;
use gola_core::OnlineConfig;
use gola_storage::Table;

const WORKLOADS: &[&str] = &["q17_nested", "service_mix", "ingest_live"];

/// Bootstrap replicas, the paper's B.
pub const TRIALS: u32 = 100;

/// Everything a workload run derives from the one `--seed`: the program
/// only ever sees the generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub data: u64,
    pub partition: u64,
    pub bootstrap: u64,
    pub order: u64,
}

impl Seeds {
    /// The seeds of a run's `i`-th independent input.
    pub fn sub(&self, i: u64) -> Seeds {
        let mix = |s: u64| gola_common::rng::hash_combine(s, i);
        Seeds {
            data: mix(self.data),
            partition: mix(self.partition),
            bootstrap: mix(self.bootstrap),
            order: mix(self.order),
        }
    }

    /// The online configuration these seeds give: `batches` mini-batches,
    /// B=[`TRIALS`] bootstrap replicas, `threads` worker threads.
    pub fn config(&self, batches: usize, threads: usize) -> OnlineConfig {
        let mut c = OnlineConfig::default()
            .with_batches(batches)
            .with_seed(self.partition)
            .with_threads(threads);
        c.bootstrap = BootstrapSpec::new(TRIALS, self.bootstrap);
        c
    }

    fn derive(seed: u64) -> Seeds {
        let mut rng = SplitMix64::new(seed ^ 0x6F1A_BE4C_0000_0000);
        Seeds {
            data: rng.next_u64(),
            partition: rng.next_u64(),
            bootstrap: rng.next_u64(),
            order: rng.next_u64(),
        }
    }
}

/// What the benchmark hands a workload.
pub struct Ctx {
    pub seeds: Seeds,
    pub measure: Duration,
    pub trace: bool,
    pub cpus: usize,
    /// Scratch directory inside the checkout, removed at exit.
    pub scratch: PathBuf,
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra facts printed beside the result (sample counts, percentiles).
    pub info: Vec<(String, String)>,
}

impl Outcome {
    /// Count one checked operation; a failed check records `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Set `name` to the tail of `samples` and note its percentile.
    pub fn set_tail(&mut self, name: &'static str, samples: &[f64]) {
        let (value, pct) = stats::tail(samples);
        self.set(name, value);
        self.note(name, format!("p{pct} of {}", samples.len()));
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Rows per second of one type-checked columnar build (`Table::try_new`)
/// of the generated rows.
pub fn load_rate(out: &mut Outcome, table: &Table) -> f64 {
    let (schema, rows) = (Arc::clone(table.schema()), table.rows());
    let t = Instant::now();
    let loaded = Table::try_new(schema, rows);
    let secs = t.elapsed().as_secs_f64();
    out.check(
        loaded.is_ok_and(|l| l.num_rows() == table.num_rows()),
        || "columnar load of the generated rows".to_string(),
    );
    table.num_rows() as f64 / secs
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Current resident set size in bytes (`VmRSS`).
pub fn rss_bytes() -> f64 {
    proc_status_kb("VmRSS:") * 1024.0
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// The checked-out revision, read from `.git` without running git; the
/// benchmark may also run from an export with no history.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `(name, unit)` of every metric listed under `key` ("end_to_end"
/// or "per_layer") in `BENCHMARK.json`, the one list of metric names.
fn metric_specs(key: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let doc = gola_obs::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(gola_obs::json::Value::Array(list)) = doc.get(key) else {
        return Err(format!("BENCHMARK.json has no {key} list"));
    };
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a {key} metric lacks {f}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let wanted = match metric_specs(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    }) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seeds: Seeds::derive(args.seed),
        measure: Duration::from_secs(args.seconds),
        trace: args.trace,
        cpus,
        scratch,
    };
    let tracer = trace::Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "q17_nested" => inproc::run(&ctx, &tracer),
        "service_mix" => service::run(&ctx, &tracer),
        "ingest_live" => ingest::run(&ctx, &tracer),
        _ => unreachable!("workload names are validated in parse_args"),
    };
    out.set("peak_rss_mb", peak_rss_mb());
    if args.trace {
        let path = PathBuf::from(".perfbench")
            .join(format!("spans-{}-{}.ndjson", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => out.note("spans", path.display()),
            Err(e) => out.check(false, || format!("writing spans: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.scratch);

    let mut metrics = Vec::new();
    for (name, unit) in &wanted {
        // A layer this workload does not exercise did no work.
        let value = match out.metrics.get(name.as_str()) {
            None if args.trace => Some(0.0),
            v => v.copied(),
        };
        match value {
            Some(v) if v.is_finite() => {
                metrics.push(format!(
                    "{}:{{\"value\":{v},\"unit\":{}}}",
                    json_str(name),
                    json_str(unit)
                ));
                println!("  {name:<32} {v:>16.6} {unit}");
            }
            _ => out.check(false, || format!("metric {name} was not measured")),
        }
    }
    for f in &out.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let mut info = vec![
        format!("\"workload\":{}", json_str(&args.workload)),
        format!("\"seed\":{}", args.seed),
        format!("\"host_cpus\":{cpus}"),
        format!("\"revision\":{}", json_str(&git_revision())),
    ];
    info.extend(
        out.info
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))),
    );
    println!("info {{{}}}", info.join(","));
    let failed = out.failures.len() as u64;
    let attempted = out.attempted.max(1);
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
