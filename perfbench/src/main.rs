//! The gathering system's benchmark: four named workloads, each run with
//! tracing off (end-to-end metrics) or on (per-layer metrics), printing a
//! JSON summary as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload probe-cache --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metric definitions and
//! the correctness checks.

mod fleet;
mod local;
mod mmpp;
mod requests;
mod speed;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Worker threads, daemon workers and client connections are capped here:
/// the reference host has two cores and all load comes from one process.
pub const PARALLELISM: usize = 2;

/// Setup probes run in fresh child processes (the process-lifetime memo
/// tables are cold in each), in addition to the measuring process itself:
/// half before the measured phase and half after it, so that the median is
/// not taken from one moment of a shared host. Thread starts make single
/// set-ups heavy-tailed (2-14 ms for `daemon-requests`), hence so many.
const SETUP_PROBES: usize = 30;

/// A residue (untraced wall time not covered by layer self times) above
/// this share of the untraced wall time is flagged in the output.
pub const RESIDUE_TOLERANCE: f64 = 0.10;

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub work: PathBuf,
}

impl Ctx {
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (reported with `--trace 0`).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub layers: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// `VmHWM` at the end of the first round, for round-based workloads.
    pub first_round_rss_mb: Option<f64>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Marks the end of a round: the first call records the peak resident
    /// memory so far. Later rounds repeat the same work; what they add is
    /// allocator fragmentation, which differs from run to run.
    pub fn first_round_done(&mut self) {
        self.first_round_rss_mb.get_or_insert_with(peak_rss_mb);
    }

    /// Prints a metric that is reported but not part of the JSON summary.
    pub fn info(&self, name: &str, value: f64, unit: &str) {
        println!("{name:<28} {value:>16.4} {unit} (printed only)");
    }

    /// Records a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            println!("CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }
}

/// A workload: a set-up phase (timed as `setup_s`) and a measured phase.
pub trait Workload: Sized {
    fn setup(ctx: &Ctx) -> Result<Self, String>;
    fn measure(self, ctx: &Ctx, report: &mut Report);
}

/// Every end-to-end metric, reported by every workload with `--trace 0`.
const E2E_METRICS: [&str; 5] = [
    "cold_cells_per_s",
    "warm_cells_per_s",
    "lat_p95_ms",
    "setup_s",
    "peak_rss_mb",
];

/// Every per-layer metric and its unit, reported by every workload with
/// `--trace 1`; a layer the workload does not exercise reads 0.
const LAYER_METRICS: [(&str, &str); 42] = [
    ("sweep.expand_us", "us"),
    ("sweep.row_us", "us"),
    ("cache.key_us", "us"),
    ("cache.key_calls", "count"),
    ("cache.get_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.corrupt", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.put_us", "us"),
    ("cache.put_bytes", "B"),
    ("cache.dir_get_us", "us"),
    ("cache.dir_put_us", "us"),
    ("artifact.instance_us", "us"),
    ("artifact.builds", "count"),
    ("artifact.hit_ratio", "ratio"),
    ("engine.cell_us", "us"),
    ("engine.rounds", "count"),
    ("engine.rounds_per_s", "1/s"),
    ("engine.messages", "count"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.bytes_per_row", "B"),
    ("scheduler.wait_us", "us"),
    ("scheduler.worker_busy_frac", "ratio"),
    ("client.accept_ms", "ms"),
    ("client.row_ms", "ms"),
    ("client.done_ms", "ms"),
    ("coord.overhead_ms", "ms"),
    ("coord.chunks", "count"),
    ("coord.steals", "count"),
    ("coord.redispatches", "count"),
    ("reconcile.cold.untraced_ms", "ms"),
    ("reconcile.cold.traced_ms", "ms"),
    ("reconcile.cold.self_sum_ms", "ms"),
    ("reconcile.cold.residue_ms", "ms"),
    ("reconcile.cold.overhead_ms", "ms"),
    ("reconcile.warm.untraced_ms", "ms"),
    ("reconcile.warm.traced_ms", "ms"),
    ("reconcile.warm.self_sum_ms", "ms"),
    ("reconcile.warm.residue_ms", "ms"),
    ("reconcile.warm.overhead_ms", "ms"),
];

pub const WORKLOADS: [&str; 4] = [
    "probe-cache",
    "paper-grid",
    "fleet-stream",
    "daemon-requests",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0_f64, false);
    let mut setup_probe = false;
    while let Some(flag) = args.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_probe,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work =
        Path::new(".perfbench-work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work,
    };
    let code = match ctx.workload.as_str() {
        "probe-cache" => run::<local::ProbeCache>(&ctx, started, args.setup_probe),
        "paper-grid" => run::<local::PaperGrid>(&ctx, started, args.setup_probe),
        "fleet-stream" => run::<fleet::FleetStream>(&ctx, started, args.setup_probe),
        _ => run::<requests::DaemonRequests>(&ctx, started, args.setup_probe),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    // Leave no empty parent behind once the last concurrent run is done.
    let _ = std::fs::remove_dir(".perfbench-work");
    code
}

fn run<W: Workload>(ctx: &Ctx, started: Instant, setup_probe: bool) -> ExitCode {
    let workload = match W::setup(ctx) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    let setup_s = started.elapsed().as_secs_f64();
    if setup_probe {
        drop(workload);
        println!("setup_s {setup_s}");
        return ExitCode::SUCCESS;
    }
    println!(
        "workload {} seed {} seconds {} trace {} threads {} host_parallelism {} work_dir_fs {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        PARALLELISM,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        fs_type(&ctx.work)
    );
    let mut report = Report::default();
    let mut setups = vec![setup_s];
    let mut probe = |report: &mut Report| {
        if !ctx.trace {
            match setup_probes(ctx, SETUP_PROBES / 2) {
                Ok(more) => setups.extend(more),
                Err(e) => report.check(false, || format!("setup probe failed: {e}")),
            }
        }
    };
    probe(&mut report);
    workload.measure(ctx, &mut report);
    probe(&mut report);
    if !ctx.trace {
        println!(
            "setup_s samples (ms): {:?}",
            setups
                .iter()
                .map(|s| (s * 1e5).round() / 1e2)
                .collect::<Vec<_>>()
        );
        report.e2e("setup_s", stats::median(&setups), "s");
        let rss = report.first_round_rss_mb.unwrap_or_else(peak_rss_mb);
        report.e2e("peak_rss_mb", rss, "MiB");
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.info("failed_frac", failed_frac, "ratio");
    report.check(report.attempted > 0, || "no work was attempted".to_string());
    let (failed, attempted) = (report.failed, report.attempted);
    report.check(failed == 0, || {
        format!("{failed} of {attempted} operations failed")
    });
    let metrics = if ctx.trace {
        complete_layers(&mut report)
    } else {
        for name in E2E_METRICS {
            let present = report.e2e.iter().any(|m| m.name == name);
            report.check(present, || {
                format!("end-to-end metric {name} was not measured")
            });
        }
        report.e2e.clone()
    };
    for m in &metrics {
        report
            .failures
            .extend((!m.value.is_finite()).then(|| format!("metric {} is not finite", m.name)));
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let correct = report.failures.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-layer metrics in their listed order, with 0 for every layer the
/// workload does not exercise.
fn complete_layers(report: &mut Report) -> Vec<Metric> {
    for m in &report.layers {
        if !LAYER_METRICS
            .iter()
            .any(|(name, unit)| *name == m.name && *unit == m.unit)
        {
            let what = format!("unlisted per-layer metric {} ({})", m.name, m.unit);
            report.failures.push(what);
        }
    }
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = report
                .layers
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric {
                name: name.to_string(),
                value,
                unit,
            }
        })
        .collect()
}

/// Set-up time of the workload in `count` fresh child processes of this
/// binary.
fn setup_probes(ctx: &Ctx, count: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..count)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--setup-probe", "--workload", &ctx.workload])
                .args(["--seed", &ctx.seed.to_string()])
                .args(["--seconds", &ctx.seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.lines()
                .find_map(|l| l.strip_prefix("setup_s ")?.trim().parse().ok())
                .filter(|_| out.status.success())
                .ok_or_else(|| format!("probe exited {} printing {text:?}", out.status))
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// File-system type of the mount holding `path`, from `/proc/self/mountinfo`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = *fields.get(4)?;
            let dash = fields.iter().position(|f| *f == "-")?;
            let fstype = *fields.get(dash + 1)?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// Keeps starting rounds while the next one, at the mean round length so
/// far, is expected to end inside the budget (always at least one round).
pub struct Rounds {
    start: Instant,
    budget: Duration,
    pub done: usize,
}

impl Rounds {
    pub fn new(budget: Duration) -> Rounds {
        Rounds {
            start: Instant::now(),
            budget,
            done: 0,
        }
    }

    /// Call before each round; `false` ends the loop.
    pub fn another(&mut self) -> bool {
        let elapsed = self.start.elapsed();
        if self.done > 0 && elapsed + elapsed / self.done as u32 > self.budget {
            return false;
        }
        self.done += 1;
        true
    }
}

/// Reports the reconciliation of one pass kind (`cold` or `warm`): the
/// untraced and traced wall times, the layer self-time sum over `workers`
/// parallel workers, the residue and the tracing overhead, all in ms.
pub fn reconcile(
    report: &mut Report,
    pass: &str,
    untraced_ms: &[f64],
    traced_ms: &[f64],
    self_sum_ms: &[f64],
) {
    let untraced = stats::median(untraced_ms);
    let traced = stats::median(traced_ms);
    let self_sum = stats::median(self_sum_ms);
    let residue = untraced - self_sum;
    println!(
        "reconcile {pass}: untraced {untraced:.3} ms, traced {traced:.3} ms, layer self-time sum {self_sum:.3} ms, residue {residue:.3} ms ({:.1}% of untraced), tracing overhead {:.3} ms",
        100.0 * residue / untraced,
        traced - untraced
    );
    if residue.abs() > RESIDUE_TOLERANCE * untraced {
        println!(
            "reconcile {pass}: RESIDUE ABOVE TOLERANCE ({:.0}% of untraced wall)",
            RESIDUE_TOLERANCE * 100.0
        );
    }
    let p = format!("reconcile.{pass}.");
    report.layer(&format!("{p}untraced_ms"), untraced, "ms");
    report.layer(&format!("{p}traced_ms"), traced, "ms");
    report.layer(&format!("{p}self_sum_ms"), self_sum, "ms");
    report.layer(&format!("{p}residue_ms"), residue, "ms");
    report.layer(&format!("{p}overhead_ms"), traced - untraced, "ms");
}

/// Writes the spans of one traced round under `.perfbench-out/`.
pub fn write_trace(ctx: &Ctx, jsonl: &str) {
    let dir = Path::new(".perfbench-out");
    let path = dir.join(format!("{}-seed{}.trace.jsonl", ctx.workload, ctx.seed));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, jsonl)) {
        Ok(()) => println!(
            "trace: {} spans written to {}",
            jsonl.lines().count(),
            path.display()
        ),
        Err(e) => println!("trace: could not write {}: {e}", path.display()),
    }
}
