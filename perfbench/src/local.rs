//! The local-sweep workloads (`probe-cache`, `paper-grid`), the grids the
//! other workloads reuse, and the traced cell executor.

use crate::speed::{self, Pass, PassTimer};
use crate::stats::{self, Rng};
use crate::trace::{self, LayerTotals, Recorder};
use crate::{reconcile, Ctx, Report, Rounds, Workload, PARALLELISM};
use gather_core::artifact::{ArtifactCache, ArtifactStats};
use gather_core::cache::{spec_key, CacheEntry, CachePolicy, DirStore, MemStore, ResultStore};
use gather_core::registry::{self, AlgorithmRegistry};
use gather_core::scenario::{
    AlgorithmSpec, GraphSpec, PlacementSpec, ScenarioError, ScenarioOutcome, ScenarioSpec,
};
use gather_core::sweep::{SweepReport, SweepRow, SweepSpec};
use gather_graph::generators::Family;
use gather_obs::Registry;
use gather_sim::placement::PlacementKind;
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seeds per `probe-cache` grid: 8 axis combinations x 625 seeds = 5,000
/// cells.
const PROBE_SEEDS: u64 = 625;

/// Warm passes per round: a warm pass is short, so several are timed.
pub const WARM_PASSES: usize = 4;

/// `paper-grid` seeds: 5 graphs x 2 placements x 3 algorithms x 4 seeds =
/// 120 cells, about 1.1 s per pass on two cores, so that a run times
/// enough passes for a steady median.
const PAPER_SEEDS: u64 = 4;

/// FNV-1a digest of the sorted `paper-grid` row JSON lines, and the grid's
/// total simulated round count. Rows are pure functions of their specs, so
/// these hold for every `--seed` (the seed only permutes the axis order).
const PAPER_DIGEST: u64 = 0xaa5a_b78a_dc75_80ec;
const PAPER_ROUNDS: u64 = 7_015_470;

/// The `probe-cache` grid: cheap capped cells whose simulation (about
/// 20 us) is smaller than the key and store work around it. `--seed`
/// picks the seed axis.
pub fn probe_grid(seed: u64) -> SweepSpec {
    let base = Rng::new(seed).next_u64() >> 24;
    SweepSpec {
        graphs: vec![
            GraphSpec::new(Family::Cycle, 8),
            GraphSpec::new(Family::Path, 8),
        ],
        placements: vec![
            PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
            PlacementSpec::new(PlacementKind::MaxSpread, 3),
        ],
        algorithms: vec![
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ],
        seeds: (base..base + PROBE_SEEDS).collect(),
        max_rounds: 64,
        faults: Vec::new(),
    }
}

/// The `paper-grid` grid: cells that run to completion (1.5-90 ms each).
/// The cells are fixed; `--seed` only permutes the order of the placement
/// and algorithm axes. The graph axis, the outermost, stays in order of
/// decreasing cell cost, so a pass ends on the cheapest cells: ending on a
/// 60 ms cell while the other worker idles made the pass time depend on
/// the seed.
pub fn paper_grid(seed: u64) -> SweepSpec {
    let mut rng = Rng::new(seed);
    let graphs = vec![
        GraphSpec::new(Family::Grid, 16),
        GraphSpec::new(Family::Cycle, 16),
        GraphSpec::new(Family::RandomSparse, 12),
        GraphSpec::new(Family::Grid, 9),
        GraphSpec::new(Family::Cycle, 8),
    ];
    let mut placements = vec![
        PlacementSpec::new(PlacementKind::DispersedRandom, 3),
        PlacementSpec::new(PlacementKind::UndispersedRandom, 6),
    ];
    let mut algorithms = vec![
        AlgorithmSpec::new("faster_gathering"),
        AlgorithmSpec::new("uxs_gathering"),
        AlgorithmSpec::new("undispersed_gathering"),
    ];
    shuffle(&mut placements, &mut rng);
    shuffle(&mut algorithms, &mut rng);
    let mut spec = SweepSpec::new();
    spec.graphs = graphs;
    spec.placements = placements;
    spec.algorithms = algorithms;
    spec.seeds = (0..PAPER_SEEDS).collect();
    spec
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Builds the process-lifetime memo tables (UXS sequences, schedules) the
/// grid's cells use, by running each axis combination for one round.
pub fn warm_memo(spec: &SweepSpec) -> Result<(), String> {
    for graph in &spec.graphs {
        for placement in &spec.placements {
            for algorithm in &spec.algorithms {
                ScenarioSpec::new(*graph, *placement, algorithm.clone())
                    .with_max_rounds(1)
                    .run_default()
                    .map_err(|e| format!("warm-up cell failed: {e}"))?;
            }
        }
    }
    Ok(())
}

pub fn rows_json(rows: &[SweepRow]) -> String {
    serde_json::to_string(rows).expect("rows serialize")
}

/// The store counters of [`Registry::global`]: hits, misses, puts, corrupt.
pub fn store_counters() -> [i64; 4] {
    let snap = Registry::global().snapshot();
    [
        "store_hits_total",
        "store_misses_total",
        "store_puts_total",
        "store_corrupt_total",
    ]
    .map(|name| snap.value(name).unwrap_or(0))
}

pub fn counter_delta(after: [i64; 4], before: [i64; 4]) -> [i64; 4] {
    [0, 1, 2, 3].map(|i| after[i] - before[i])
}

/// Total bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One local pass of `spec` through the program's own executor, timed
/// and followed by a calibration.
fn sweep_pass(
    timer: &mut PassTimer,
    spec: &SweepSpec,
    store: Option<Arc<dyn ResultStore>>,
) -> (SweepReport, Pass) {
    let mut sweep = spec.clone().into_sweep().threads(PARALLELISM);
    if let Some(store) = store {
        sweep = sweep.cache(store, CachePolicy::ReadWrite);
    }
    timer.time(|| sweep.run_default())
}

/// The passes' wall times scaled to the reference host speed, in seconds.
pub fn scaled(timer: &PassTimer, passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(|&p| timer.scaled_s(p)).collect()
}

/// The passes' wall times as measured, in ms.
fn wall_ms(passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(|p| secs(p.wall) * 1e3).collect()
}

/// Reports the pass rates as measured and scaled to the reference host
/// speed, with the calibration kernel's median time.
fn print_rates(cells: usize, rounds: usize, timer: &PassTimer, cold: &[Pass], warm: &[Pass]) {
    let rate = |s: Vec<f64>| cells as f64 / stats::median(&s);
    let measured = |v: &[Pass]| rate(wall_ms(v)) * 1e3;
    println!(
        "rounds {rounds} of {cells} cells each: cold pass p50 {:.1} cells/s measured, {:.1} scaled; warm pass p50 {:.1} measured, {:.1} scaled",
        measured(cold),
        rate(scaled(timer, cold)),
        measured(warm),
        rate(scaled(timer, warm))
    );
    print_host_speed(timer);
}

pub fn print_host_speed(timer: &PassTimer) {
    println!(
        "host speed: calibration kernel p50 {:.3} ms over {} calibrations (reference {:.3} ms)",
        stats::median(&timer.kernels) * 1e3,
        timer.kernels.len(),
        speed::REFERENCE_S * 1e3
    );
}

/// What a traced pass saw, besides its spans.
pub struct TracedPass {
    pub rows: Vec<SweepRow>,
    pub recorders: Vec<Recorder>,
    pub wall: Duration,
    pub hits: u64,
    pub misses: u64,
    pub artifacts: ArtifactStats,
}

/// Drives every cell of `spec` through the public calls
/// `ScenarioSpec::run_cached_with` makes, in its order, on
/// [`PARALLELISM`] threads, recording one span per call.
pub fn traced_pass(
    spec: &SweepSpec,
    store: Option<&dyn ResultStore>,
    origin: Instant,
) -> TracedPass {
    let registry = registry::global();
    let artifacts = ArtifactCache::new();
    let cells = spec.cells();
    let next = AtomicUsize::new(0);
    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    let started = Instant::now();
    let results: Vec<(Recorder, Vec<(usize, SweepRow)>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..PARALLELISM)
            .map(|thread| {
                let (next, hits, misses, artifacts) = (&next, &hits, &misses, &artifacts);
                scope.spawn(move || {
                    let mut rec = Recorder::new(origin, thread);
                    let mut rows = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cells {
                            break;
                        }
                        let id = i as u64;
                        let root = rec.open("cell", id, None);
                        let cell = rec
                            .time("sweep.expand", id, Some(root), || spec.cell_at(i))
                            .expect("index is inside the grid");
                        let outcome = match store {
                            Some(store) => {
                                let key = rec.time("cache.key", id, Some(root), || spec_key(&cell));
                                let entry =
                                    rec.time("cache.get", id, Some(root), || store.get(&key));
                                match entry.filter(|e| e.spec == cell) {
                                    Some(entry) => {
                                        hits.fetch_add(1, Ordering::Relaxed);
                                        Ok(entry.outcome)
                                    }
                                    None => {
                                        misses.fetch_add(1, Ordering::Relaxed);
                                        let outcome =
                                            simulate(&mut rec, root, &cell, registry, artifacts);
                                        if let Ok(o) = &outcome {
                                            let entry =
                                                CacheEntry::new(key, cell.clone(), o.clone());
                                            rec.time("cache.put", id, Some(root), || {
                                                store.put(&entry)
                                            });
                                        }
                                        outcome
                                    }
                                }
                            }
                            None => simulate(&mut rec, root, &cell, registry, artifacts),
                        };
                        let row = rec.time("sweep.row", id, Some(root), || match &outcome {
                            Ok(o) => SweepRow::ok(&cell, o),
                            Err(e) => SweepRow::failed(&cell, e),
                        });
                        rec.close(root);
                        rows.push((i, row));
                    }
                    (rec, rows)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("traced worker panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut indexed: Vec<(usize, SweepRow)> = Vec::with_capacity(cells);
    let mut recorders = Vec::new();
    for (rec, rows) in results {
        recorders.push(rec);
        indexed.extend(rows);
    }
    indexed.sort_by_key(|(i, _)| *i);
    TracedPass {
        rows: indexed.into_iter().map(|(_, row)| row).collect(),
        recorders,
        wall,
        hits: hits.into_inner(),
        misses: misses.into_inner(),
        artifacts: artifacts.stats(),
    }
}

/// The simulation half of `ScenarioSpec::run_with`: instance lookup, then
/// the engine.
fn simulate(
    rec: &mut Recorder,
    root: usize,
    spec: &ScenarioSpec,
    registry: &AlgorithmRegistry,
    artifacts: &ArtifactCache,
) -> Result<ScenarioOutcome, ScenarioError> {
    if !registry.contains(&spec.algorithm.name) {
        return spec.run_with(registry, Some(artifacts));
    }
    let id = rec.spans[root].cell;
    let (graph, start) = rec.time("artifact.instance", id, Some(root), || {
        artifacts.instance(spec)
    })?;
    rec.time("engine.cell", id, Some(root), || {
        spec.run_on(registry, &graph, &start)
    })
}

/// Layer self time of the worker spans of a pass, per worker, in ms.
fn self_sum_ms(recorders: &[Recorder]) -> f64 {
    let mut totals = LayerTotals::default();
    totals.add(recorders);
    totals.total_self_us() / 1e3 / PARALLELISM as f64
}

/// Per-layer metrics shared by the local workloads.
struct LayerAccum {
    totals: LayerTotals,
    /// Counts over the first traced round (cold + warm pass).
    hits: u64,
    misses: u64,
    artifacts: ArtifactStats,
    rounds: u64,
    messages: u64,
    /// Simulated rounds over every traced pass, for the engine rate.
    all_rounds: u64,
    corrupt: i64,
    first_round_done: bool,
    /// The `DirStore` round of a traced `probe-cache` run.
    dir: LayerTotals,
    dir_bytes_per_put: f64,
}

impl LayerAccum {
    fn new() -> LayerAccum {
        LayerAccum {
            totals: LayerTotals::default(),
            hits: 0,
            misses: 0,
            artifacts: ArtifactStats::default(),
            rounds: 0,
            messages: 0,
            all_rounds: 0,
            corrupt: 0,
            first_round_done: false,
            dir: LayerTotals::default(),
            dir_bytes_per_put: 0.0,
        }
    }

    fn add_pass(&mut self, pass: &TracedPass) {
        self.totals.add(&pass.recorders);
        let simulated: HashSet<u64> = pass
            .recorders
            .iter()
            .flat_map(|r| &r.spans)
            .filter(|s| s.layer == "engine.cell")
            .map(|s| s.cell)
            .collect();
        let simulated_rows = pass
            .rows
            .iter()
            .enumerate()
            .filter(|(i, _)| simulated.contains(&(*i as u64)))
            .map(|(_, row)| row);
        for row in simulated_rows {
            self.all_rounds += row.rounds;
            if !self.first_round_done {
                self.rounds += row.rounds;
                self.messages += row.messages;
            }
        }
        if !self.first_round_done {
            self.hits += pass.hits;
            self.misses += pass.misses;
            let a = pass.artifacts;
            self.artifacts.graph_hits += a.graph_hits;
            self.artifacts.graph_builds += a.graph_builds;
            self.artifacts.placement_hits += a.placement_hits;
            self.artifacts.placement_builds += a.placement_builds;
        }
    }

    fn report(&self, report: &mut Report) {
        let t = &self.totals;
        report.layer("sweep.expand_us", t.mean_us("sweep.expand"), "us");
        report.layer("sweep.row_us", t.mean_us("sweep.row"), "us");
        report.layer("cache.key_us", t.mean_us("cache.key"), "us");
        report.layer("cache.key_calls", (self.hits + self.misses) as f64, "count");
        report.layer("cache.get_us", t.mean_us("cache.get"), "us");
        report.layer("cache.hits", self.hits as f64, "count");
        report.layer("cache.misses", self.misses as f64, "count");
        report.layer("cache.corrupt", self.corrupt as f64, "count");
        let lookups = (self.hits + self.misses).max(1) as f64;
        report.layer("cache.hit_ratio", self.hits as f64 / lookups, "ratio");
        report.layer("cache.put_us", t.mean_us("cache.put"), "us");
        report.layer("cache.put_bytes", self.dir_bytes_per_put, "B");
        report.layer("cache.dir_get_us", self.dir.mean_us("cache.get"), "us");
        report.layer("cache.dir_put_us", self.dir.mean_us("cache.put"), "us");
        report.layer("artifact.instance_us", t.mean_us("artifact.instance"), "us");
        let a = self.artifacts;
        report.layer("artifact.builds", a.builds() as f64, "count");
        let looked_up = (a.hits() + a.builds()).max(1) as f64;
        report.layer("artifact.hit_ratio", a.hits() as f64 / looked_up, "ratio");
        report.layer("engine.cell_us", t.mean_us("engine.cell"), "us");
        report.layer("engine.rounds", self.rounds as f64, "count");
        // Simulated rounds per second of engine time on one thread.
        let engine_s = t.self_us("engine.cell") / 1e6;
        let rate = if engine_s > 0.0 {
            self.all_rounds as f64 / engine_s
        } else {
            0.0
        };
        report.layer("engine.rounds_per_s", rate, "1/s");
        report.layer("engine.messages", self.messages as f64, "count");
    }
}

/// `probe-cache`: a local sweep over cheap capped cells through a fresh
/// `MemStore` per round: one cold pass, then [`WARM_PASSES`] warm passes.
pub struct ProbeCache {
    spec: SweepSpec,
    store: Arc<MemStore>,
}

impl Workload for ProbeCache {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let spec = probe_grid(ctx.seed);
        let _ = spec.specs();
        let store = Arc::new(MemStore::new());
        warm_memo(&spec)?;
        Ok(ProbeCache { spec, store })
    }

    fn measure(self, ctx: &Ctx, report: &mut Report) {
        let spec = &self.spec;
        let cells = spec.cells();
        let origin = Instant::now();
        let mut rounds = Rounds::new(ctx.budget(1.0));
        let mut first_rows: Option<String> = None;
        // Traced runs alternate untraced and traced rounds.
        let mut traced = LayerAccum::new();
        let (mut traced_cold, mut traced_warm) = (Vec::new(), Vec::new());
        let (mut sum_cold, mut sum_warm) = (Vec::new(), Vec::new());
        let mut jsonl = String::new();
        let mut store = self.store;
        let mut timer = PassTimer::new();
        let (mut cold_p, mut warm_p) = (Vec::new(), Vec::new());
        while rounds.another() {
            let round = rounds.done;
            if round > 1 {
                store = Arc::new(MemStore::new());
            }
            let before = store_counters();
            let (cold, t) = sweep_pass(&mut timer, spec, Some(store.clone()));
            let mid = store_counters();
            report.attempted += cells as u64;
            report.failed += cold.stats.errors as u64;
            let cold_json = rows_json(&cold.rows);
            cold_p.push(t);
            for i in 0..WARM_PASSES {
                let c = store_counters();
                let (warm, t) = sweep_pass(&mut timer, spec, Some(store.clone()));
                warm_p.push(t);
                report.attempted += cells as u64;
                report.failed += warm.stats.errors as u64;
                if i == 0 {
                    check_store_passes(report, cells, &cold, &warm, before, mid, store_counters());
                } else {
                    let d = counter_delta(store_counters(), c);
                    report.check(
                        warm.stats.cache_hits == cells && d[0] == cells as i64,
                        || format!("round {round}: repeated warm pass was not 100% hits"),
                    );
                }
                report.check(rows_json(&warm.rows) == cold_json, || {
                    format!("round {round}: warm rows differ from cold rows")
                });
            }
            match &first_rows {
                None => first_rows = Some(cold_json),
                Some(first) => report.check(*first == cold_json, || {
                    format!("round {round}: cold rows differ from round 1")
                }),
            }
            report.first_round_done();
            if ctx.trace {
                let store = MemStore::new();
                let c0 = store_counters();
                let cold = traced_pass(spec, Some(&store), origin);
                let warm = traced_pass(spec, Some(&store), origin);
                traced.corrupt += counter_delta(store_counters(), c0)[3];
                check_traced_round(report, round, cells, &cold, &warm, &first_rows);
                if !traced.first_round_done {
                    trace::write_jsonl(&mut jsonl, "cold", &cold.recorders);
                    trace::write_jsonl(&mut jsonl, "warm", &warm.recorders);
                }
                traced.add_pass(&cold);
                traced.add_pass(&warm);
                traced.first_round_done = true;
                traced_cold.push(secs(cold.wall) * 1e3);
                traced_warm.push(secs(warm.wall) * 1e3);
                sum_cold.push(self_sum_ms(&cold.recorders));
                sum_warm.push(self_sum_ms(&warm.recorders));
            }
        }
        let (reference, _) = sweep_pass(&mut timer, spec, None);
        report.attempted += cells as u64;
        report.failed += reference.stats.errors as u64;
        report.check(first_rows == Some(rows_json(&reference.rows)), || {
            "cold rows differ from a store-less run of the same grid".to_string()
        });
        print_rates(cells, rounds.done, &timer, &cold_p, &warm_p);
        if ctx.trace {
            dir_store_round(ctx, report, spec, &first_rows, &mut traced, origin);
            reconcile(report, "cold", &wall_ms(&cold_p), &traced_cold, &sum_cold);
            reconcile(report, "warm", &wall_ms(&warm_p), &traced_warm, &sum_warm);
            traced.report(report);
            crate::write_trace(ctx, &jsonl);
        } else {
            pass_metrics(
                report,
                cells,
                &scaled(&timer, &cold_p),
                &scaled(&timer, &warm_p),
            );
        }
    }
}

/// Traced rows must equal the untraced ones, and a traced cold + warm
/// round must be all misses, then all hits.
fn check_traced_round(
    report: &mut Report,
    round: usize,
    cells: usize,
    cold: &TracedPass,
    warm: &TracedPass,
    first_rows: &Option<String>,
) {
    for (pass, name) in [(cold, "cold"), (warm, "warm")] {
        report.attempted += cells as u64;
        report.failed += pass.rows.iter().filter(|r| r.error.is_some()).count() as u64;
        report.check(Some(rows_json(&pass.rows)) == *first_rows, || {
            format!("round {round}: traced {name} rows differ from untraced rows")
        });
    }
    report.check(
        cold.misses == cells as u64 && warm.hits == cells as u64,
        || format!("round {round}: traced passes were not all-miss then all-hit"),
    );
}

/// One traced cold + warm round through a `DirStore` under the run's
/// directory: the on-disk cost of a get and a put, and the bytes an entry
/// takes. Only traced runs make it, because on a disk-backed file system
/// its times swing too widely for an end-to-end bound.
fn dir_store_round(
    ctx: &Ctx,
    report: &mut Report,
    spec: &SweepSpec,
    first_rows: &Option<String>,
    traced: &mut LayerAccum,
    origin: Instant,
) {
    let cells = spec.cells();
    let dir = ctx.work.join("dir-store");
    let store = DirStore::new(&dir);
    let cold = traced_pass(spec, Some(&store), origin);
    let bytes = dir_bytes(&dir) as f64;
    let warm = traced_pass(spec, Some(&store), origin);
    check_traced_round(report, 0, cells, &cold, &warm, first_rows);
    traced.dir.add(&cold.recorders);
    traced.dir.add(&warm.recorders);
    traced.dir_bytes_per_put = bytes / cold.misses.max(1) as f64;
    report.info("store_bytes_per_cell", bytes / cells as f64, "B");
    println!("DirStore round on {}", crate::fs_type(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Store-counter and `SweepStats` cross-checks of one cold + warm round.
pub fn check_store_passes(
    report: &mut Report,
    cells: usize,
    cold: &SweepReport,
    warm: &SweepReport,
    before: [i64; 4],
    mid: [i64; 4],
    after: [i64; 4],
) {
    let c = counter_delta(mid, before);
    let w = counter_delta(after, mid);
    let n = cells as i64;
    report.check(
        cold.stats.simulated == cells && cold.stats.cache_hits == 0 && cold.stats.errors == 0,
        || format!("cold pass stats {:?} are not all simulated", cold.stats),
    );
    report.check(warm.stats.cache_hits == cells, || {
        format!("warm pass stats {:?} are not 100% hits", warm.stats)
    });
    report.check(c[0] == 0 && c[1] == n && c[2] == n, || {
        format!(
            "cold pass store counters hits/misses/puts {:?} disagree with {cells} misses",
            &c[..3]
        )
    });
    report.check(w[0] == n && w[1] == 0 && w[2] == 0, || {
        format!(
            "warm pass store counters hits/misses/puts {:?} disagree with {cells} hits",
            &w[..3]
        )
    });
}

/// The end-to-end metrics of a workload whose requests are whole passes:
/// throughput per pass kind, and each cold pass's wall time as the
/// latency of every cell it carried (all due at submission, all delivered
/// when the pass returns).
pub fn pass_metrics(report: &mut Report, cells: usize, cold_s: &[f64], warm_s: &[f64]) {
    let rate = |v: &[f64]| stats::median(&v.iter().map(|s| cells as f64 / s).collect::<Vec<_>>());
    report.e2e("cold_cells_per_s", rate(cold_s), "cells/s");
    report.e2e("warm_cells_per_s", rate(warm_s), "cells/s");
    let ms: Vec<f64> = cold_s.iter().map(|s| s * 1e3).collect();
    println!(
        "latency samples: {} cells in {} cold passes (p95 over cells)",
        cells * ms.len(),
        ms.len()
    );
    report.info("lat_p50_ms", stats::median(&ms), "ms");
    report.e2e("lat_p95_ms", stats::quantile(&ms, 0.95), "ms");
}

/// FNV-1a over the sorted JSON lines of `rows`: independent of row order.
fn rows_digest(rows: &[SweepRow]) -> u64 {
    let mut lines: Vec<String> = rows
        .iter()
        .map(|r| serde_json::to_string(r).expect("row serializes"))
        .collect();
    lines.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in lines.join("\n").bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `paper-grid` row checks: the recorded digest and round total, and
/// detection wherever the paper guarantees it.
fn check_paper_rows(report: &mut Report, rows: &[SweepRow], what: &str) {
    let digest = rows_digest(rows);
    let rounds: u64 = rows.iter().map(|r| r.rounds).sum();
    println!("{what}: rows digest {digest:#018x}, total rounds {rounds}");
    report.check(digest == PAPER_DIGEST && rounds == PAPER_ROUNDS, || {
        format!(
            "{what}: digest {digest:#018x} / rounds {rounds} differ from the recorded {PAPER_DIGEST:#018x} / {PAPER_ROUNDS}"
        )
    });
    let undetected = rows
        .iter()
        .filter(|r| {
            let guaranteed = r.algorithm != "undispersed_gathering"
                || r.kind == PlacementKind::UndispersedRandom;
            guaranteed && !r.detected_ok
        })
        .count();
    report.check(undetected == 0, || {
        format!("{what}: {undetected} rows without a detected gathering where one is guaranteed")
    });
}

/// `paper-grid`: a local sweep over cells that run to completion, with no
/// result store: the engine and the algorithms do almost all the work.
pub struct PaperGrid {
    spec: SweepSpec,
}

impl Workload for PaperGrid {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let spec = paper_grid(ctx.seed);
        let _ = spec.specs();
        warm_memo(&spec)?;
        Ok(PaperGrid { spec })
    }

    fn measure(self, ctx: &Ctx, report: &mut Report) {
        let spec = &self.spec;
        let cells = spec.cells();
        let origin = Instant::now();
        let mut rounds = Rounds::new(ctx.budget(1.0));
        let mut traced = LayerAccum::new();
        let (mut traced_cold, mut traced_warm) = (Vec::new(), Vec::new());
        let (mut sum_cold, mut sum_warm) = (Vec::new(), Vec::new());
        let mut jsonl = String::new();
        let mut first_rows: Option<String> = None;
        let mut timer = PassTimer::new();
        let (mut cold_p, mut warm_p) = (Vec::new(), Vec::new());
        while rounds.another() {
            let round = rounds.done;
            let (cold, t) = sweep_pass(&mut timer, spec, None);
            cold_p.push(t);
            let (warm, t) = sweep_pass(&mut timer, spec, None);
            warm_p.push(t);
            report.attempted += 2 * cells as u64;
            report.failed += (cold.stats.errors + warm.stats.errors) as u64;
            check_paper_rows(report, &cold.rows, &format!("round {round} cold"));
            let cold_json = rows_json(&cold.rows);
            report.check(rows_json(&warm.rows) == cold_json, || {
                format!("round {round}: warm rows differ from cold rows")
            });
            first_rows.get_or_insert(cold_json);
            report.first_round_done();
            if ctx.trace {
                for (name, times, sums) in [
                    ("cold", &mut traced_cold, &mut sum_cold),
                    ("warm", &mut traced_warm, &mut sum_warm),
                ] {
                    let pass = traced_pass(spec, None, origin);
                    report.attempted += cells as u64;
                    report.failed += pass.rows.iter().filter(|r| r.error.is_some()).count() as u64;
                    report.check(Some(rows_json(&pass.rows)) == first_rows, || {
                        format!("round {round}: traced {name} rows differ from untraced rows")
                    });
                    if !traced.first_round_done {
                        trace::write_jsonl(&mut jsonl, name, &pass.recorders);
                    }
                    traced.add_pass(&pass);
                    times.push(secs(pass.wall) * 1e3);
                    sums.push(self_sum_ms(&pass.recorders));
                }
                traced.first_round_done = true;
            }
        }
        print_rates(cells, rounds.done, &timer, &cold_p, &warm_p);
        if ctx.trace {
            reconcile(report, "cold", &wall_ms(&cold_p), &traced_cold, &sum_cold);
            reconcile(report, "warm", &wall_ms(&warm_p), &traced_warm, &sum_warm);
            traced.report(report);
            crate::write_trace(ctx, &jsonl);
        } else {
            // With no store every pass recomputes the whole grid, so every
            // pass is a cold pass and a warm pass alike: both rates and the
            // latency take all of them, twice the samples of either half.
            let all: Vec<Pass> = cold_p.iter().chain(&warm_p).copied().collect();
            let all = scaled(&timer, &all);
            pass_metrics(report, cells, &all, &all);
        }
    }
}
