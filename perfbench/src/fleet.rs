//! In-process daemons, and the `fleet-stream` workload: the `probe-cache`
//! grid through `gather_coord::run_sweep` to two loopback daemons sharing
//! one result store.

use crate::local::{
    check_store_passes, counter_delta, pass_metrics, probe_grid, rows_json, scaled, store_counters,
    warm_memo,
};
use crate::speed::{Pass, PassTimer};
use crate::stats;
use crate::trace::{self, LayerTotals, Recorder};
use crate::{reconcile, Ctx, Report, Rounds, Workload, PARALLELISM};
use gather_coord::{run_sweep, CoordConfig, CoordOutcome};
use gather_core::cache::{spec_key, CacheEntry, CachePolicy, MemStore, ResultStore};
use gather_core::sweep::SweepSpec;
use gather_obs::Registry;
use gather_service::client::Client;
use gather_service::protocol::{read_frame, write_frame, Response};
use gather_service::server::{Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A daemon serving on a loopback port from a thread of this process.
pub struct Daemon {
    pub addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    pub fn start(workers: usize, store: Arc<dyn ResultStore>) -> Result<Daemon, String> {
        let server = Server::bind(ServerConfig {
            workers,
            store: Some(store),
            policy: CachePolicy::ReadWrite,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind daemon: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            thread: Some(thread),
        })
    }

    /// A connection that has completed one `Status` round trip.
    pub fn connect(&self) -> Result<Client, String> {
        let mut client = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        client.status(None).map_err(|e| format!("status: {e}"))?;
        Ok(client)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut client) = Client::connect(self.addr) {
            let _ = client.shutdown();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Sum of every worker's `service_worker_busy_micros` counter.
pub fn worker_busy_us() -> i64 {
    Registry::global()
        .snapshot()
        .samples
        .iter()
        .filter(|s| s.name.starts_with("service_worker_busy_micros"))
        .map(|s| s.value)
        .sum()
}

fn coord_counters() -> [i64; 2] {
    let snap = Registry::global().snapshot();
    ["coord_redispatch_total", "coord_steals_total"].map(|n| snap.value(n).unwrap_or(0))
}

/// A shared store that records a span around each `get` and `put` one
/// daemon's worker makes.
struct TracedStore {
    inner: Arc<MemStore>,
    rec: Mutex<Recorder>,
}

impl TracedStore {
    fn time<T>(&self, layer: &'static str, key: &str, f: impl FnOnce() -> T) -> T {
        let cell = key
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)));
        self.rec
            .lock()
            .expect("span recorder lock")
            .time(layer, cell, None, f)
    }

    fn drain(&self) -> Recorder {
        self.rec.lock().expect("span recorder lock").take()
    }
}

impl ResultStore for TracedStore {
    fn get(&self, key: &str) -> Option<CacheEntry> {
        self.time("cache.get", key, || self.inner.get(key))
    }

    fn put(&self, entry: &CacheEntry) {
        self.time("cache.put", &entry.key, || self.inner.put(entry))
    }
}

/// Warm passes per round. Each round binds a fresh pair of daemons for its
/// cold pass, so with one warm pass a run times as many cold passes as it
/// has time for: they are the samples of the cold rate and of the latency
/// tail, which with four warm passes a round (some 18 cold passes a run)
/// swung by a quarter from run to run.
const FLEET_WARM_PASSES: usize = 1;

struct Fleet {
    /// Kept so the daemons serve until the fleet is dropped.
    _daemons: Vec<Daemon>,
    config: CoordConfig,
}

impl Fleet {
    /// Two one-worker daemons sharing one fresh, empty store.
    fn fresh() -> Result<Fleet, String> {
        let shared: Arc<dyn ResultStore> = Arc::new(MemStore::new());
        Fleet::new(vec![shared.clone(), shared])
    }

    /// The same, with each daemon's store calls recorded.
    fn fresh_traced(origin: Instant) -> Result<(Fleet, Vec<Arc<TracedStore>>), String> {
        let shared = Arc::new(MemStore::new());
        let stores: Vec<Arc<TracedStore>> = (0..PARALLELISM)
            .map(|d| {
                Arc::new(TracedStore {
                    inner: shared.clone(),
                    rec: Mutex::new(Recorder::new(origin, d)),
                })
            })
            .collect();
        let dyn_stores = stores
            .iter()
            .map(|s| s.clone() as Arc<dyn ResultStore>)
            .collect();
        Ok((Fleet::new(dyn_stores)?, stores))
    }

    fn new(stores: Vec<Arc<dyn ResultStore>>) -> Result<Fleet, String> {
        let daemons = stores
            .into_iter()
            .map(|store| Daemon::start(1, store))
            .collect::<Result<Vec<_>, _>>()?;
        for daemon in &daemons {
            daemon.connect()?;
        }
        let config = CoordConfig {
            addrs: daemons.iter().map(|d| d.addr.to_string()).collect(),
            ..CoordConfig::default()
        };
        Ok(Fleet {
            _daemons: daemons,
            config,
        })
    }
}

pub struct FleetStream {
    spec: SweepSpec,
    /// The first round's daemons; each later round binds a fresh pair so
    /// that its cold pass starts from an empty store.
    fleet: Fleet,
}

impl Workload for FleetStream {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let spec = probe_grid(ctx.seed);
        let _ = spec.specs();
        let fleet = Fleet::fresh()?;
        warm_memo(&spec)?;
        Ok(FleetStream { spec, fleet })
    }

    fn measure(self, ctx: &Ctx, report: &mut Report) {
        let spec = &self.spec;
        let cells = spec.cells();
        let origin = Instant::now();
        let mut rounds = Rounds::new(ctx.budget(1.0));
        let (mut cold_s, mut warm_s) = (Vec::new(), Vec::new());
        let mut first_rows: Option<String> = None;
        let mut layers = FleetLayers::default();
        let mut fleet = Some(self.fleet);
        let mut timer = PassTimer::new();
        let mut cold_p = Vec::new();
        while rounds.another() {
            let round = rounds.done;
            let mut pass = |fleet: &Fleet, name: &str, report: &mut Report| {
                let busy = worker_busy_us();
                let coord = coord_counters();
                let (outcome, timed) = timer.time(|| run_sweep(spec, &fleet.config));
                let busy = worker_busy_us() - busy;
                let coord = [0, 1].map(|i| coord_counters()[i] - coord[i]);
                report.attempted += cells as u64;
                match outcome {
                    Ok(outcome) => {
                        check_fleet_pass(
                            report,
                            &outcome,
                            cells,
                            coord[0],
                            &format!("round {round} {name}"),
                        );
                        report.failed += outcome.report.stats.errors as u64;
                        let json = rows_json(&outcome.report.rows);
                        match &first_rows {
                            None => first_rows = Some(json),
                            Some(first) => report.check(*first == json, || {
                                format!("round {round}: {name} rows differ from round 1 cold rows")
                            }),
                        }
                        Some((outcome, timed, busy, coord))
                    }
                    Err(e) => {
                        report.failed += cells as u64;
                        report.check(false, || format!("round {round}: {name} pass failed: {e}"));
                        None
                    }
                }
            };
            let current = match fleet.take().map_or_else(Fleet::fresh, Ok) {
                Ok(f) => f,
                Err(e) => {
                    report.check(false, || format!("round {round}: {e}"));
                    break;
                }
            };
            let before = store_counters();
            let cold = pass(&current, "cold", report);
            let mid = store_counters();
            let mut warm = Vec::new();
            for _ in 0..FLEET_WARM_PASSES {
                let c = store_counters();
                warm.push((pass(&current, "warm", report), c, store_counters()));
            }
            drop(current);
            let (Some(cold), Some((Some(first_warm), _, after))) = (cold, warm.first()) else {
                break;
            };
            check_store_passes(
                report,
                cells,
                &cold.0.report,
                &first_warm.0.report,
                before,
                mid,
                *after,
            );
            for (w, c0, c1) in warm.iter().skip(1) {
                if let Some(w) = w {
                    let d = counter_delta(*c1, *c0);
                    report.check(
                        w.0.report.stats.cache_hits == cells && d[0] == cells as i64,
                        || format!("round {round}: repeated warm pass was not 100% hits"),
                    );
                }
            }
            report.first_round_done();
            cold_s.push(cold.1.wall.as_secs_f64());
            cold_p.push(cold.1);
            for (w, _, _) in warm.iter() {
                if let Some(w) = w {
                    warm_s.push(w.1.wall.as_secs_f64());
                    layers.coord(w, cells);
                }
            }
            if ctx.trace {
                let (traced_fleet, stores) = match Fleet::fresh_traced(origin) {
                    Ok(t) => t,
                    Err(e) => {
                        report.check(false, || format!("round {round}: {e}"));
                        break;
                    }
                };
                let c0 = store_counters();
                let cold = pass(&traced_fleet, "traced cold", report);
                let cold_spans: Vec<Recorder> = stores.iter().map(|s| s.drain()).collect();
                let warm = pass(&traced_fleet, "traced warm", report);
                let warm_spans: Vec<Recorder> = stores.iter().map(|s| s.drain()).collect();
                layers.corrupt += counter_delta(store_counters(), c0)[3];
                if let (Some(cold), Some(warm)) = (cold, warm) {
                    layers.traced(spec, &cold, cold_spans, &warm, warm_spans);
                }
            }
        }
        let reference = spec.clone().into_sweep().threads(PARALLELISM).run_default();
        report.attempted += cells as u64;
        report.failed += reference.stats.errors as u64;
        report.check(first_rows == Some(rows_json(&reference.rows)), || {
            "merged fleet rows differ from a local run of the same grid".to_string()
        });
        // Cold passes simulate every cell and are scaled to the reference
        // host speed; warm passes are all hits, whose time is mostly the
        // request path's fixed stalls, so they are left as measured.
        let cold_scaled = scaled(&timer, &cold_p);
        println!(
            "rounds {} of {cells} cells each: cold pass p50 {:.1} cells/s measured, {:.1} scaled; warm pass p50 {:.1} cells/s measured",
            rounds.done,
            cells as f64 / stats::median(&cold_s),
            cells as f64 / stats::median(&cold_scaled),
            cells as f64 / stats::median(&warm_s)
        );
        crate::local::print_host_speed(&timer);
        if ctx.trace {
            let mismatches = layers.frame_mismatches;
            report.check(mismatches == 0, || {
                format!("{mismatches} Row frames did not round-trip")
            });
            let ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<_>>();
            reconcile(
                report,
                "cold",
                &ms(&cold_s),
                &layers.traced_cold,
                &layers.sum_cold,
            );
            reconcile(
                report,
                "warm",
                &ms(&warm_s),
                &layers.traced_warm,
                &layers.sum_warm,
            );
            layers.report(report);
            crate::write_trace(ctx, &layers.jsonl);
        } else {
            pass_metrics(report, cells, &cold_scaled, &warm_s);
        }
    }
}

/// Per-daemon accounting checks of one coordinated pass.
fn check_fleet_pass(
    report: &mut Report,
    outcome: &CoordOutcome,
    cells: usize,
    redispatched: i64,
    what: &str,
) {
    let rows: usize = outcome.daemons.iter().map(|d| d.rows).sum();
    let died = outcome.daemons.iter().filter(|d| d.died).count();
    report.check(rows == cells && redispatched == 0 && died == 0, || {
        format!("{what}: daemons streamed {rows} of {cells} rows, {redispatched} re-dispatched, {died} died")
    });
    report.check(outcome.report.rows.len() == cells, || {
        format!(
            "{what}: {} merged rows for {cells} cells",
            outcome.report.rows.len()
        )
    });
}

type PassResult = (CoordOutcome, Pass, i64, [i64; 2]);

#[derive(Default)]
struct FleetLayers {
    totals: LayerTotals,
    /// Counts over the first traced round.
    gets: u64,
    hits: u64,
    corrupt: i64,
    encode: LayerTotals,
    bytes_per_row: Vec<f64>,
    /// Re-encoded `Row` frames that did not decode to the same row.
    frame_mismatches: usize,
    overhead_ms: Vec<f64>,
    chunks: Vec<f64>,
    steals: Vec<f64>,
    redispatches: Vec<f64>,
    traced_cold: Vec<f64>,
    traced_warm: Vec<f64>,
    sum_cold: Vec<f64>,
    sum_warm: Vec<f64>,
    jsonl: String,
}

impl FleetLayers {
    /// Coordinator overhead of an untraced warm pass: wall time minus the
    /// busiest daemon's worker time. In-process daemons share one worker
    /// counter, so busy time is split by each daemon's share of the rows.
    fn coord(&mut self, pass: &PassResult, cells: usize) {
        let (outcome, pass, busy_us, coord) = pass;
        let max_rows = outcome.daemons.iter().map(|d| d.rows).max().unwrap_or(0);
        let busiest_ms = *busy_us as f64 / 1e3 * max_rows as f64 / cells.max(1) as f64;
        self.overhead_ms
            .push(pass.wall.as_secs_f64() * 1e3 - busiest_ms);
        self.chunks
            .push(outcome.daemons.iter().map(|d| d.chunks).sum::<usize>() as f64);
        self.redispatches.push(coord[0] as f64);
        self.steals.push(coord[1] as f64);
    }

    fn traced(
        &mut self,
        spec: &SweepSpec,
        cold: &PassResult,
        cold_spans: Vec<Recorder>,
        warm: &PassResult,
        warm_spans: Vec<Recorder>,
    ) {
        let first = self.jsonl.is_empty();
        for (pass, spans, times, sums, name) in [
            (
                cold,
                &cold_spans,
                &mut self.traced_cold,
                &mut self.sum_cold,
                "cold",
            ),
            (
                warm,
                &warm_spans,
                &mut self.traced_warm,
                &mut self.sum_warm,
                "warm",
            ),
        ] {
            let mut totals = LayerTotals::default();
            totals.add(spans);
            times.push(pass.1.wall.as_secs_f64() * 1e3);
            sums.push(totals.total_self_us() / 1e3 / PARALLELISM as f64);
            self.totals.add(spans);
            if first {
                self.gets += totals.calls("cache.get");
                self.hits += if name == "warm" {
                    totals.calls("cache.get")
                } else {
                    0
                };
                trace::write_jsonl(&mut self.jsonl, name, spans);
            }
        }
        // Replays, on this thread, the per-row calls the pass made elsewhere:
        // the key every daemon worker computes, and the `Row` frame each
        // daemon encodes and the coordinator decodes.
        let mut rec = Recorder::new(Instant::now(), PARALLELISM);
        for (i, row) in warm.0.report.rows.iter().enumerate() {
            let cell = spec.cell_at(i).expect("index is inside the grid");
            let _ = rec.time("cache.key", i as u64, None, || spec_key(&cell));
            let frame = Response::Row {
                job: 1,
                index: i,
                row: row.clone(),
            };
            let mut buf = Vec::new();
            rec.time("protocol.encode", i as u64, None, || {
                write_frame(&mut buf, &frame)
            })
            .expect("row frame encodes");
            self.bytes_per_row.push(buf.len() as f64);
            let decoded: Option<Response> = rec
                .time("protocol.decode", i as u64, None, || {
                    read_frame(&mut &buf[..])
                })
                .expect("row frame decodes");
            if !matches!(decoded, Some(Response::Row { row: ref r, .. }) if r == row) {
                self.frame_mismatches += 1;
            }
        }
        self.encode.add(&[rec]);
    }

    fn report(&self, report: &mut Report) {
        let t = &self.totals;
        report.layer("cache.key_us", self.encode.mean_us("cache.key"), "us");
        report.layer("cache.key_calls", self.gets as f64, "count");
        report.layer("cache.get_us", t.mean_us("cache.get"), "us");
        report.layer("cache.hits", self.hits as f64, "count");
        report.layer("cache.misses", (self.gets - self.hits) as f64, "count");
        report.layer("cache.corrupt", self.corrupt as f64, "count");
        report.layer(
            "cache.hit_ratio",
            self.hits as f64 / self.gets.max(1) as f64,
            "ratio",
        );
        report.layer("cache.put_us", t.mean_us("cache.put"), "us");
        report.layer(
            "protocol.encode_us",
            self.encode.mean_us("protocol.encode"),
            "us",
        );
        report.layer(
            "protocol.decode_us",
            self.encode.mean_us("protocol.decode"),
            "us",
        );
        report.layer(
            "protocol.bytes_per_row",
            stats::mean(&self.bytes_per_row),
            "B",
        );
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
        report.layer("coord.overhead_ms", med(&self.overhead_ms), "ms");
        report.layer("coord.chunks", med(&self.chunks), "count");
        report.layer("coord.steals", med(&self.steals), "count");
        report.layer("coord.redispatches", med(&self.redispatches), "count");
    }
}
