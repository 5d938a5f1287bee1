//! `daemon-requests`: single-cell `SubmitScenario` requests to one
//! in-process daemon over two persistent connections.
//!
//! A run has three phases. Two closed-loop passes measure how many cells
//! per second the request path serves: first over distinct cells (cold),
//! then over the same cells again (warm, all hits). An open-loop phase then
//! sends requests on a seeded bursty (MMPP) schedule and times each one
//! from its due time to its `Done` frame.

use crate::fleet::{worker_busy_us, Daemon};
use crate::local::{counter_delta, probe_grid, store_counters, warm_memo};
use crate::mmpp::Mmpp;
use crate::stats::{self, Rng};
use crate::trace::{LayerTotals, Recorder};
use crate::{reconcile, Ctx, Report, Workload, PARALLELISM};
use gather_core::artifact::ArtifactCache;
use gather_core::cache::{CachePolicy, MemStore};
use gather_core::registry;
use gather_core::scenario::ScenarioSpec;
use gather_core::sweep::{SweepRow, SweepStats};
use gather_service::client::Client;
use gather_service::scheduler::{JobEvent, Scheduler};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Latency limit of one request; slower or failed requests miss it.
const SLO_MS: f64 = 100.0;

/// Shares of `--seconds` per phase (untraced runs).
const COLD_SHARE: f64 = 0.08;
const OPEN_SHARE: f64 = 0.8;

/// Shares of `--seconds` per phase (traced runs): untraced cold, traced
/// cold, and the in-process scheduler replay.
const TRACE_COLD_SHARE: f64 = 0.12;
const REPLAY_SHARE: f64 = 0.4;

/// One finished request.
struct Done {
    cell: usize,
    row: SweepRow,
    stats: SweepStats,
    /// When the request was due: its slot in the open-loop schedule, or,
    /// in a closed loop, when it was sent.
    due: Instant,
    /// When it was sent and when its `Accepted`, `Row` and `Done` frames
    /// arrived.
    sent: Instant,
    accepted: Instant,
    got_row: Instant,
    finished: Instant,
}

/// Sends one request and reads its three frames. A traced request records
/// a span per frame wait.
fn request(
    client: &mut Client,
    cell: usize,
    spec: &ScenarioSpec,
    due: Instant,
    rec: Option<&mut Recorder>,
) -> Result<Done, String> {
    let sent = Instant::now();
    let mut stream = client.submit_scenario(spec).map_err(|e| e.to_string())?;
    let accepted = Instant::now();
    let (index, row) = stream
        .next_row()
        .map_err(|e| e.to_string())?
        .ok_or("job ended without a row")?;
    let got_row = Instant::now();
    if stream.next_row().map_err(|e| e.to_string())?.is_some() {
        return Err("a one-cell job streamed two rows".to_string());
    }
    let finished = Instant::now();
    let stats = stream.stats().ok_or("stream ended without Done")?;
    if index != 0 {
        return Err(format!("row index {index} for a one-cell job"));
    }
    if let Some(rec) = rec {
        let id = cell as u64;
        let root = rec.open_at("request", id, None, sent);
        rec.span_at("client.accept", id, Some(root), sent, accepted);
        rec.span_at("client.row", id, Some(root), accepted, got_row);
        rec.span_at("client.done", id, Some(root), got_row, finished);
        rec.close_at(root, finished);
    }
    Ok(Done {
        cell,
        row,
        stats,
        due,
        sent,
        accepted,
        got_row,
        finished,
    })
}

/// What one load phase produced.
struct Phase {
    done: Vec<Done>,
    failed: usize,
    wall: Duration,
    recorders: Vec<Recorder>,
}

/// Runs `cells` over the connections, each request as soon as a connection
/// is free (closed loop), until the list or the budget runs out.
fn closed_loop(
    clients: &mut [Client],
    specs: &[ScenarioSpec],
    cells: &[usize],
    budget: Duration,
    traced: bool,
) -> Phase {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let origin = started;
    let results: Vec<(Vec<Done>, usize, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(thread, client)| {
                let next = &next;
                scope.spawn(move || {
                    let mut rec = Recorder::new(origin, thread);
                    let (mut done, mut failed) = (Vec::new(), 0);
                    while started.elapsed() < budget {
                        let Some(&cell) = cells.get(next.fetch_add(1, Ordering::Relaxed)) else {
                            break;
                        };
                        let rec = traced.then_some(&mut rec);
                        match request(client, cell, &specs[cell], Instant::now(), rec) {
                            Ok(d) => done.push(d),
                            Err(e) => {
                                println!("request for cell {cell} failed: {e}");
                                failed += 1;
                                break;
                            }
                        }
                    }
                    (done, failed, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    collect(results, started.elapsed())
}

fn collect(results: Vec<(Vec<Done>, usize, Recorder)>, wall: Duration) -> Phase {
    let mut phase = Phase {
        done: Vec::new(),
        failed: 0,
        wall,
        recorders: Vec::new(),
    };
    for (done, failed, rec) in results {
        phase.done.extend(done);
        phase.failed += failed;
        phase.recorders.push(rec);
    }
    phase.done.sort_by_key(|d| d.sent);
    phase
}

/// Sends the request for arrival `i` at `start + arrivals[i]` on whichever
/// connection is free (open loop: the schedule does not wait for replies).
fn open_loop(clients: &mut [Client], specs: &[ScenarioSpec], arrivals: &[(f64, usize)]) -> Phase {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let results: Vec<(Vec<Done>, usize, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(thread, client)| {
                let next = &next;
                scope.spawn(move || {
                    let (mut done, mut failed) = (Vec::new(), 0);
                    while let Some(&(at, cell)) = arrivals.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        let due = started + Duration::from_secs_f64(at);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        match request(client, cell, &specs[cell], due, None) {
                            Ok(d) => done.push(d),
                            Err(e) => {
                                println!("request for cell {cell} failed: {e}");
                                failed += 1;
                            }
                        }
                    }
                    (done, failed, Recorder::new(started, thread))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    collect(results, started.elapsed())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub struct DaemonRequests {
    specs: Vec<ScenarioSpec>,
    /// Distinct cells in a seeded order, for the closed-loop passes.
    order: Vec<usize>,
    /// How many of `order` earlier passes used.
    used: usize,
    /// The open-loop schedule: (seconds from start, cell).
    arrivals: Vec<(f64, usize)>,
    /// Expected rows by cell, from local runs.
    expected: BTreeMap<usize, String>,
    /// Declared before the daemon, so the connections close first.
    clients: Vec<Client>,
    _daemon: Daemon,
}

impl Workload for DaemonRequests {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let grid = probe_grid(ctx.seed);
        let specs = grid.specs();
        let mut rng = Rng::new(ctx.seed ^ 0xD43A);
        let mut order: Vec<usize> = (0..specs.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let horizon = ctx.seconds * if ctx.trace { REPLAY_SHARE } else { OPEN_SHARE };
        let arrivals = Mmpp::DAEMON_REQUESTS
            .fixed_count(rng.next_u64(), horizon)
            .into_iter()
            .map(|at| (at, rng.below(specs.len())))
            .collect();
        let daemon = Daemon::start(PARALLELISM, Arc::new(MemStore::new()))?;
        let clients = (0..PARALLELISM)
            .map(|_| daemon.connect())
            .collect::<Result<Vec<_>, _>>()?;
        warm_memo(&grid)?;
        Ok(DaemonRequests {
            specs,
            order,
            used: 0,
            arrivals,
            expected: BTreeMap::new(),
            clients,
            _daemon: daemon,
        })
    }

    fn measure(mut self, ctx: &Ctx, report: &mut Report) {
        let budget = ctx.budget(if ctx.trace {
            TRACE_COLD_SHARE
        } else {
            COLD_SHARE
        });
        let (cold, warm) = self.closed_passes(report, budget, false);
        if ctx.trace {
            let (traced_cold, traced_warm) = self.closed_passes(report, budget, true);
            trace_layers(report, [&cold, &warm], [&traced_cold, &traced_warm]);
            replay_scheduler(report, &self.specs, &self.arrivals);
            return;
        }
        let rate = |p: &Phase| p.done.len() as f64 / p.wall.as_secs_f64();
        println!(
            "closed loop: cold {} requests in {:.3} s, warm {} requests in {:.3} s",
            cold.done.len(),
            cold.wall.as_secs_f64(),
            warm.done.len(),
            warm.wall.as_secs_f64()
        );
        report.e2e("cold_cells_per_s", rate(&cold), "cells/s");
        report.e2e("warm_cells_per_s", rate(&warm), "cells/s");
        let open = open_loop(&mut self.clients, &self.specs, &self.arrivals);
        report.attempted += self.arrivals.len() as u64;
        report.failed += (self.arrivals.len() - open.done.len()) as u64;
        self.check_rows(report, &open.done);
        open_loop_metrics(report, &open, self.arrivals.len());
    }
}

impl DaemonRequests {
    /// A closed-loop pass over cells no earlier pass used (all misses),
    /// then one over the same cells again (all hits), with their checks.
    fn closed_passes(
        &mut self,
        report: &mut Report,
        budget: Duration,
        traced: bool,
    ) -> (Phase, Phase) {
        let c0 = store_counters();
        let order = &self.order[self.used..];
        let cold = closed_loop(&mut self.clients, &self.specs, order, budget, traced);
        let c1 = store_counters();
        let cells: Vec<usize> = cold.done.iter().map(|d| d.cell).collect();
        self.used += cells.len() + cold.failed;
        let warm = closed_loop(
            &mut self.clients,
            &self.specs,
            &cells,
            Duration::MAX,
            traced,
        );
        let c2 = store_counters();
        for (phase, name, hits) in [(&cold, "cold", 0), (&warm, "warm", 1)] {
            report.attempted += (phase.done.len() + phase.failed) as u64;
            report.failed += phase.failed as u64;
            let wrong = phase
                .done
                .iter()
                .filter(|d| d.stats.cache_hits != hits || d.stats.errors != 0)
                .count();
            report.check(wrong == 0, || {
                format!(
                    "{name} pass: {wrong} requests were not {}",
                    ["misses", "hits"][hits]
                )
            });
            self.check_rows(report, &phase.done);
        }
        let n = cells.len();
        report.check(warm.done.len() == n, || {
            format!("warm pass finished {} of {n} requests", warm.done.len())
        });
        let (c, w) = (counter_delta(c1, c0), counter_delta(c2, c1));
        let n = n as i64;
        report.check(c[1] == n && c[2] == n && w[0] == n && w[1] == 0, || {
            format!(
                "store counters cold {:?} / warm {:?} disagree with {n} requests",
                &c[..3],
                &w[..3]
            )
        });
        (cold, warm)
    }

    /// Each row must equal a store-less local run of its cell, byte for byte.
    fn check_rows(&mut self, report: &mut Report, done: &[Done]) {
        for d in done {
            let expected = self.expected.entry(d.cell).or_insert_with(|| {
                let spec = &self.specs[d.cell];
                let (row, _) =
                    SweepRow::compute(spec, registry::global(), None, CachePolicy::Off, None);
                serde_json::to_string(&row).expect("row serializes")
            });
            let got = serde_json::to_string(&d.row).expect("row serializes");
            report.check(*expected == got, || {
                format!("cell {}: daemon row differs from a local run", d.cell)
            });
        }
    }
}

fn open_loop_metrics(report: &mut Report, open: &Phase, scheduled: usize) {
    let latency: Vec<f64> = open.done.iter().map(|d| ms(d.finished - d.due)).collect();
    let late: Vec<f64> = open.done.iter().map(|d| ms(d.sent - d.due)).collect();
    let missed = latency.iter().filter(|&&l| l > SLO_MS).count() + (scheduled - open.done.len());
    let mmpp = Mmpp::DAEMON_REQUESTS;
    println!(
        "open loop: {scheduled} requests over {:.3} s (MMPP calm {}/s for {} s, burst {}/s for {} s, mean {}/s), {} completed",
        open.wall.as_secs_f64(),
        mmpp.calm_rate,
        mmpp.calm_sojourn_s,
        mmpp.burst_rate,
        mmpp.burst_sojourn_s,
        mmpp.mean_rate(),
        open.done.len()
    );
    if latency.is_empty() {
        report.check(false, || "the open loop completed no request".to_string());
        return;
    }
    println!(
        "generator lateness (send - due): p50 {:.3} ms, max {:.3} ms",
        stats::median(&late),
        stats::quantile(&late, 1.0)
    );
    println!("latency limit {SLO_MS} ms");
    report.info("slo_miss_frac", missed as f64 / scheduled as f64, "ratio");
    let stalled = latency.iter().filter(|&&l| l > 20.0).count();
    println!("requests over 20 ms: {stalled} of {}", latency.len());
    report.info("lat_p50_ms", stats::median(&latency), "ms");
    let (pct, value) =
        stats::tail_percentile(&latency).unwrap_or((100, stats::quantile(&latency, 1.0)));
    println!("lat_p95_ms is p{pct} of {} requests", latency.len());
    report.e2e("lat_p95_ms", value, "ms");
}

/// Per-layer metrics of the client: the time to each frame of a request,
/// plus the reconciliation of per-request time against the frame waits.
fn trace_layers(report: &mut Report, untraced: [&Phase; 2], traced: [&Phase; 2]) {
    for (pass, plain, with_spans) in [
        ("cold", untraced[0], traced[0]),
        ("warm", untraced[1], traced[1]),
    ] {
        let per_request = |p: &Phase| {
            p.done
                .iter()
                .map(|d| ms(d.finished - d.sent))
                .collect::<Vec<_>>()
        };
        let mut spans = LayerTotals::default();
        spans.add(&with_spans.recorders);
        let requests = with_spans.done.len().max(1) as f64;
        let self_sum = spans.total_self_us() / 1e3 / requests;
        reconcile(
            report,
            pass,
            &per_request(plain),
            &per_request(with_spans),
            &[self_sum],
        );
    }
    let all: Vec<&Done> = traced.iter().flat_map(|p| &p.done).collect();
    let med = |f: &dyn Fn(&Done) -> Duration| {
        stats::median(&all.iter().map(|d| ms(f(d))).collect::<Vec<_>>())
    };
    report.layer("client.accept_ms", med(&|d| d.accepted - d.sent), "ms");
    report.layer("client.row_ms", med(&|d| d.got_row - d.accepted), "ms");
    report.layer("client.done_ms", med(&|d| d.finished - d.got_row), "ms");
}

/// Replays the open-loop schedule straight into an in-process
/// `Scheduler` (no sockets): the time from `submit` to the job's `Row`
/// event, and how busy the workers were.
fn replay_scheduler(report: &mut Report, specs: &[ScenarioSpec], arrivals: &[(f64, usize)]) {
    let scheduler = Scheduler::new(
        PARALLELISM,
        Some(Arc::new(MemStore::new())),
        CachePolicy::ReadWrite,
        Arc::new(ArtifactCache::new()),
    );
    let (tx, rx) = mpsc::channel::<(Instant, mpsc::Receiver<JobEvent>)>();
    let busy = worker_busy_us();
    let started = Instant::now();
    let waits: Vec<f64> = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            rx.into_iter()
                .filter(|(_, events)| matches!(events.recv(), Ok(JobEvent::Row { .. })))
                .map(|(submitted, _)| submitted.elapsed().as_secs_f64() * 1e6)
                .collect()
        });
        for &(at, cell) in arrivals {
            let due = started + Duration::from_secs_f64(at);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let submitted = Instant::now();
            let (_job, events) = scheduler.submit(vec![specs[cell].clone()], None);
            let _ = tx.send((submitted, events));
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let wall = started.elapsed();
    let busy_us = (worker_busy_us() - busy) as f64;
    scheduler.shutdown();
    report.check(waits.len() == arrivals.len(), || {
        format!(
            "scheduler replay: {} of {} jobs produced a row",
            waits.len(),
            arrivals.len()
        )
    });
    report.attempted += arrivals.len() as u64;
    report.failed += (arrivals.len() - waits.len()) as u64;
    report.layer(
        "scheduler.wait_us",
        if waits.is_empty() {
            0.0
        } else {
            stats::median(&waits)
        },
        "us",
    );
    report.layer(
        "scheduler.worker_busy_frac",
        busy_us / (wall.as_secs_f64() * 1e6 * PARALLELISM as f64),
        "ratio",
    );
}
