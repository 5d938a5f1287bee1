//! Pins the simulator's idle fast-forward to the round-by-round run.
//!
//! `Simulator::run` skips windows in which every robot promised, through
//! `Robot::idle_rounds`, to stay put and repeat itself. These tests run the
//! idle-heavy algorithms (`faster_gathering`, `undispersed_gathering`) once
//! as they are and once behind [`NoSkip`], which hides the promise so every
//! round executes, and require the two full `SimOutcome`s to serialize to
//! the same JSON: rounds, per-robot moves and peak memory, messages, first
//! gather and contact rounds, the termination round and final positions.
//!
//! Round caps are chosen to cut runs inside an idle window and either side
//! of a memory-sampling multiple of 64, where a wrong message count or a
//! missed memory sample would show. [`Spy`] counts the rounds each run
//! actually skipped, so an engine that silently stopped skipping (for
//! instance on the erased `DynRobot` path) fails too.

use gather_core::schedule::{
    faster_step_start, undispersed_phase1_rounds, undispersed_total_rounds,
};
use gather_core::{registry, BuiltinRobot, FasterRobot, GatherConfig, UndispersedRobot};
use gather_graph::generators::Family;
use gather_graph::{algo, PortGraph};
use gather_sim::placement::{self, Placement, PlacementKind};
use gather_sim::{Action, DynRobot, Inbox, Observation, Robot, RobotId, SimConfig, Simulator};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Forwards every [`Robot`] method except the idle promise, so the engine
/// executes every round.
struct NoSkip<R>(R);

impl<R: Robot> Robot for NoSkip<R> {
    type Msg = R::Msg;
    const REUSES_MSG_STORAGE: bool = R::REUSES_MSG_STORAGE;

    fn id(&self) -> RobotId {
        self.0.id()
    }

    fn announce(&mut self, obs: &Observation) -> R::Msg {
        self.0.announce(obs)
    }

    fn announce_reuse(&mut self, obs: &Observation, prev: Option<R::Msg>) -> R::Msg {
        self.0.announce_reuse(obs, prev)
    }

    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, R::Msg>) -> Action {
        self.0.decide(obs, inbox)
    }

    fn has_terminated(&self) -> bool {
        self.0.has_terminated()
    }

    fn memory_estimate_bits(&self) -> usize {
        self.0.memory_estimate_bits()
    }
}

/// Forwards every [`Robot`] method, adding the rounds it is told to skip to
/// a shared tally.
struct Spy<R> {
    inner: R,
    skipped: Arc<AtomicU64>,
}

impl<R: Robot> Robot for Spy<R> {
    type Msg = R::Msg;
    const REUSES_MSG_STORAGE: bool = R::REUSES_MSG_STORAGE;

    fn id(&self) -> RobotId {
        self.inner.id()
    }

    fn announce(&mut self, obs: &Observation) -> R::Msg {
        self.inner.announce(obs)
    }

    fn announce_reuse(&mut self, obs: &Observation, prev: Option<R::Msg>) -> R::Msg {
        self.inner.announce_reuse(obs, prev)
    }

    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, R::Msg>) -> Action {
        self.inner.decide(obs, inbox)
    }

    fn has_terminated(&self) -> bool {
        self.inner.has_terminated()
    }

    fn memory_estimate_bits(&self) -> usize {
        self.inner.memory_estimate_bits()
    }

    fn idle_rounds(&self) -> u64 {
        self.inner.idle_rounds()
    }

    fn skip_idle_rounds(&mut self, rounds: u64) {
        self.skipped.fetch_add(rounds, Ordering::Relaxed);
        self.inner.skip_idle_rounds(rounds)
    }
}

/// Runs `robots` behind [`Spy`]; returns the outcome's JSON and the rounds
/// skipped (summed over robots).
fn spied_run<R: Robot>(graph: &PortGraph, robots: Vec<(R, usize)>, cap: u64) -> (String, u64) {
    let skipped = Arc::new(AtomicU64::new(0));
    let robots = robots
        .into_iter()
        .map(|(inner, node)| {
            let skipped = Arc::clone(&skipped);
            (Spy { inner, skipped }, node)
        })
        .collect();
    let out = Simulator::new(graph, SimConfig::with_max_rounds(cap)).run(robots);
    let json = serde_json::to_string(&out).expect("outcomes serialize");
    (json, skipped.load(Ordering::Relaxed))
}

/// Runs `robots` behind [`NoSkip`]; returns the outcome's JSON.
fn executed_run<R: Robot>(graph: &PortGraph, robots: Vec<(R, usize)>, cap: u64) -> String {
    let robots = robots
        .into_iter()
        .map(|(r, node)| (NoSkip(r), node))
        .collect();
    let out = Simulator::new(graph, SimConfig::with_max_rounds(cap)).run(robots);
    serde_json::to_string(&out).expect("outcomes serialize")
}

/// Asserts skipping and executing give the same outcome for robot type `R`
/// under each cap; returns the rounds skipped under the first (largest) cap.
fn assert_equivalent<R: BuiltinRobot>(
    case: &str,
    graph: &PortGraph,
    start: &Placement,
    caps: &[u64],
) -> u64 {
    let cfg = GatherConfig::fast();
    let mut first_skipped = None;
    for &cap in caps {
        let (skipping, skipped) = spied_run(graph, R::robots(graph, start, &cfg), cap);
        let executed = executed_run(graph, R::robots(graph, start, &cfg), cap);
        assert_eq!(
            skipping,
            executed,
            "{} {case} cap {cap}: skipping changed the outcome",
            R::NAME
        );
        first_skipped.get_or_insert(skipped);
    }
    first_skipped.expect("at least one cap")
}

/// The placements of one case, on a graph that admits them all.
fn placements(graph: &PortGraph) -> Vec<PlacementKind> {
    let mut kinds = vec![
        PlacementKind::DispersedRandom,
        PlacementKind::UndispersedRandom,
        PlacementKind::MaxSpread,
        PlacementKind::AllOnOneNode,
        PlacementKind::TwoClusters,
        PlacementKind::PairAtDistance(1),
    ];
    if algo::diameter(graph) >= 2 {
        kinds.push(PlacementKind::PairAtDistance(2));
    }
    kinds
}

/// Checks robot type `R` over families, every placement kind, seeds and
/// sizes in 5..16. `full_cap(n)` is the cap every case runs to; a rotating
/// subset of cases also runs to the inner caps.
fn check_grid<R: BuiltinRobot>(full_cap: impl Fn(usize) -> u64) {
    let cfg = GatherConfig::fast();
    let families = [
        Family::Path,
        Family::Cycle,
        Family::Complete,
        Family::Star,
        Family::Grid,
        Family::Lollipop,
        Family::RandomSparse,
        Family::Hypercube,
    ];
    let mut cases = 0;
    for (f, family) in families.iter().enumerate() {
        // Spread the seeds over 1..=3 and the sizes over 5..16.
        let seed = 1 + f as u64 % 3;
        let graph = family.instantiate(5 + (f * 7 + 3) % 11, seed).unwrap();
        let n = graph.n();
        let ids = placement::sequential_ids(4.min(n));
        let r1 = undispersed_phase1_rounds(n, &cfg);
        // A multiple of 64 inside step 1's Phase 1 with caps either side of
        // it, and one cap in the middle of the idle wait.
        let m64 = (r1 / 2).next_multiple_of(64);
        let inner_caps = [r1 / 3 + 5, m64 - 1, m64, m64 + 1];
        for (p, kind) in placements(&graph).into_iter().enumerate() {
            let start = placement::generate(&graph, kind, &ids, seed + 10);
            let case = format!("{} n={n} {kind:?} seed {seed}", graph.name());
            // The inner caps rotate over the placements so that each kind
            // meets them on some family.
            let inner = if (f + p) % 3 == 0 {
                &inner_caps[..]
            } else {
                &[]
            };
            let caps: Vec<u64> = [full_cap(n)].iter().chain(inner).copied().collect();
            let skipped = assert_equivalent::<R>(&case, &graph, &start, &caps);
            assert!(skipped > 0, "{} {case}: no round was skipped", R::NAME);
            cases += 1;
        }
    }
    assert!(cases >= 50, "only {cases} cases ran");
}

#[test]
fn skipping_leaves_undispersed_gathering_outcomes_unchanged() {
    // The run ends at round R + 1.
    check_grid::<UndispersedRobot>(|n| undispersed_total_rounds(n, &GatherConfig::fast()) + 2);
}

#[test]
fn skipping_leaves_faster_gathering_outcomes_unchanged() {
    // Through step 2 (a second Undispersed wait) into step 3's hop segment.
    check_grid::<FasterRobot>(|n| faster_step_start(3, n, &GatherConfig::fast()) + 3 * n as u64);
}

/// A `with_known_distance` robot starts mid-schedule (step 3 here), so its
/// Undispersed segment begins after a hop segment, not at round 0.
#[test]
fn skipping_matches_for_robots_that_start_mid_schedule() {
    let cfg = GatherConfig::fast();
    let graph = Family::Cycle.instantiate(9, 1).unwrap();
    let start = placement::generate(
        &graph,
        PlacementKind::PairAtDistance(2),
        &placement::sequential_ids(2),
        3,
    );
    let mk = || -> Vec<(FasterRobot, usize)> {
        start
            .robots
            .iter()
            .map(|&(id, node)| (FasterRobot::with_known_distance(id, 9, &cfg, 2), node))
            .collect()
    };
    for cap in [5_000, 50_000, 1_000_000] {
        let (skipping, _) = spied_run(&graph, mk(), cap);
        assert_eq!(skipping, executed_run(&graph, mk(), cap), "cap {cap}");
    }
    let (_, skipped) = spied_run(&graph, mk(), 1_000_000);
    assert!(skipped > 0, "no round was skipped");
}

/// Runs started through `AlgorithmFactory::spawn` (erased `DynRobot`s) skip
/// exactly like the monomorphic `run` path and give the same outcome.
#[test]
fn erased_robots_skip_like_typed_ones() {
    let cfg = GatherConfig::fast();
    // Four lone robots: Faster-Gathering's step 1 is one long wait.
    let graph = Family::Grid.instantiate(12, 1).unwrap();
    let start = placement::generate(
        &graph,
        PlacementKind::MaxSpread,
        &placement::sequential_ids(4),
        7,
    );
    let cap = faster_step_start(2, graph.n(), &cfg) + 40;
    for name in ["faster_gathering", "undispersed_gathering"] {
        let factory = registry::global().get(name).expect("builtin");
        let typed = factory.run(&graph, &start, &cfg, SimConfig::with_max_rounds(cap));
        let typed = serde_json::to_string(&typed).unwrap();
        let erased: Vec<(Box<dyn DynRobot>, usize)> = factory.spawn(&graph, &start, &cfg);
        let (erased, skipped) = spied_run(&graph, erased, cap);
        assert_eq!(
            erased, typed,
            "{name}: erased run differs from the typed run"
        );
        assert!(skipped > 0, "{name}: the erased path skipped nothing");
        let executed = executed_run(&graph, factory.spawn(&graph, &start, &cfg), cap);
        assert_eq!(executed, typed, "{name}: skipping changed the outcome");
    }
}
