//! Pins the simulator's idle fast-forward to the round-by-round run.
//!
//! `Simulator::run` skips windows in which every robot promised, through
//! `Robot::idle_rounds`, to stay put and repeat itself. These tests run the
//! idle-heavy algorithms (`faster_gathering`, `undispersed_gathering`,
//! `uxs_gathering`) once as they are and once behind [`NoSkip`], which
//! hides the promise so every round executes, and require the two full
//! `SimOutcome`s to serialize to the same JSON: rounds, per-robot moves and
//! peak memory, messages, first gather and contact rounds, the termination
//! round and final positions.
//!
//! Round caps are chosen to cut runs inside an idle window, at its edges and
//! either side of a memory-sampling multiple of 64, where a wrong message
//! count or a missed memory sample would show. [`Spy`] counts the rounds
//! each run actually skipped, so an engine that silently stopped skipping
//! (for instance on the erased `DynRobot` path) fails too.

use gather_core::schedule::{
    faster_step_start, undispersed_phase1_rounds, undispersed_total_rounds,
    uxs_gathering_round_bound,
};
use gather_core::{
    registry, BuiltinRobot, FasterRobot, GatherConfig, UndispersedRobot, UxsGatherRobot,
};
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

/// Checks robot type `R` over families, every placement kind and seeds
/// 1..=3. Family number `f` runs on a graph of size `size(f)` with up to `k`
/// robots; `full_cap(n)` is the cap every case runs to, and a rotating
/// third of the cases also runs to each of `inner_caps(n)`.
fn check_grid<R: BuiltinRobot>(
    size: impl Fn(usize) -> usize,
    k: usize,
    full_cap: impl Fn(usize) -> u64,
    inner_caps: impl Fn(usize) -> Vec<u64>,
) {
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
        let seed = 1 + f as u64 % 3;
        let graph = family.instantiate(size(f), seed).unwrap();
        let n = graph.n();
        let ids = placement::sequential_ids(k.min(n));
        let inner_caps = inner_caps(n);
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

/// Sizes spread over 5..16.
fn size_5_to_15(f: usize) -> usize {
    5 + (f * 7 + 3) % 11
}

/// A cap in the middle of Undispersed-Gathering's Phase 1 wait, and a
/// multiple of 64 inside it with caps either side.
fn phase1_caps(n: usize) -> Vec<u64> {
    let r1 = undispersed_phase1_rounds(n, &GatherConfig::fast());
    let m64 = (r1 / 2).next_multiple_of(64);
    vec![r1 / 3 + 5, m64 - 1, m64, m64 + 1]
}

#[test]
fn skipping_leaves_undispersed_gathering_outcomes_unchanged() {
    // The run ends at round R + 1.
    let full_cap = |n| undispersed_total_rounds(n, &GatherConfig::fast()) + 2;
    check_grid::<UndispersedRobot>(size_5_to_15, 4, full_cap, phase1_caps);
}

#[test]
fn skipping_leaves_faster_gathering_outcomes_unchanged() {
    // Through step 2 (a second Undispersed wait) into step 3's hop segment.
    let full_cap = |n| faster_step_start(3, n, &GatherConfig::fast()) + 3 * n as u64;
    check_grid::<FasterRobot>(size_5_to_15, 4, full_cap, phase1_caps);
}

/// The exploration bound `T` of `uxs_gathering` on `n` nodes.
fn uxs_t(n: usize) -> u64 {
    UxsGatherRobot::new(1, n, &GatherConfig::fast()).exploration_bound()
}

/// UXS-Gathering runs to completion on sizes 5..=7 with one robot per node
/// up to 7, so labels reach 3 bits and groups led by different labels merge
/// (leader switches). The inner caps cut the middle of a wait, the edges of
/// the windows that start or end at `T`, `2T` and `3T`, and either side of
/// multiples of 64 inside the first two blocks.
#[test]
fn skipping_leaves_uxs_gathering_outcomes_unchanged() {
    let full_cap = |n| uxs_gathering_round_bound(n, uxs_t(n));
    let inner_caps = |n| {
        let t = uxs_t(n);
        let mut caps = vec![t / 2 + 3];
        for edge in [t, 2 * t, 3 * t] {
            caps.extend([edge - 1, edge, edge + 1]);
        }
        for mid in [t / 2, t + t / 2] {
            let m64 = mid.next_multiple_of(64);
            caps.extend([m64 - 1, m64, m64 + 1]);
        }
        caps
    };
    check_grid::<UxsGatherRobot>(|f| 5 + f % 3, 7, full_cap, inner_caps);
}

/// Two robots farther apart than any hop radius fall through to
/// Faster-Gathering's step 7, whose embedded UXS-Gathering then skips its
/// waits too.
#[test]
fn skipping_matches_in_faster_gatherings_uxs_step() {
    let cfg = GatherConfig::fast();
    let graph = Family::Path.instantiate(7, 1).unwrap();
    let start = Placement::new(vec![(1, 0), (2, 6)]);
    let n = graph.n();
    let s7 = faster_step_start(7, n, &cfg);
    let t = uxs_t(n);
    let full_cap = s7 + uxs_gathering_round_bound(n, t);
    let out = Simulator::new(&graph, SimConfig::with_max_rounds(full_cap))
        .run(FasterRobot::robots(&graph, &start, &cfg));
    assert!(
        out.is_correct_gathering_with_detection() && out.rounds > s7,
        "the run must gather in step 7"
    );

    // Labels 1 and 2 both wait in local rounds 3T..4T of the UXS step.
    let wait = s7 + 3 * t + t / 2;
    let m64 = wait.next_multiple_of(64);
    let caps = [full_cap, wait, s7 + 4 * t, m64 - 1, m64, m64 + 1];
    let skipped = assert_equivalent::<FasterRobot>("from step 1", &graph, &start, &caps);
    let (_, before_uxs) = spied_run(&graph, FasterRobot::robots(&graph, &start, &cfg), s7 + 1);
    assert!(skipped > before_uxs, "no round of the UXS step was skipped");
}

/// A `with_known_distance` robot starts mid-schedule: at step 3 its
/// Undispersed segment begins after a hop segment, not at round 0, and at
/// step 7 it starts in the UXS segment.
#[test]
fn skipping_matches_for_robots_that_start_mid_schedule() {
    let cfg = GatherConfig::fast();
    let cycle = Family::Cycle.instantiate(9, 1).unwrap();
    let close = placement::generate(
        &cycle,
        PlacementKind::PairAtDistance(2),
        &placement::sequential_ids(2),
        3,
    );
    let path = Family::Path.instantiate(7, 1).unwrap();
    let far = Placement::new(vec![(1, 0), (2, 6)]);
    let t = uxs_t(7);
    let cases = [
        (&cycle, &close, 2, vec![5_000, 50_000, 1_000_000]),
        // Labels 1 and 2 both wait in rounds 3T..4T.
        (
            &path,
            &far,
            9,
            vec![
                3 * t + t / 2,
                4 * t - 1,
                4 * t,
                uxs_gathering_round_bound(7, t),
            ],
        ),
    ];
    for (graph, start, distance, caps) in cases {
        let mk = || -> Vec<(FasterRobot, usize)> {
            start
                .robots
                .iter()
                .map(|&(id, node)| {
                    let robot = FasterRobot::with_known_distance(id, graph.n(), &cfg, distance);
                    (robot, node)
                })
                .collect()
        };
        let mut skipped = 0;
        for &cap in &caps {
            let (skipping, s) = spied_run(graph, mk(), cap);
            let executed = executed_run(graph, mk(), cap);
            assert_eq!(skipping, executed, "distance {distance} cap {cap}");
            skipped = skipped.max(s);
        }
        assert!(skipped > 0, "distance {distance}: no round was skipped");
    }
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
        assert_erased_matches_typed(name, &graph, &start, cap);
    }
    // Five robots in clusters: leaders switch, then waits are skipped.
    let graph = Family::Cycle.instantiate(6, 1).unwrap();
    let start = placement::generate(
        &graph,
        PlacementKind::TwoClusters,
        &placement::sequential_ids(5),
        3,
    );
    assert_erased_matches_typed("uxs_gathering", &graph, &start, 6 * uxs_t(6) + 5);
}

/// Asserts the erased run of builtin `name` skips rounds and serializes to
/// the typed run's outcome, as does the erased run with nothing skipped.
fn assert_erased_matches_typed(name: &str, graph: &PortGraph, start: &Placement, cap: u64) {
    let cfg = GatherConfig::fast();
    let factory = registry::global().get(name).expect("builtin");
    let typed = factory.run(graph, start, &cfg, SimConfig::with_max_rounds(cap));
    let typed = serde_json::to_string(&typed).unwrap();
    let erased: Vec<(Box<dyn DynRobot>, usize)> = factory.spawn(graph, start, &cfg);
    let (erased, skipped) = spied_run(graph, erased, cap);
    assert_eq!(
        erased, typed,
        "{name}: erased run differs from the typed run"
    );
    assert!(skipped > 0, "{name}: the erased path skipped nothing");
    let executed = executed_run(graph, factory.spawn(graph, start, &cfg), cap);
    assert_eq!(executed, typed, "{name}: skipping changed the outcome");
}
