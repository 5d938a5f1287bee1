//! An open registry of gathering algorithms.
//!
//! The seed API dispatched on a closed `enum Algorithm` match, so adding an
//! algorithm meant editing `gather-core`. The registry inverts that: an
//! algorithm is anything implementing [`AlgorithmFactory`] — a named
//! constructor producing type-erased [`DynRobot`] runners — and downstream
//! crates register their own factories next to the four built-in paper
//! algorithms without touching this crate.
//!
//! A robot type whose constructor is known statically implements
//! [`BuiltinRobot`] instead, and the generic [`Builtin`] factory provides
//! both the erased `spawn` and a monomorphic `run` from that one
//! constructor. The four paper algorithms are registered this way, and
//! [`visit_builtins`] is their one table: the registry and the model
//! checker both enumerate it.
//!
//! Factories are looked up by the same stable names that result tables use
//! (`"faster_gathering"`, `"uxs_gathering"`, `"undispersed_gathering"`,
//! `"expanding_baseline"`), which is what lets a JSON-parsed
//! [`crate::scenario::ScenarioSpec`] select its algorithm with no further
//! Rust code.

use crate::baseline::ExpandingRobot;
use crate::config::GatherConfig;
use crate::faster::FasterRobot;
use crate::undispersed::UndispersedRobot;
use crate::uxs_gathering::UxsGatherRobot;
use gather_graph::{NodeId, PortGraph};
use gather_sim::{placement::Placement, DynRobot, Robot, SimConfig, SimOutcome, Simulator};
use gather_uxs::Uxs;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// A named constructor for one gathering algorithm.
///
/// `spawn` receives the full placement (labels and start nodes) plus the
/// shared [`GatherConfig`] and returns one erased robot per placement entry,
/// paired with its start node. Factories must be stateless or internally
/// synchronised: sweeps call them concurrently from worker threads.
///
/// A robot type known statically is better registered through
/// [`Builtin`], which implements this trait from one typed constructor.
pub trait AlgorithmFactory: Send + Sync {
    /// Short stable name used for lookup and in result tables
    /// (e.g. `"faster_gathering"`).
    fn name(&self) -> &'static str;

    /// One-line human description for listings.
    fn description(&self) -> &'static str {
        ""
    }

    /// Builds the robots for one run.
    fn spawn(
        &self,
        graph: &PortGraph,
        placement: &Placement,
        config: &GatherConfig,
    ) -> Vec<(Box<dyn DynRobot>, NodeId)>;

    /// Runs one simulation with this factory's robots.
    ///
    /// The default erases robots through [`spawn`](AlgorithmFactory::spawn),
    /// which costs an `Arc` allocation per announce and a typed re-collect
    /// per decide on the per-robot per-round hot loop. [`Builtin`] replaces
    /// it with a monomorphized robot vector — same results, no erasure
    /// overhead on million-round sweeps.
    fn run(
        &self,
        graph: &PortGraph,
        placement: &Placement,
        config: &GatherConfig,
        sim_config: SimConfig,
    ) -> SimOutcome {
        let robots = self.spawn(graph, placement, config);
        Simulator::new(graph, sim_config).run(robots)
    }
}

/// A robot type with one typed constructor: everything the registry needs
/// to run it by name, erased or monomorphic.
///
/// `Clone + Hash` lets the model checker explore and digest its states.
pub trait BuiltinRobot: Robot<Msg: Send + Sync> + Clone + Hash + Send + 'static {
    /// Short stable name used for lookup and in result tables.
    const NAME: &'static str;

    /// One-line human description for listings.
    const DESCRIPTION: &'static str;

    /// Builds one robot per placement entry, paired with its start node.
    fn robots(
        graph: &PortGraph,
        placement: &Placement,
        config: &GatherConfig,
    ) -> Vec<(Self, NodeId)>;
}

/// The [`AlgorithmFactory`] of a [`BuiltinRobot`]: `spawn` erases the
/// typed robots and `run` hands them to the simulator as they are. Build
/// one with `Builtin::<R>::default()`.
pub struct Builtin<R>(PhantomData<fn() -> R>);

impl<R> Default for Builtin<R> {
    fn default() -> Self {
        Builtin(PhantomData)
    }
}

impl<R: BuiltinRobot> AlgorithmFactory for Builtin<R> {
    fn name(&self) -> &'static str {
        R::NAME
    }

    fn description(&self) -> &'static str {
        R::DESCRIPTION
    }

    fn spawn(
        &self,
        graph: &PortGraph,
        placement: &Placement,
        config: &GatherConfig,
    ) -> Vec<(Box<dyn DynRobot>, NodeId)> {
        R::robots(graph, placement, config)
            .into_iter()
            .map(|(robot, node)| (Box::new(robot) as Box<dyn DynRobot>, node))
            .collect()
    }

    fn run(
        &self,
        graph: &PortGraph,
        placement: &Placement,
        config: &GatherConfig,
        sim_config: SimConfig,
    ) -> SimOutcome {
        Simulator::new(graph, sim_config).run(R::robots(graph, placement, config))
    }
}

/// A computation generic over the robot type, run once per entry of the
/// built-in table by [`visit_builtins`].
pub trait BuiltinVisitor {
    /// Called with one built-in robot type.
    fn visit<R: BuiltinRobot>(&mut self);
}

/// The built-in robot table: visits the robot type of each paper
/// algorithm, in registration order.
pub fn visit_builtins(visitor: &mut impl BuiltinVisitor) {
    visitor.visit::<FasterRobot>();
    visitor.visit::<UxsGatherRobot>();
    visitor.visit::<UndispersedRobot>();
    visitor.visit::<ExpandingRobot>();
}

/// Error returned by registry lookups and runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No factory is registered under the requested name.
    UnknownAlgorithm {
        /// The name that failed to resolve.
        requested: String,
        /// The names that are registered, for the error message.
        available: Vec<String>,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownAlgorithm {
                requested,
                available,
            } => write!(
                f,
                "unknown algorithm `{requested}` (registered: {})",
                available.join(", ")
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A name-keyed set of [`AlgorithmFactory`] instances.
#[derive(Clone, Default)]
pub struct AlgorithmRegistry {
    factories: BTreeMap<String, Arc<dyn AlgorithmFactory>>,
}

impl AlgorithmRegistry {
    /// An empty registry (no algorithms).
    pub fn empty() -> Self {
        AlgorithmRegistry::default()
    }

    /// A registry pre-populated with the four paper algorithms.
    pub fn with_builtins() -> Self {
        struct Register(AlgorithmRegistry);
        impl BuiltinVisitor for Register {
            fn visit<R: BuiltinRobot>(&mut self) {
                self.0.register(Arc::new(Builtin::<R>::default()));
            }
        }
        let mut r = Register(AlgorithmRegistry::empty());
        visit_builtins(&mut r);
        r.0
    }

    /// Registers (or replaces) a factory under its own name.
    pub fn register(&mut self, factory: Arc<dyn AlgorithmFactory>) -> &mut Self {
        self.factories.insert(factory.name().to_string(), factory);
        self
    }

    /// Looks up a factory by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn AlgorithmFactory>> {
        self.factories.get(name)
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// Number of registered algorithms.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }

    /// Spawns robots via the named factory and simulates them on `graph`.
    pub fn run(
        &self,
        name: &str,
        graph: &PortGraph,
        placement: &Placement,
        config: &GatherConfig,
        sim_config: SimConfig,
    ) -> Result<SimOutcome, RegistryError> {
        let factory = self
            .get(name)
            .ok_or_else(|| RegistryError::UnknownAlgorithm {
                requested: name.to_string(),
                available: self.names().iter().map(|s| s.to_string()).collect(),
            })?;
        Ok(factory.run(graph, placement, config, sim_config))
    }
}

impl fmt::Debug for AlgorithmRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlgorithmRegistry")
            .field("names", &self.names())
            .finish()
    }
}

/// The process-wide registry holding the built-in algorithms.
///
/// Immutable by design: code that wants extra algorithms builds its own
/// registry (`AlgorithmRegistry::with_builtins()` + `register`) and passes it
/// to [`crate::scenario::ScenarioSpec::run`] / [`crate::sweep::Sweep::run`].
pub fn global() -> &'static AlgorithmRegistry {
    static GLOBAL: OnceLock<AlgorithmRegistry> = OnceLock::new();
    GLOBAL.get_or_init(AlgorithmRegistry::with_builtins)
}

// ---------------------------------------------------------------------------
// Built-in robots.
// ---------------------------------------------------------------------------

/// One robot per placement entry, each built by `make` from its label.
fn each<R>(
    placement: &Placement,
    mut make: impl FnMut(gather_sim::RobotId) -> R,
) -> Vec<(R, NodeId)> {
    placement
        .robots
        .iter()
        .map(|&(id, node)| (make(id), node))
        .collect()
}

/// `Faster-Gathering` (§2.3) — the paper's main contribution.
impl BuiltinRobot for FasterRobot {
    const NAME: &'static str = "faster_gathering";
    const DESCRIPTION: &'static str =
        "Faster-Gathering (§2.3): the composed algorithm of Theorems 12/16";

    fn robots(
        graph: &PortGraph,
        placement: &Placement,
        config: &GatherConfig,
    ) -> Vec<(Self, NodeId)> {
        each(placement, |id| FasterRobot::new(id, graph.n(), config))
    }
}

/// The UXS-based algorithm of §2.1, doubling as the Õ(n⁵ log ℓ) baseline.
impl BuiltinRobot for UxsGatherRobot {
    const NAME: &'static str = "uxs_gathering";
    const DESCRIPTION: &'static str = "UXS gathering (§2.1): works for any k; the paper's baseline";

    fn robots(
        graph: &PortGraph,
        placement: &Placement,
        config: &GatherConfig,
    ) -> Vec<(Self, NodeId)> {
        // One memoized sequence for the whole run: the per-robot `clone` is
        // an `Arc` bump on the shared offsets, not a copy (and repeated runs
        // at the same `n` skip the construction entirely).
        let uxs = Uxs::shared_for_n(graph.n(), config.uxs_policy);
        each(placement, |id| {
            UxsGatherRobot::with_sequence(id, uxs.clone())
        })
    }
}

/// `Undispersed-Gathering` (§2.2); requires an undispersed start.
impl BuiltinRobot for UndispersedRobot {
    const NAME: &'static str = "undispersed_gathering";
    const DESCRIPTION: &'static str =
        "Undispersed-Gathering (§2.2): O(n³) rounds from an undispersed start";

    fn robots(
        graph: &PortGraph,
        placement: &Placement,
        config: &GatherConfig,
    ) -> Vec<(Self, NodeId)> {
        each(placement, |id| UndispersedRobot::new(id, graph.n(), config))
    }
}

/// Dessmark-style expanding-radius rendezvous baseline (two robots).
impl BuiltinRobot for ExpandingRobot {
    const NAME: &'static str = "expanding_baseline";
    const DESCRIPTION: &'static str =
        "Dessmark-style expanding-radius rendezvous baseline (two robots)";

    fn robots(
        graph: &PortGraph,
        placement: &Placement,
        _config: &GatherConfig,
    ) -> Vec<(Self, NodeId)> {
        each(placement, |id| ExpandingRobot::new(id, graph.n()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_graph::generators;
    use gather_sim::placement::{self, PlacementKind};
    use gather_sim::{Action, Inbox, Observation, Robot, RobotId};

    #[test]
    fn builtins_are_registered_under_their_table_names() {
        let r = global();
        for name in [
            "faster_gathering",
            "uxs_gathering",
            "undispersed_gathering",
            "expanding_baseline",
        ] {
            assert!(r.contains(name), "missing builtin {name}");
        }
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn run_by_name_produces_a_correct_gathering() {
        let g = generators::cycle(6).unwrap();
        let ids = placement::sequential_ids(3);
        let start = placement::generate(&g, PlacementKind::UndispersedRandom, &ids, 1);
        let out = global()
            .run(
                "faster_gathering",
                &g,
                &start,
                &GatherConfig::fast(),
                SimConfig::with_max_rounds(2_000_000_000),
            )
            .unwrap();
        assert!(out.is_correct_gathering_with_detection());
    }

    #[test]
    fn monomorphized_run_overrides_agree_with_the_erased_default() {
        // `Builtin` overrides `run` to skip DynRobot erasure on the hot
        // loop; the erased default (via spawn) must produce identical
        // outcomes or the override has drifted.
        let g = generators::random_connected(8, 0.3, 2).unwrap();
        let ids = placement::sequential_ids(3);
        let start = placement::generate(&g, PlacementKind::UndispersedRandom, &ids, 4);
        let cfg = GatherConfig::fast();
        let sim = SimConfig::with_max_rounds(2_000_000_000);
        for name in ["faster_gathering", "uxs_gathering", "undispersed_gathering"] {
            let factory = global().get(name).unwrap();
            let fast_path = factory.run(&g, &start, &cfg, sim.clone());
            let erased = Simulator::new(&g, sim.clone()).run(factory.spawn(&g, &start, &cfg));
            assert_eq!(fast_path.rounds, erased.rounds, "{name}");
            assert_eq!(fast_path.final_positions, erased.final_positions, "{name}");
            assert_eq!(
                fast_path.metrics.total_moves, erased.metrics.total_moves,
                "{name}"
            );
        }
    }

    #[test]
    fn unknown_names_report_whats_available() {
        let g = generators::path(3).unwrap();
        let start = placement::Placement::new(vec![(1, 0), (2, 2)]);
        let err = global()
            .run(
                "no_such_algorithm",
                &g,
                &start,
                &GatherConfig::fast(),
                SimConfig::default(),
            )
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("no_such_algorithm"));
        assert!(msg.contains("faster_gathering"));
    }

    /// A downstream robot: walks port 0 until it is co-located with anyone,
    /// then terminates (incorrectly unless it started gathered — fine for a
    /// registration test).
    struct NaiveRobot {
        id: RobotId,
        done: bool,
    }

    impl Robot for NaiveRobot {
        type Msg = ();

        fn id(&self) -> RobotId {
            self.id
        }

        fn announce(&mut self, _obs: &Observation) -> Self::Msg {}

        fn decide(&mut self, obs: &Observation, _inbox: Inbox<'_, ()>) -> Action {
            if obs.colocated > 0 {
                self.done = true;
                Action::Terminate
            } else {
                Action::Move(0)
            }
        }

        fn has_terminated(&self) -> bool {
            self.done
        }
    }

    struct NaiveFactory;

    impl AlgorithmFactory for NaiveFactory {
        fn name(&self) -> &'static str {
            "naive_walk"
        }

        fn spawn(
            &self,
            _graph: &PortGraph,
            placement: &Placement,
            _config: &GatherConfig,
        ) -> Vec<(Box<dyn DynRobot>, NodeId)> {
            placement
                .robots
                .iter()
                .map(|&(id, node)| {
                    (
                        Box::new(NaiveRobot { id, done: false }) as Box<dyn DynRobot>,
                        node,
                    )
                })
                .collect()
        }
    }

    #[test]
    fn downstream_factories_register_without_touching_core() {
        let mut r = AlgorithmRegistry::with_builtins();
        r.register(Arc::new(NaiveFactory));
        assert_eq!(r.len(), 5);
        assert!(r.contains("naive_walk"));

        // Two co-located naive robots meet immediately and terminate.
        let g = generators::cycle(5).unwrap();
        let start = placement::Placement::new(vec![(1, 2), (2, 2)]);
        let out = r
            .run(
                "naive_walk",
                &g,
                &start,
                &GatherConfig::fast(),
                SimConfig::with_max_rounds(100),
            )
            .unwrap();
        assert!(out.all_terminated);
        assert!(out.gathered);
    }
}
