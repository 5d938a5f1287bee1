//! Gathering with detection via a universal exploration sequence (§2.1).
//!
//! Every robot knows `n` and can therefore compute the same exploration
//! sequence of length `T`. Robots read their label bits from least to most
//! significant; each bit occupies a block of `2T` rounds:
//!
//! * bit `1`: explore with the sequence for `T` rounds, then wait `T` rounds;
//! * bit `0`: wait `T` rounds, then explore for `T` rounds.
//!
//! Co-located robots always follow the largest label present (groups merge).
//! A robot that has exhausted its bits waits one final `2T` block; if nobody
//! shows up during that block, gathering must be complete (Lemmas 1–4) and
//! the robot terminates, taking its followers with it.
//!
//! This algorithm is both the §2.1 subroutine used by `Faster-Gathering`'s
//! final step and the stand-in for the Ta-Shma–Zwick-style Õ(n⁵ log ℓ)
//! baseline the paper compares against.

use crate::config::GatherConfig;
use crate::ids::id_bit_length;
use crate::messages::Msg;
use crate::subalgo::{SubAction, SubAlgorithm};
use gather_graph::PortId;
use gather_sim::{Action, Inbox, Observation, Robot, RobotId};
use gather_uxs::{Uxs, UxsWalker};

/// What a leader does in one round of its label-bit schedule.
#[derive(Debug, Clone, Copy)]
enum LeaderStep {
    /// Walk the exploration sequence; `fresh` in the first round of a walk.
    Explore { fresh: bool },
    /// Stay put; the wait window ends before round `until`.
    Wait { until: u64 },
    /// Announce `terminating`.
    Terminate,
}

/// The §2.1 sub-algorithm state of one robot.
#[derive(Debug, Clone, Hash)]
pub struct UxsGathering {
    id: RobotId,
    t: u64,
    walker: UxsWalker,
    local_round: u64,
    /// The robot this robot currently follows (its own label while leading).
    leader: RobotId,
    /// The leader named by this round's announcement (`leader` as it stood
    /// in `announce`); `decide` may change `leader` after it.
    announced: RobotId,
    /// Set in `announce` for the current round; consumed in `decide`.
    intended: Option<PortId>,
    terminating: bool,
    finished: bool,
}

impl UxsGathering {
    /// Creates the procedure for the robot with label `id` on an `n`-node
    /// graph, using the shared exploration sequence prescribed by `config`.
    ///
    /// The sequence is obtained from the process-wide [`Uxs::shared_for_n`]
    /// cache: all robots of a run (and all runs at the same `n`) share one
    /// `Arc`-backed copy instead of each recomputing the — potentially
    /// `n³`-long — sequence.
    pub fn new(id: RobotId, n: usize, config: &GatherConfig) -> Self {
        let uxs = Uxs::shared_for_n(n, config.uxs_policy);
        Self::with_sequence(id, uxs)
    }

    /// Creates the procedure with an explicit shared sequence (all robots
    /// must use the same one).
    pub fn with_sequence(id: RobotId, uxs: Uxs) -> Self {
        let t = uxs.len() as u64;
        UxsGathering {
            id,
            t,
            walker: UxsWalker::new(uxs),
            local_round: 0,
            leader: id,
            announced: id,
            intended: None,
            terminating: false,
            finished: false,
        }
    }

    /// The exploration bound `T` (length of the shared sequence).
    pub fn exploration_bound(&self) -> u64 {
        self.t
    }

    /// True once the robot has detected that gathering is complete.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// True while the robot leads its group (initially true).
    pub fn is_leader(&self) -> bool {
        self.leader == self.id
    }

    /// Number of label bits this robot works through.
    fn bit_count(&self) -> u64 {
        id_bit_length(self.id) as u64
    }

    /// How many of the next rounds this robot is guaranteed to spend idle,
    /// asked right after a decide that stayed (the [`Robot::idle_rounds`]
    /// contract). A robot whose announcement changes after the round just
    /// run (it started following, switched leaders or took over the lead)
    /// promises nothing. A follower otherwise promises an unbounded window:
    /// given a repeating inbox it keeps copying a leader that stays. A leader
    /// promises the rest of its current wait window, but only when the round
    /// just run was a wait round of that window, so that the skipped rounds
    /// repeat its announcement.
    pub fn idle_rounds(&self) -> u64 {
        if self.local_round == 0 || self.announced != self.leader {
            return 0;
        }
        if self.leader != self.id {
            return u64::MAX;
        }
        // `local_round` is the next round to run; the one just run precedes
        // it.
        match self.leader_step(self.local_round - 1) {
            LeaderStep::Wait { until } => until - self.local_round,
            LeaderStep::Explore { .. } | LeaderStep::Terminate => 0,
        }
    }

    /// Advances the round counter over `rounds` idle rounds promised by
    /// [`UxsGathering::idle_rounds`].
    pub fn skip_idle_rounds(&mut self, rounds: u64) {
        self.local_round += rounds;
    }

    /// The leader schedule at local round `r`. Each label bit occupies a
    /// `2T` block: a `1` bit explores its first half and waits its second, a
    /// `0` bit the reverse. The final `2T` block is one wait, and the round
    /// after it terminates.
    fn leader_step(&self, r: u64) -> LeaderStep {
        let two_t = 2 * self.t;
        if two_t == 0 {
            // Degenerate single-node graph: terminate immediately.
            return LeaderStep::Terminate;
        }
        let final_start = self.bit_count() * two_t;
        if r >= final_start + two_t {
            // Final wait complete without being joined: terminate.
            return LeaderStep::Terminate;
        }
        if r >= final_start {
            return LeaderStep::Wait {
                until: final_start + two_t,
            };
        }
        let block = r - r % two_t;
        let bit =
            crate::ids::id_bit(self.id, (r / two_t) as usize).expect("r precedes the final block");
        let (explore_start, wait_start) = if bit {
            (block, block + self.t)
        } else {
            (block + self.t, block)
        };
        if (wait_start..wait_start + self.t).contains(&r) {
            LeaderStep::Wait {
                until: wait_start + self.t,
            }
        } else {
            LeaderStep::Explore {
                fresh: r == explore_start,
            }
        }
    }

    /// Computes the leader-schedule move for the current round (only
    /// meaningful while this robot is a leader).
    fn leader_intention(&mut self, obs: &Observation) -> (Option<PortId>, bool) {
        match self.leader_step(self.local_round) {
            LeaderStep::Terminate => (None, true),
            LeaderStep::Wait { .. } => (None, false),
            LeaderStep::Explore { fresh } => {
                if fresh {
                    self.walker.reset();
                }
                (self.walker.next_port(obs.entry_port, obs.degree), false)
            }
        }
    }
}

impl SubAlgorithm for UxsGathering {
    fn announce(&mut self, obs: &Observation) -> Msg {
        self.announced = self.leader;
        if self.leader == self.id {
            let (intended, terminating) = self.leader_intention(obs);
            self.intended = intended;
            self.terminating = terminating;
            Msg::UxsLeader {
                intended,
                terminating,
            }
        } else {
            self.intended = None;
            self.terminating = false;
            Msg::UxsFollower {
                leader: self.leader,
            }
        }
    }

    fn decide(&mut self, _obs: &Observation, inbox: Inbox<'_, Msg>) -> SubAction {
        self.local_round += 1;
        if self.finished {
            return SubAction::Finished;
        }
        // Merge rule: always defer to the largest label present.
        let largest_other = inbox.iter().map(|(id, _)| id).max();
        match largest_other {
            Some(other) if other > self.id => {
                // Follow the largest robot's *actual* behaviour this round.
                self.leader = other;
                match inbox.get(other) {
                    Some(Msg::UxsLeader {
                        intended,
                        terminating,
                    }) => {
                        if *terminating {
                            self.finished = true;
                            SubAction::Finished
                        } else {
                            match intended {
                                Some(p) => SubAction::Move(*p),
                                None => SubAction::Stay,
                            }
                        }
                    }
                    // The largest robot present always considers itself a
                    // leader (its own leader travels with it); any other
                    // message means we are composed with a different phase
                    // and should simply hold position.
                    _ => SubAction::Stay,
                }
            }
            _ => {
                // This robot is the largest present: act as a leader.
                self.leader = self.id;
                if self.terminating {
                    self.finished = true;
                    return SubAction::Finished;
                }
                match self.intended {
                    Some(p) => SubAction::Move(p),
                    None => SubAction::Stay,
                }
            }
        }
    }

    fn memory_bits(&self) -> usize {
        // Own counters and walker position; the shared sequence (the paper's
        // `M`) is accounted separately since it is common knowledge derived
        // from `n`.
        64 * 8
    }
}

/// Standalone [`Robot`] running §2.1 gathering-with-detection (Theorem 6).
#[derive(Debug, Clone, Hash)]
pub struct UxsGatherRobot {
    inner: UxsGathering,
}

impl UxsGatherRobot {
    /// Creates the robot with label `id` for an `n`-node graph.
    pub fn new(id: RobotId, n: usize, config: &GatherConfig) -> Self {
        UxsGatherRobot {
            inner: UxsGathering::new(id, n, config),
        }
    }

    /// Creates the robot with an explicit shared sequence.
    pub fn with_sequence(id: RobotId, uxs: Uxs) -> Self {
        UxsGatherRobot {
            inner: UxsGathering::with_sequence(id, uxs),
        }
    }

    /// The exploration bound `T` used by this robot.
    pub fn exploration_bound(&self) -> u64 {
        self.inner.exploration_bound()
    }
}

impl Robot for UxsGatherRobot {
    type Msg = Msg;

    fn id(&self) -> RobotId {
        self.inner.id
    }

    fn announce(&mut self, obs: &Observation) -> Msg {
        SubAlgorithm::announce(&mut self.inner, obs)
    }

    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, Msg>) -> Action {
        match self.inner.decide(obs, inbox) {
            SubAction::Stay => Action::Stay,
            SubAction::Move(p) => Action::Move(p),
            SubAction::Finished => Action::Terminate,
        }
    }

    fn has_terminated(&self) -> bool {
        self.inner.finished
    }

    fn memory_estimate_bits(&self) -> usize {
        self.inner.memory_bits()
    }

    fn idle_rounds(&self) -> u64 {
        self.inner.idle_rounds()
    }

    fn skip_idle_rounds(&mut self, rounds: u64) {
        self.inner.skip_idle_rounds(rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_graph::generators;
    use gather_sim::{placement, PlacementKind, SimConfig, Simulator};
    use gather_uxs::LengthPolicy;

    fn run_uxs_gathering(
        graph: &gather_graph::PortGraph,
        placement: &placement::Placement,
        policy: LengthPolicy,
    ) -> gather_sim::SimOutcome {
        let uxs = Uxs::for_n(graph.n(), policy);
        let robots: Vec<(UxsGatherRobot, usize)> = placement
            .robots
            .iter()
            .map(|&(id, node)| (UxsGatherRobot::with_sequence(id, uxs.clone()), node))
            .collect();
        let sim = Simulator::new(graph, SimConfig::with_max_rounds(20_000_000));
        sim.run(robots)
    }

    #[test]
    fn two_robots_on_a_small_cycle_gather_and_detect() {
        let g = generators::cycle(6).unwrap();
        let p = placement::Placement::new(vec![(2, 0), (5, 3)]);
        let out = run_uxs_gathering(&g, &p, LengthPolicy::Polynomial(3));
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
    }

    #[test]
    fn many_robots_dispersed_on_random_graph_gather_and_detect() {
        let g = generators::random_connected(8, 0.3, 11).unwrap();
        let ids = placement::sequential_ids(5);
        let p = placement::generate(&g, PlacementKind::DispersedRandom, &ids, 3);
        let out = run_uxs_gathering(&g, &p, LengthPolicy::Polynomial(3));
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
    }

    #[test]
    fn undispersed_start_also_works() {
        let g = generators::grid(3, 3).unwrap();
        let ids = placement::sequential_ids(4);
        let p = placement::generate(&g, PlacementKind::UndispersedRandom, &ids, 9);
        let out = run_uxs_gathering(&g, &p, LengthPolicy::Polynomial(3));
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
    }

    #[test]
    fn single_robot_terminates_quickly() {
        let g = generators::path(5).unwrap();
        let p = placement::Placement::new(vec![(3, 2)]);
        let out = run_uxs_gathering(&g, &p, LengthPolicy::Polynomial(3));
        assert!(out.is_correct_gathering_with_detection());
    }

    #[test]
    fn robots_with_very_different_label_lengths_gather() {
        let g = generators::path(6).unwrap();
        // Labels 1 (1 bit) and 36 = n^2 (6 bits).
        let p = placement::Placement::new(vec![(1, 0), (36, 5)]);
        let out = run_uxs_gathering(&g, &p, LengthPolicy::Polynomial(3));
        assert!(out.is_correct_gathering_with_detection(), "{out:?}");
    }

    #[test]
    fn round_count_is_within_the_schedule_bound() {
        let g = generators::cycle(7).unwrap();
        let p = placement::Placement::new(vec![(3, 0), (6, 3), (9, 5)]);
        let out = run_uxs_gathering(&g, &p, LengthPolicy::Polynomial(3));
        assert!(out.is_correct_gathering_with_detection());
        let t = LengthPolicy::Polynomial(3).length(7) as u64;
        let bound = crate::schedule::uxs_gathering_round_bound(7, t);
        assert!(
            out.rounds <= bound,
            "rounds {} exceed bound {}",
            out.rounds,
            bound
        );
    }

    #[test]
    fn detection_never_fires_before_gathering() {
        // Exercised on several graphs/seeds: the engine itself flags early
        // termination, so a clean outcome is the assertion.
        for seed in 0..3u64 {
            let g = generators::random_tree(7, seed).unwrap();
            let ids = placement::sequential_ids(3);
            let p = placement::generate(&g, PlacementKind::MaxSpread, &ids, seed);
            let out = run_uxs_gathering(&g, &p, LengthPolicy::Polynomial(3));
            assert!(!out.false_detection, "false detection on seed {seed}");
            assert!(out.is_correct_gathering_with_detection(), "seed {seed}");
        }
    }

    /// A leader's announcement in a wait round.
    const WAIT: Msg = Msg::UxsLeader {
        intended: None,
        terminating: false,
    };

    /// A robot with label `id` on a 4-node graph, over a sequence of
    /// length `T = 4`.
    fn short(id: RobotId) -> UxsGathering {
        UxsGathering::with_sequence(id, Uxs::for_n(4, LengthPolicy::Fixed(4)))
    }

    /// Runs one round of `g` with the given inbox: its announcement and
    /// action.
    fn step(g: &mut UxsGathering, inbox: &[(RobotId, Msg)]) -> (Msg, SubAction) {
        let obs = Observation {
            round: g.local_round,
            n: 4,
            degree: 2,
            entry_port: None,
            colocated: inbox.len(),
        };
        let msg = SubAlgorithm::announce(g, &obs);
        (msg, g.decide(&obs, Inbox::from_slice(inbox)))
    }

    /// Asserts that the promise `g` makes now holds: over the next
    /// `promised` rounds (at most `horizon` of them are executed) it repeats
    /// `msg` and stays, and skipping them leaves the state the executed
    /// rounds leave.
    fn assert_promise_holds(g: &UxsGathering, msg: Msg, inbox: &[(RobotId, Msg)], horizon: u64) {
        let promised = g.idle_rounds();
        let executed = promised.min(horizon);
        let mut run = g.clone();
        for i in 0..executed {
            assert_eq!(
                step(&mut run, inbox),
                (msg.clone(), SubAction::Stay),
                "round {i}"
            );
        }
        let mut skipped = g.clone();
        skipped.skip_idle_rounds(executed);
        assert_eq!(format!("{skipped:?}"), format!("{run:?}"));
    }

    #[test]
    fn a_lone_leader_promises_exactly_its_wait_windows() {
        // Label 5 = 0b101 with 2T = 8: bit 0 explores rounds 0..4 and waits
        // 4..8, bit 1 waits 8..12 and explores 12..16, bit 2 explores 16..20
        // and waits 20..24, the final block waits 24..32 and round 32
        // announces `terminating`.
        let windows = [(4, 8), (8, 12), (20, 24), (24, 32)];
        let mut g = short(5);
        for r in 0..32u64 {
            let (msg, action) = step(&mut g, &[]);
            let expected = windows
                .iter()
                .find(|(start, end)| (*start..*end).contains(&r))
                .map_or(0, |(_, end)| end - (r + 1));
            assert_eq!(g.idle_rounds(), expected, "after round {r}");
            if expected > 0 {
                assert_eq!(action, SubAction::Stay);
                assert_promise_holds(&g, msg, &[], u64::MAX);
            }
        }
        // The final wait ended before the terminating round.
        let (msg, action) = step(&mut g, &[]);
        assert_eq!(
            msg,
            Msg::UxsLeader {
                intended: None,
                terminating: true
            }
        );
        assert_eq!(action, SubAction::Finished);
    }

    #[test]
    fn a_leader_promises_only_after_a_round_it_led() {
        // Label 6 = 0b110 waits rounds 0..4. It follows 7 for round 0; in
        // round 1, 7 is gone and 6 takes the lead again, which changes its
        // announcement: no promise until it has led a wait round.
        let mut g = short(6);
        step(&mut g, &[(7, WAIT)]);
        assert!(!g.is_leader());
        assert_eq!(g.idle_rounds(), 0, "just started following");
        step(&mut g, &[]);
        assert!(g.is_leader());
        assert_eq!(g.idle_rounds(), 0, "just took over the lead");
        let (msg, _) = step(&mut g, &[]);
        assert_eq!(msg, WAIT);
        assert_eq!(g.idle_rounds(), 1);
        assert_promise_holds(&g, msg, &[], u64::MAX);
    }

    #[test]
    fn a_follower_promises_an_unbounded_window_once_it_has_settled() {
        let inbox = [(5, WAIT)];
        let mut g = short(3);
        step(&mut g, &inbox);
        assert_eq!(g.idle_rounds(), 0, "just started following 5");
        let (msg, action) = step(&mut g, &inbox);
        assert_eq!(msg, Msg::UxsFollower { leader: 5 });
        assert_eq!(action, SubAction::Stay);
        assert_eq!(g.idle_rounds(), u64::MAX);
        assert_promise_holds(&g, msg, &inbox, 100);

        // 7 arrives: switching leaders changes the announcement. From the
        // next round on, 5 follows 7 too.
        step(&mut g, &[(5, WAIT), (7, WAIT)]);
        assert_eq!(g.idle_rounds(), 0, "just switched to 7");
        let joined = [(5, Msg::UxsFollower { leader: 7 }), (7, WAIT)];
        let (msg, _) = step(&mut g, &joined);
        assert_eq!(msg, Msg::UxsFollower { leader: 7 });
        assert_eq!(g.idle_rounds(), u64::MAX);
        assert_promise_holds(&g, msg, &joined, 100);
    }

    #[test]
    fn leader_accessors() {
        let cfg = GatherConfig::fast();
        let r = UxsGatherRobot::new(5, 6, &cfg);
        assert_eq!(r.id(), 5);
        assert!(r.exploration_bound() > 0);
        let inner = UxsGathering::new(5, 6, &cfg);
        assert!(inner.is_leader());
        assert!(!inner.is_finished());
    }
}
