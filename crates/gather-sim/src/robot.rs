//! The robot state-machine interface and the knowledge model it enforces.

use gather_graph::PortId;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// A robot label. The model assigns distinct labels from `[1, n^b]` for some
/// constant `b > 1`; robots of *different* bit lengths are explicitly allowed
/// and several algorithms exploit that.
pub type RobotId = u64;

/// What a robot can observe at the start of a round, before communicating.
///
/// This struct is deliberately minimal: it contains everything the model
/// allows a robot to know and nothing else. In particular there is **no node
/// identifier** — only the degree of the current node and the port through
/// which the robot arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Observation {
    /// The current round number, starting at 0. All robots start
    /// simultaneously, so this is common knowledge.
    pub round: u64,
    /// Number of nodes in the graph (known to every robot).
    pub n: usize,
    /// Degree of the node the robot currently occupies.
    pub degree: usize,
    /// Port through which the robot entered its current node on its most
    /// recent move, or `None` if it has never moved (or chose to stay last
    /// round — the entry port of the last actual move is retained).
    pub entry_port: Option<PortId>,
    /// Number of robots co-located with this robot at the start of the round
    /// (not counting itself). This is the weakest form of detection and is
    /// implied by the Face-to-Face message model (a robot sees who it can
    /// talk to).
    pub colocated: usize,
}

/// The movement decision a robot takes at the end of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Remain at the current node.
    Stay,
    /// Leave through the given local port (must be `< degree`).
    Move(PortId),
    /// Stop executing forever. Used when the robot has *detected* that
    /// gathering is complete. The robot remains parked on its node.
    Terminate,
}

// ---------------------------------------------------------------------------
// Inboxes: borrowed views over the engine's per-round message arena.
// ---------------------------------------------------------------------------

/// The announcements delivered to one robot in one round, as a borrowed view.
///
/// The engine writes every announcement exactly once per round into a flat
/// arena grouped by node; an `Inbox` is a slice of that arena (the receiver's
/// node bucket) plus the index of the receiver's own entry, which iteration
/// skips. Nothing is cloned or collected to deliver messages, which is what
/// keeps the round loop allocation-free in steady state.
///
/// Entries are sorted by robot id (ascending) and contain only co-located,
/// non-terminated robots — the same contract the old `&[(RobotId, Msg)]`
/// slices carried. Use [`Inbox::iter`] for the peers' `(id, &msg)` pairs, or
/// [`Inbox::get`] to look up one sender.
///
/// An inbox delivered through the type-erased [`DynRobot`] layer keeps its
/// entries erased; iteration downcasts each message on the fly and silently
/// drops announcements of foreign types (robots of different algorithms never
/// normally share a node within one run, so nothing is lost).
pub struct Inbox<'a, M> {
    entries: InboxEntries<'a, M>,
    /// Index of the receiver's own entry within `entries` (skipped by
    /// iteration), or `usize::MAX` when the receiver has no entry.
    skip: usize,
}

enum InboxEntries<'a, M> {
    /// Concrete messages, delivered by the monomorphized engine loop.
    Typed(&'a [(RobotId, M)]),
    /// Erased messages, delivered through the [`DynRobot`] layer.
    Erased(&'a [(RobotId, DynMsg)]),
}

impl<'a, M> Clone for InboxEntries<'a, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, M> Copy for InboxEntries<'a, M> {}

impl<'a, M> Clone for Inbox<'a, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, M> Copy for Inbox<'a, M> {}

impl<M> Default for Inbox<'_, M> {
    fn default() -> Self {
        Inbox::empty()
    }
}

impl<'a, M> Inbox<'a, M> {
    /// An inbox with no messages (a robot alone on its node).
    pub fn empty() -> Self {
        Inbox {
            entries: InboxEntries::Typed(&[]),
            skip: usize::MAX,
        }
    }

    /// Wraps a plain id-sorted slice of messages, none of which belong to the
    /// receiver. This is how tests and manual drivers build inboxes.
    pub fn from_slice(entries: &'a [(RobotId, M)]) -> Self {
        Inbox {
            entries: InboxEntries::Typed(entries),
            skip: usize::MAX,
        }
    }

    /// Engine-internal constructor: a node bucket of the message arena plus
    /// the receiver's own position within it.
    pub(crate) fn typed(entries: &'a [(RobotId, M)], skip: usize) -> Self {
        Inbox {
            entries: InboxEntries::Typed(entries),
            skip,
        }
    }
}

impl<'a, M: Any> Inbox<'a, M> {
    /// Iterates over `(sender id, message)` pairs, sorted by sender id.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            entries: self.entries,
            idx: 0,
            skip: self.skip,
        }
    }

    /// Number of messages delivered (excluding the receiver's own entry; in
    /// an erased inbox, counting only messages of type `M`).
    pub fn len(&self) -> usize {
        match self.entries {
            InboxEntries::Typed(e) => e.len() - usize::from(self.skip < e.len()),
            InboxEntries::Erased(_) => self.iter().count(),
        }
    }

    /// True when no messages were delivered.
    pub fn is_empty(&self) -> bool {
        match self.entries {
            InboxEntries::Typed(_) => self.len() == 0,
            InboxEntries::Erased(_) => self.iter().next().is_none(),
        }
    }

    /// The message announced by robot `id`, if it is present in this inbox.
    pub fn get(&self, id: RobotId) -> Option<&'a M> {
        self.iter().find(|&(i, _)| i == id).map(|(_, m)| m)
    }
}

impl<'a> Inbox<'a, DynMsg> {
    /// Re-views an erased inbox at a concrete message type. Iteration will
    /// downcast entries on the fly; foreign messages are dropped and order is
    /// preserved. This is free — no messages are cloned or collected.
    pub fn downcast<M: Any>(&self) -> Inbox<'a, M> {
        let entries = match self.entries {
            InboxEntries::Typed(e) => e,
            InboxEntries::Erased(e) => e,
        };
        Inbox {
            entries: InboxEntries::Erased(entries),
            skip: self.skip,
        }
    }
}

impl<'a, M: Any + fmt::Debug> fmt::Debug for Inbox<'a, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Iterator over the `(sender id, message)` pairs of an [`Inbox`].
pub struct InboxIter<'a, M> {
    entries: InboxEntries<'a, M>,
    idx: usize,
    skip: usize,
}

impl<'a, M: Any> Iterator for InboxIter<'a, M> {
    type Item = (RobotId, &'a M);

    fn next(&mut self) -> Option<(RobotId, &'a M)> {
        loop {
            if self.idx == self.skip {
                self.idx += 1;
                continue;
            }
            match self.entries {
                InboxEntries::Typed(e) => {
                    let (id, m) = e.get(self.idx)?;
                    self.idx += 1;
                    return Some((*id, m));
                }
                InboxEntries::Erased(e) => {
                    let (id, m) = e.get(self.idx)?;
                    self.idx += 1;
                    if let Some(m) = m.downcast_ref::<M>() {
                        return Some((*id, m));
                    }
                    // Foreign message type: drop and keep scanning.
                }
            }
        }
    }
}

/// A deterministic robot algorithm, executed independently by every robot.
///
/// One round proceeds in two sub-steps, matching the paper's model
/// ("communicate and compute, then move"):
///
/// 1. [`Robot::announce`] — the robot publishes a message at its node. The
///    engine delivers the messages of all co-located robots to each robot.
///    Announcements are computed from the robot's state at the start of the
///    round only (they cannot depend on other announcements), which is what
///    makes the exchange well-defined.
/// 2. [`Robot::decide`] — the robot reads the announcements of its
///    co-located peers, updates its internal state, and returns its
///    [`Action`] for this round.
///
/// Since the Face-to-Face model allows arbitrary local computation, a robot
/// may locally *simulate* the deterministic decision rule of a co-located
/// peer from that peer's announcement (the gathering algorithms use this to
/// follow the *actual* move of a leader rather than its announced intention).
pub trait Robot {
    /// The message type exchanged between co-located robots. (`Any` — i.e.
    /// `'static` — so that the same message can be delivered through the
    /// type-erased [`DynRobot`] layer without copying.)
    type Msg: Clone + std::fmt::Debug + Any;

    /// True when [`Robot::announce_reuse`] actually reuses the storage of
    /// the previous round's message. The engine only pays for recycling
    /// message payloads (draining its arena back into per-robot slots) when
    /// an implementation opts in; the erased [`DynRobot`] layer does, which
    /// is what makes its hot path allocation-free in steady state.
    const REUSES_MSG_STORAGE: bool = false;

    /// This robot's label.
    fn id(&self) -> RobotId;

    /// Publish this round's announcement.
    fn announce(&mut self, obs: &Observation) -> Self::Msg;

    /// [`Robot::announce`], offered the previous round's message back so its
    /// storage can be reused. The default ignores `prev` (plain message
    /// types carry no reusable storage); the erased layer overrides it to
    /// overwrite the recycled [`DynMsg`] allocation in place. Only called by
    /// the engine when [`Robot::REUSES_MSG_STORAGE`] is set.
    fn announce_reuse(&mut self, obs: &Observation, prev: Option<Self::Msg>) -> Self::Msg {
        let _ = prev;
        self.announce(obs)
    }

    /// Read co-located announcements (own announcement excluded) and decide
    /// this round's action. The inbox is sorted by robot id for determinism
    /// and borrows the engine's message arena — copy out anything that must
    /// outlive the round.
    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, Self::Msg>) -> Action;

    /// True once the robot has decided gathering is complete (it returned
    /// [`Action::Terminate`], or will never act again). The engine uses this
    /// to validate detection; implementations should return `true` exactly
    /// when they have terminated.
    fn has_terminated(&self) -> bool {
        false
    }

    /// An estimate of the robot's persistent state in bits, used by the
    /// memory experiments (`O(m log n)` claims). The default of 0 means
    /// "not reported".
    fn memory_estimate_bits(&self) -> usize {
        0
    }

    /// How many of the following rounds this robot is guaranteed to spend
    /// idle, asked right after a [`Robot::decide`] that returned
    /// [`Action::Stay`]. The default of 0 promises nothing.
    ///
    /// A return of `m` is a promise about each of the next `m` rounds,
    /// provided the robot's observation (apart from `round`) and its inbox
    /// repeat those of the round just run: the robot publishes the same
    /// announcement and decides [`Action::Stay`]; its state changes only in
    /// the round counters that [`Robot::skip_idle_rounds`]`(m)` advances;
    /// and [`Robot::memory_estimate_bits`] does not change.
    ///
    /// When every non-terminated robot of a fault-free, fully synchronous,
    /// untraced run stayed put and promises at least one idle round,
    /// [`crate::engine::Simulator::run`] skips the common window instead of
    /// executing it. The robots' announcements and positions repeat, so
    /// each inbox and observation does too, and the outcome is the one the
    /// executed rounds would have produced.
    ///
    /// Among the built-in algorithms, Undispersed-Gathering promises its
    /// Phase 1 waits and UXS-Gathering the waits of its label-bit schedule
    /// (a settled follower promises an unbounded window); Faster-Gathering
    /// forwards both from its embedded copies. Hop-meeting and the
    /// expanding baseline keep the default.
    fn idle_rounds(&self) -> u64 {
        0
    }

    /// Advances the robot's round counters over `rounds` idle rounds it
    /// promised through [`Robot::idle_rounds`], as if it had announced and
    /// decided [`Action::Stay`] in each of them. The default does nothing,
    /// which is right for robots that keep the default promise of 0.
    fn skip_idle_rounds(&mut self, rounds: u64) {
        let _ = rounds;
    }
}

// ---------------------------------------------------------------------------
// Type-erased robots.
// ---------------------------------------------------------------------------

/// A type-erased announcement, allowing robots with different concrete
/// message types to live behind one trait object.
///
/// [`Robot::Msg`] is an associated type, so `Robot` itself is not
/// object-safe. [`DynRobot`] erases the message type behind `Any`; receivers
/// downcast back to their own message type and simply ignore announcements
/// they do not understand (robots of *different* algorithms never normally
/// share a node within one run, so nothing is lost).
#[derive(Clone)]
pub struct DynMsg(Arc<dyn Any + Send + Sync>);

impl DynMsg {
    /// Erases a concrete message.
    pub fn new<M: Any + Send + Sync>(msg: M) -> Self {
        DynMsg(Arc::new(msg))
    }

    /// Recovers the concrete message, if `M` is its actual type.
    pub fn downcast_ref<M: Any>(&self) -> Option<&M> {
        self.0.downcast_ref::<M>()
    }

    /// Writes `msg` into this value's existing allocation, if it is the sole
    /// owner and the payload is already of type `M`; hands `msg` back
    /// otherwise. This is the recycling step of the erased hot path: a slot
    /// that came back from the engine's arena has exactly one owner, so the
    /// overwrite succeeds and no new `Arc` is allocated.
    pub fn try_overwrite<M: Any + Send + Sync>(&mut self, msg: M) -> Result<(), M> {
        match Arc::get_mut(&mut self.0).and_then(|payload| payload.downcast_mut::<M>()) {
            Some(slot) => {
                *slot = msg;
                Ok(())
            }
            None => Err(msg),
        }
    }
}

impl fmt::Debug for DynMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DynMsg(..)")
    }
}

/// Object-safe mirror of [`Robot`], blanket-implemented for every robot whose
/// message type is erasable.
///
/// This is what makes an *open* algorithm registry possible: a factory can
/// hand back `Box<dyn DynRobot>` values for any robot implementation — in
/// this workspace or downstream — and the simulator runs them through the
/// [`Robot`] impl on the boxed trait object.
///
/// The erased hot path is allocation-free in steady state: inboxes are
/// re-viewed (not re-collected) at the concrete message type via
/// [`Inbox::downcast`], and announcement payloads live in recycled per-robot
/// `Arc` slots — the engine hands each robot its previous round's [`DynMsg`]
/// back through [`DynRobot::announce_dyn_reuse`], which overwrites the
/// payload in place instead of allocating a fresh `Arc` (asserted by the
/// counting-allocator test in `gather-sim/tests/alloc_free.rs`).
///
/// # No state digest on the erased path
///
/// The model checker deduplicates visited [`crate::engine::SimState`]s by
/// hashing them, which requires `R: Hash` on the *whole* robot — a bound a
/// trait object cannot offer without forcing every implementor to expose a
/// canonical digest. Rather than ship an easily-forgotten `digest_dyn`
/// method whose omissions would silently merge distinct states (unsound
/// dedup — the checker would skip unexplored states), the erased path simply
/// has **no** digest: `Box<dyn DynRobot>` implements [`Robot`] but not
/// `Hash`/`Clone`, so it cannot be model-checked, and the compiler enforces
/// that. Exhaustive checking runs monomorphized — `gather-check` constructs
/// the concrete robot types directly, where `#[derive(Hash)]` covers every
/// internal field by construction and a new field cannot be forgotten.
pub trait DynRobot: Send {
    /// This robot's label.
    fn id_dyn(&self) -> RobotId;
    /// Publish this round's announcement (erased).
    fn announce_dyn(&mut self, obs: &Observation) -> DynMsg;
    /// [`DynRobot::announce_dyn`], reusing `slot`'s allocation when it is
    /// uniquely owned and already holds this robot's message type (the
    /// common case: the engine recycles each robot's own last announcement).
    /// The default ignores the slot and allocates.
    fn announce_dyn_reuse(&mut self, obs: &Observation, slot: DynMsg) -> DynMsg {
        let _ = slot;
        self.announce_dyn(obs)
    }
    /// Read co-located announcements and decide this round's action.
    fn decide_dyn(&mut self, obs: &Observation, inbox: Inbox<'_, DynMsg>) -> Action;
    /// See [`Robot::has_terminated`].
    fn has_terminated_dyn(&self) -> bool;
    /// See [`Robot::memory_estimate_bits`].
    fn memory_estimate_bits_dyn(&self) -> usize;
    /// See [`Robot::idle_rounds`].
    fn idle_rounds_dyn(&self) -> u64;
    /// See [`Robot::skip_idle_rounds`].
    fn skip_idle_rounds_dyn(&mut self, rounds: u64);
}

impl<R> DynRobot for R
where
    R: Robot + Send,
    R::Msg: Any + Send + Sync,
{
    fn id_dyn(&self) -> RobotId {
        self.id()
    }

    fn announce_dyn(&mut self, obs: &Observation) -> DynMsg {
        DynMsg::new(self.announce(obs))
    }

    fn announce_dyn_reuse(&mut self, obs: &Observation, mut slot: DynMsg) -> DynMsg {
        match slot.try_overwrite(self.announce(obs)) {
            Ok(()) => slot,
            // Someone still holds a reference to the old payload (or the
            // slot carried a foreign type): fall back to a fresh allocation.
            Err(msg) => DynMsg::new(msg),
        }
    }

    fn decide_dyn(&mut self, obs: &Observation, inbox: Inbox<'_, DynMsg>) -> Action {
        // Messages of foreign types are dropped lazily during iteration; the
        // inbox stays sorted by robot id because downcasting preserves order.
        self.decide(obs, inbox.downcast::<R::Msg>())
    }

    fn has_terminated_dyn(&self) -> bool {
        self.has_terminated()
    }

    fn memory_estimate_bits_dyn(&self) -> usize {
        self.memory_estimate_bits()
    }

    fn idle_rounds_dyn(&self) -> u64 {
        self.idle_rounds()
    }

    fn skip_idle_rounds_dyn(&mut self, rounds: u64) {
        self.skip_idle_rounds(rounds)
    }
}

impl Robot for Box<dyn DynRobot> {
    type Msg = DynMsg;

    /// Erased announcements are `Arc`-backed, so recycling their storage is
    /// what keeps the erased round loop allocation-free.
    const REUSES_MSG_STORAGE: bool = true;

    fn id(&self) -> RobotId {
        self.as_ref().id_dyn()
    }

    fn announce(&mut self, obs: &Observation) -> DynMsg {
        self.as_mut().announce_dyn(obs)
    }

    fn announce_reuse(&mut self, obs: &Observation, prev: Option<DynMsg>) -> DynMsg {
        match prev {
            Some(slot) => self.as_mut().announce_dyn_reuse(obs, slot),
            None => self.as_mut().announce_dyn(obs),
        }
    }

    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, DynMsg>) -> Action {
        self.as_mut().decide_dyn(obs, inbox)
    }

    fn has_terminated(&self) -> bool {
        self.as_ref().has_terminated_dyn()
    }

    fn memory_estimate_bits(&self) -> usize {
        self.as_ref().memory_estimate_bits_dyn()
    }

    fn idle_rounds(&self) -> u64 {
        self.as_ref().idle_rounds_dyn()
    }

    fn skip_idle_rounds(&mut self, rounds: u64) {
        self.as_mut().skip_idle_rounds_dyn(rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial robot used to exercise the trait's default methods.
    struct Walker {
        id: RobotId,
    }

    impl Robot for Walker {
        type Msg = ();

        fn id(&self) -> RobotId {
            self.id
        }

        fn announce(&mut self, _obs: &Observation) -> Self::Msg {}

        fn decide(&mut self, obs: &Observation, _inbox: Inbox<'_, ()>) -> Action {
            if obs.degree > 0 {
                Action::Move(0)
            } else {
                Action::Stay
            }
        }
    }

    #[test]
    fn default_trait_methods() {
        let r = Walker { id: 7 };
        assert_eq!(r.id(), 7);
        assert!(!r.has_terminated());
        assert_eq!(r.memory_estimate_bits(), 0);
    }

    #[test]
    fn observation_is_copy_and_serialisable() {
        let obs = Observation {
            round: 3,
            n: 10,
            degree: 2,
            entry_port: Some(1),
            colocated: 0,
        };
        let copy = obs;
        assert_eq!(copy, obs);
        let s = serde_json::to_string(&obs).unwrap();
        assert!(s.contains("\"round\":3"));
    }

    #[test]
    fn action_equality() {
        assert_eq!(Action::Move(2), Action::Move(2));
        assert_ne!(Action::Move(2), Action::Move(3));
        assert_ne!(Action::Stay, Action::Terminate);
    }

    #[test]
    fn inbox_views_skip_the_receivers_own_entry() {
        let entries: Vec<(RobotId, u64)> = vec![(2, 20), (5, 50), (9, 90)];
        let inbox = Inbox::typed(&entries, 1); // receiver is robot 5
        assert_eq!(inbox.len(), 2);
        assert!(!inbox.is_empty());
        let seen: Vec<(RobotId, u64)> = inbox.iter().map(|(id, &m)| (id, m)).collect();
        assert_eq!(seen, vec![(2, 20), (9, 90)]);
        assert_eq!(inbox.get(9), Some(&90));
        assert_eq!(inbox.get(5), None, "own entry is invisible");

        let all = Inbox::from_slice(&entries);
        assert_eq!(all.len(), 3);
        assert_eq!(all.get(5), Some(&50));

        let empty: Inbox<'_, u64> = Inbox::empty();
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        assert!(empty.get(1).is_none());
    }

    /// Echoes the largest id it has heard (exercising typed inboxes through
    /// the erased layer).
    struct Echo {
        id: RobotId,
        heard_max: RobotId,
    }

    impl Robot for Echo {
        type Msg = RobotId;

        fn id(&self) -> RobotId {
            self.id
        }

        fn announce(&mut self, _obs: &Observation) -> RobotId {
            self.id
        }

        fn decide(&mut self, _obs: &Observation, inbox: Inbox<'_, RobotId>) -> Action {
            for (_, &m) in inbox.iter() {
                self.heard_max = self.heard_max.max(m);
            }
            Action::Stay
        }
    }

    #[test]
    fn erased_robots_roundtrip_their_messages() {
        let obs = Observation {
            round: 0,
            n: 4,
            degree: 2,
            entry_port: None,
            colocated: 1,
        };
        let mut a: Box<dyn DynRobot> = Box::new(Echo {
            id: 3,
            heard_max: 0,
        });
        let mut b: Box<dyn DynRobot> = Box::new(Echo {
            id: 9,
            heard_max: 0,
        });
        assert_eq!(Robot::id(&a), 3);
        let msg_b = b.announce(&obs);
        let inbox = vec![(9u64, msg_b)];
        let action = a.decide(&obs, Inbox::from_slice(&inbox));
        assert_eq!(action, Action::Stay);
        assert!(!a.has_terminated());
        assert_eq!(a.memory_estimate_bits(), 0);
    }

    #[test]
    fn foreign_messages_are_dropped_by_the_erased_inbox() {
        let obs = Observation {
            round: 0,
            n: 4,
            degree: 1,
            entry_port: None,
            colocated: 1,
        };
        let mut echo: Box<dyn DynRobot> = Box::new(Echo {
            id: 1,
            heard_max: 0,
        });
        // A unit-message announcement from a different robot type.
        let entries = [(2u64, DynMsg::new(())), (4u64, DynMsg::new(7u64))];
        let erased = Inbox::from_slice(&entries);
        assert_eq!(erased.downcast::<RobotId>().len(), 1, "only the RobotId");
        assert!(erased.downcast::<RobotId>().get(2).is_none());
        assert_eq!(erased.downcast::<RobotId>().get(4), Some(&7u64));
        let action = echo.decide(&obs, erased);
        assert_eq!(action, Action::Stay);
    }
}
