//! Migration as both clocks run it: an idle node (the *thief*) asks a loaded
//! one (the *victim*) for pending descriptors, and the victim grants a batch
//! or replies empty-handed. [`MoveKind`] names the two kinds and defines,
//! once for the simulator (`ClusterDriver`) and the live runtime (`nexus-rt`),
//! which configuration enables each, what a request costs on the wire, how a
//! moved descriptor is recorded, whom a thief asks and how much a victim
//! grants.

use nexus_obs::SpanEvent;
use nexus_sched::{
    choose_reclaim_victim, reclaim_batch, FeedbackKind, LiveLoad, NodeLoad, StealKind,
};
use nexus_topo::DistanceMatrix;

/// Words on the wire for a steal request or its empty-handed reply (message
/// tag plus node id).
pub const STEAL_WORDS: u64 = 2;

/// Words on the wire for a pool-reclamation request or its empty-handed
/// reply (message tag plus node id — same shape as a steal request).
pub const RECLAIM_WORDS: u64 = 2;

/// The two kinds of migration. Per-kind state lives in two-element arrays
/// indexed by `kind as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// Work stealing: descriptors that can run at once (every producer
    /// retired), chosen by the configured [`StealKind`].
    Steal,
    /// Pool reclamation: dependence-blocked descriptors, which a steal never
    /// reaches, chosen by the rule shared by every steal kind.
    Reclaim,
}

impl MoveKind {
    /// Both kinds, steals first: a node that just issued a steal request
    /// (eligible work, strictly cheaper to import) sits out the reclaim
    /// round.
    pub const ALL: [MoveKind; 2] = [MoveKind::Steal, MoveKind::Reclaim];

    /// True when the configuration runs moves of this kind: stealing by its
    /// [`StealKind`], reclamation by the feedback mode.
    pub fn enabled(self, stealing: StealKind, feedback: FeedbackKind) -> bool {
        match self {
            MoveKind::Steal => stealing.is_enabled(),
            MoveKind::Reclaim => feedback.reclaim_enabled(),
        }
    }

    /// Words on the wire for a request or its empty-handed reply.
    pub fn words(self) -> u64 {
        match self {
            MoveKind::Steal => STEAL_WORDS,
            MoveKind::Reclaim => RECLAIM_WORDS,
        }
    }

    /// The span event recording one moved descriptor.
    pub fn span(self, task: usize, from: usize, to: usize) -> SpanEvent {
        match self {
            MoveKind::Steal => SpanEvent::Stolen { task, from, to },
            MoveKind::Reclaim => SpanEvent::Reclaimed { task, from, to },
        }
    }

    /// The victim idle `thief` asks, or `None` to stay idle: the steal kind's
    /// choice ([`StealKind::choose_victim`]) for a steal, and
    /// [`choose_reclaim_victim`], which reads the digests in `live`, for a
    /// reclaim.
    pub fn choose_victim(
        self,
        stealing: StealKind,
        thief: usize,
        loads: &[NodeLoad],
        live: Option<LiveLoad<'_>>,
        distances: &DistanceMatrix,
    ) -> Option<usize> {
        match self {
            MoveKind::Steal => stealing.choose_victim(thief, loads, distances),
            MoveKind::Reclaim => choose_reclaim_victim(thief, loads, live),
        }
    }

    /// The most descriptors a victim grants, given the thief's free workers
    /// and the victim's `backlog` of this kind at grant time
    /// ([`StealKind::batch_for`] or [`reclaim_batch`]).
    pub fn batch(self, stealing: StealKind, free_workers: usize, backlog: usize) -> usize {
        match self {
            MoveKind::Steal => stealing.batch_for(free_workers, backlog),
            MoveKind::Reclaim => reclaim_batch(backlog),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_kind_follows_its_own_switch_victim_and_batch_rule() {
        let (off, steal) = (StealKind::Disabled, StealKind::MostLoaded);
        assert!(MoveKind::Steal.enabled(steal, FeedbackKind::Off));
        assert!(!MoveKind::Steal.enabled(off, FeedbackKind::Full));
        assert!(MoveKind::Reclaim.enabled(off, FeedbackKind::Reclaim));
        assert!(!MoveKind::Reclaim.enabled(steal, FeedbackKind::Place));
        // Node 1 holds eligible work only, node 2 blocked work only.
        let loads = [
            NodeLoad::default(),
            NodeLoad {
                pending: 4,
                stealable: 4,
                ..NodeLoad::default()
            },
            NodeLoad {
                pending: 6,
                ..NodeLoad::default()
            },
        ];
        let flat = DistanceMatrix::uniform(3);
        let victim =
            |kind: MoveKind, stealing| kind.choose_victim(stealing, 0, &loads, None, &flat);
        assert_eq!(victim(MoveKind::Steal, steal), Some(1));
        assert_eq!(victim(MoveKind::Steal, off), None);
        assert_eq!(victim(MoveKind::Reclaim, off), Some(2));
        assert_eq!(MoveKind::Steal.batch(steal, 3, 40), 3);
        assert_eq!(MoveKind::Reclaim.batch(off, 3, 40), 20);
        assert_eq!(MoveKind::Reclaim.words(), RECLAIM_WORDS);
        assert_eq!(
            MoveKind::Steal.span(5, 1, 0),
            SpanEvent::Stolen {
                task: 5,
                from: 1,
                to: 0
            }
        );
    }
}
