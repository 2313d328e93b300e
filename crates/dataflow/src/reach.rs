//! Block-level backward analyses over the dynamic CFG *alone* — the
//! request semantics a fleet server can answer from archive data,
//! where no IR (and therefore no statement-level GEN/KILL) exists.
//!
//! Two primitives:
//!
//! * [`backward_reach_governed`] — the backward closure over dynamic
//!   CFG edges from a criterion node: every dynamic node whose
//!   execution can precede the criterion along observed edges. This is
//!   the block-level dynamic slice of §5 restricted to what the
//!   compacted trace itself proves; it needs no statements.
//! * [`block_effects`] — a per-node [`Effect`] vector derived from
//!   block *identities* (a definition block GENs, redefinition blocks
//!   KILL, everything else is transparent), which feeds the ordinary
//!   query engine ([`solve_backward_effects_governed`]) to answer
//!   block-level currency questions: which executions of a use block
//!   see the definition un-clobbered.
//!
//! Both are governed: a budget stop yields a *sound prefix* of the
//! deterministic traversal, so coverage is monotone in the step cap.
//!
//! [`solve_backward_effects_governed`]: crate::query::solve_backward_effects_governed

use std::collections::VecDeque;

use twpp::gov::{Budget, StopReason};
use twpp_ir::BlockId;

use crate::dyncfg::DynCfg;
use crate::facts::Effect;

/// The governed outcome of a backward reachability closure.
#[derive(Clone, PartialEq, Debug)]
pub struct ReachOutcome {
    /// Visited dynamic-node indices, in deterministic BFS order. A
    /// partial outcome's list is a *prefix* of the complete one.
    pub nodes: Vec<usize>,
    /// The expanded static blocks of every visited node, sorted and
    /// deduplicated — the block-level slice.
    pub blocks: Vec<BlockId>,
    /// Whether the closure ran to fixpoint.
    pub complete: bool,
    /// Visited nodes over the CFG's node count (`1.0` when complete).
    pub coverage: f64,
    /// Worklist nodes visited.
    pub visited: u64,
    /// Why traversal stopped, when partial.
    pub reason: Option<StopReason>,
}

/// Backward closure over dynamic CFG edges from `criterion`, charging
/// one budget step per visited node. Traversal is breadth-first with
/// predecessors in stored order, so the visit sequence is deterministic
/// and a budget stop truncates it to a prefix: partial answers are
/// always subsets of the complete one and coverage is monotone in the
/// step cap.
pub fn backward_reach_governed(dcfg: &DynCfg, criterion: usize, budget: &Budget) -> ReachOutcome {
    let n = dcfg.node_count();
    assert!(criterion < n, "criterion node out of range");
    let mut seen = vec![false; n];
    let mut order: Vec<usize> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    seen[criterion] = true;
    queue.push_back(criterion);
    let mut visited = 0u64;
    let mut reason = None;
    while let Some(i) = queue.pop_front() {
        if let Err(r) = budget.charge_step() {
            reason = Some(r);
            break;
        }
        visited += 1;
        order.push(i);
        for &p in dcfg.preds(i) {
            if !seen[p] {
                seen[p] = true;
                queue.push_back(p);
            }
        }
    }
    let complete = reason.is_none();
    let mut blocks: Vec<BlockId> = order
        .iter()
        .flat_map(|&i| dcfg.node(i).blocks.iter().copied())
        .collect();
    blocks.sort_unstable();
    blocks.dedup();
    let coverage = if complete {
        1.0
    } else if n == 0 {
        0.0
    } else {
        order.len() as f64 / n as f64
    };
    ReachOutcome {
        nodes: order,
        blocks,
        complete,
        coverage,
        visited,
        reason,
    }
}

/// Derives a per-node [`Effect`] vector from block identities: the node
/// headed by `def` GENs the tracked value, nodes headed by any of
/// `redefs` KILL it, everything else is transparent. `def` wins when it
/// also appears in `redefs` (a redefinition *is* a definition). The
/// vector plugs straight into
/// [`solve_backward_effects_governed`](crate::query::solve_backward_effects_governed).
pub fn block_effects(dcfg: &DynCfg, def: BlockId, redefs: &[BlockId]) -> Vec<Effect> {
    dcfg.nodes()
        .iter()
        .map(|node| {
            if node.head == def {
                Effect::Gen
            } else if redefs.contains(&node.head) {
                Effect::Kill
            } else {
                Effect::Transparent
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{
        solve_backward_effects_governed, solve_by_replay_effects_governed, QueryOutcome,
    };
    use twpp::gov::Limits;

    fn b(i: u32) -> BlockId {
        BlockId::new(i)
    }

    /// Two interleaved loop paths: 1.2.4 and 1.3.4, fifty rounds.
    fn dcfg() -> DynCfg {
        let mut seq = Vec::new();
        let mut x = 5u64;
        for _ in 0..50 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            seq.push(b(1));
            seq.push(if (x >> 33).is_multiple_of(3) { b(3) } else { b(2) });
            seq.push(b(4));
        }
        DynCfg::from_block_sequence(&seq)
    }

    #[test]
    fn closure_reaches_all_loop_blocks() {
        let g = dcfg();
        let n4 = g.node_by_head(b(4)).unwrap();
        let out = backward_reach_governed(&g, n4, &Budget::unlimited());
        assert!(out.complete);
        assert_eq!(out.coverage, 1.0);
        assert_eq!(out.blocks, vec![b(1), b(2), b(3), b(4)]);
    }

    #[test]
    fn partial_closure_is_a_prefix_and_coverage_monotone() {
        let g = dcfg();
        let n4 = g.node_by_head(b(4)).unwrap();
        let full = backward_reach_governed(&g, n4, &Budget::unlimited());
        let mut prev = -1.0f64;
        for cap in 1..=full.nodes.len() as u64 + 1 {
            let budget = Limits::new().max_steps(cap).start();
            let out = backward_reach_governed(&g, n4, &budget);
            assert!(out.coverage >= prev, "coverage monotone in the cap");
            prev = out.coverage;
            assert_eq!(
                out.nodes,
                full.nodes[..out.nodes.len()],
                "partial visit order must be a prefix of the complete one"
            );
            assert!(out.blocks.iter().all(|blk| full.blocks.contains(blk)));
            if out.complete {
                assert_eq!(out, full);
            } else {
                assert_eq!(out.reason, Some(StopReason::StepLimit));
            }
        }
        assert_eq!(prev, 1.0);
    }

    #[test]
    fn block_effects_feed_the_engine_and_agree_with_replay() {
        let g = dcfg();
        // Definition in block 1, clobbered by block 3, observed at 4.
        let effects = block_effects(&g, b(1), &[b(3)]);
        let n4 = g.node_by_head(b(4)).unwrap();
        let ts = g.node(n4).ts.clone();
        let fast = solve_backward_effects_governed(&g, &effects, n4, &ts, &Budget::unlimited());
        let slow = solve_by_replay_effects_governed(&g, &effects, n4, &ts, &Budget::unlimited());
        assert!(fast.is_complete() && slow.is_complete());
        assert_eq!(fast.result(), slow.result());
        // Every queried execution resolves one way or the other.
        let r = fast.result();
        assert_eq!(
            r.holds.len() + r.not_holds.len(),
            ts.len(),
            "every execution of the use must resolve"
        );
        // Block 3 kills: some executions must see a clobbered value in
        // this interleaving, and some a current one.
        assert!(!r.holds.is_empty() && !r.not_holds.is_empty());
    }

    #[test]
    fn def_wins_over_redef_on_the_same_block() {
        let g = dcfg();
        let e = block_effects(&g, b(1), &[b(1), b(3)]);
        let n1 = g.node_by_head(b(1)).unwrap();
        assert_eq!(e[n1], Effect::Gen);
    }

    #[test]
    fn governed_currency_partial_is_sound() {
        let g = dcfg();
        let effects = block_effects(&g, b(1), &[b(3)]);
        let n4 = g.node_by_head(b(4)).unwrap();
        let ts = g.node(n4).ts.clone();
        let full = solve_backward_effects_governed(&g, &effects, n4, &ts, &Budget::unlimited());
        // The one step builds the GEN/KILL projection; resolving the
        // queried series entries needs more.
        let budget = Limits::new().max_steps(1).start();
        match solve_backward_effects_governed(&g, &effects, n4, &ts, &budget) {
            QueryOutcome::Partial { result, coverage, .. } => {
                assert!((0.0..1.0).contains(&coverage));
                let fr = full.result();
                assert_eq!(
                    result.holds.intersect(&fr.holds).to_vec(),
                    result.holds.to_vec()
                );
                assert_eq!(
                    result.not_holds.intersect(&fr.not_holds).to_vec(),
                    result.not_holds.to_vec()
                );
            }
            QueryOutcome::Complete(_) => panic!("1 step must not complete this query"),
        }
    }
}
