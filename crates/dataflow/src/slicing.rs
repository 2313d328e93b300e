//! Dynamic program slicing over the timestamped dynamic CFG — the three
//! Agrawal–Horgan algorithms of §4.3.2 (Figures 10 and 11), implemented on
//! **one common representation** instead of three specialized dependence
//! graphs.
//!
//! * [`Approach::ExecutedNodes`] — traverse the static program dependence
//!   graph restricted to nodes that executed (non-empty timestamp sets).
//! * [`Approach::ExecutedEdges`] — traverse only dependence edges that were
//!   exercised at some timestamp; once a dependence is found, all
//!   timestamps of the source node are explored.
//! * [`Approach::PreciseInstances`] — track individual statement instances
//!   `(node, timestamp)`; only the defining/controlling *instance* of each
//!   dependence is explored, yielding the precise dynamic slice.
//!
//! Slices are computed at basic-block granularity; compile the subject
//! program with `twpp_lang::LowerOptions::stmt_per_block` to make blocks
//! coincide with source statements as in the paper's figures.

use std::collections::{BTreeSet, HashSet};

use twpp::gov::{Budget, StopReason};
use twpp_ir::dom::ControlDeps;
use twpp_ir::{BlockId, Function, Var};

use crate::dyncfg::DynCfg;
use crate::reachdefs::ReachingDefs;

/// Which Agrawal–Horgan algorithm to run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Approach {
    /// Approach 1: static PDG restricted to executed nodes.
    ExecutedNodes,
    /// Approach 2: only dependence edges exercised during execution.
    ExecutedEdges,
    /// Approach 3: precise per-instance dependences.
    PreciseInstances,
}

/// A slicing criterion: a variable at a particular execution instance of a
/// block.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Criterion {
    /// The block (statement) at which the slice is requested.
    pub block: BlockId,
    /// The timestamp of the execution instance (ignored by approach 1).
    pub timestamp: u32,
    /// The variable whose value is being explained.
    pub var: Var,
}

/// The outcome of a governed slice: complete, or cut short by the budget.
///
/// A partial slice is an *under-approximation*: every block it contains
/// genuinely influences the criterion, but blocks may be missing.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum SliceOutcome {
    /// The worklist drained: the slice is exact for the chosen approach.
    Complete(BTreeSet<BlockId>),
    /// The budget stopped traversal; the slice is a sound subset.
    Partial {
        /// The blocks discovered before the stop.
        slice: BTreeSet<BlockId>,
        /// Worklist items processed before the stop.
        visited: u64,
        /// Why traversal stopped.
        reason: StopReason,
    },
}

impl SliceOutcome {
    /// The discovered blocks, complete or not.
    pub fn slice(&self) -> &BTreeSet<BlockId> {
        match self {
            SliceOutcome::Complete(s) => s,
            SliceOutcome::Partial { slice, .. } => slice,
        }
    }

    /// Whether the traversal ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, SliceOutcome::Complete(_))
    }
}

/// A dynamic slicer for one function's execution trace.
pub struct Slicer<'f> {
    func: &'f Function,
    dcfg: DynCfg,
    rd: ReachingDefs,
    cds: ControlDeps,
}

impl<'f> Slicer<'f> {
    /// Builds a slicer from the executed block sequence of `func`.
    pub fn new(func: &'f Function, trace: &[BlockId]) -> Slicer<'f> {
        Slicer {
            func,
            dcfg: DynCfg::from_block_sequence(trace),
            rd: ReachingDefs::new(func),
            cds: ControlDeps::new(func),
        }
    }

    /// The underlying dynamic CFG.
    pub fn dyn_cfg(&self) -> &DynCfg {
        &self.dcfg
    }

    /// The sliced function.
    pub fn function(&self) -> &Function {
        self.func
    }

    /// Computes the slice: the set of blocks (statements) whose execution
    /// influenced the criterion under the chosen approach.
    pub fn slice(&self, criterion: Criterion, approach: Approach) -> BTreeSet<BlockId> {
        match self.slice_governed(criterion, approach, &Budget::unlimited()) {
            SliceOutcome::Complete(s) | SliceOutcome::Partial { slice: s, .. } => s,
        }
    }

    /// Budget-governed variant of [`Slicer::slice`]: charges one step per
    /// worklist item, so a deadline or step cap interrupts the traversal
    /// within one dependence hop and returns the blocks found so far.
    pub fn slice_governed(
        &self,
        criterion: Criterion,
        approach: Approach,
        budget: &Budget,
    ) -> SliceOutcome {
        let (slice, visited, stopped) = match approach {
            Approach::ExecutedNodes => self.slice_executed_nodes(criterion, budget),
            Approach::ExecutedEdges => self.slice_executed_edges(criterion, budget),
            Approach::PreciseInstances => self.slice_precise(criterion, budget),
        };
        match stopped {
            None => SliceOutcome::Complete(slice),
            Some(reason) => SliceOutcome::Partial {
                slice,
                visited,
                reason,
            },
        }
    }

    fn executed(&self, block: BlockId) -> bool {
        self.dcfg.node_by_head(block).is_some()
    }

    /// The latest execution `(block, timestamp)` of a definition of `v`
    /// strictly before `t`.
    fn last_def(&self, v: Var, t: u32) -> Option<(BlockId, u32)> {
        let mut best: Option<(BlockId, u32)> = None;
        for node in self.dcfg.nodes() {
            let head = node.head;
            if !self.rd.defs_of(head).contains(&v) {
                continue;
            }
            if let Some(ts) = node.ts.max_lt(t) {
                if best.map(|(_, bt)| ts > bt).unwrap_or(true) {
                    best = Some((head, ts));
                }
            }
        }
        best
    }

    // --- Approach 1 ----------------------------------------------------

    fn slice_executed_nodes(
        &self,
        criterion: Criterion,
        budget: &Budget,
    ) -> (BTreeSet<BlockId>, u64, Option<StopReason>) {
        let mut slice = BTreeSet::new();
        let mut visited: u64 = 0;
        if !self.executed(criterion.block) {
            return (slice, visited, None);
        }
        let mut work = vec![criterion.block];
        slice.insert(criterion.block);
        // Also seed with the static defs of the criterion variable that
        // executed and reach the criterion.
        for &(src, v) in self.rd.reaching(criterion.block) {
            if v == criterion.var && self.executed(src) && slice.insert(src) {
                work.push(src);
            }
        }
        while let Some(n) = work.pop() {
            if let Err(reason) = budget.charge_step() {
                return (slice, visited, Some(reason));
            }
            visited += 1;
            for src in self.rd.dep_sources(n) {
                if self.executed(src) && slice.insert(src) {
                    work.push(src);
                }
            }
            for &c in self.cds.deps_of(n) {
                if self.executed(c) && slice.insert(c) {
                    work.push(c);
                }
            }
        }
        (slice, visited, None)
    }

    // --- Approach 2 ----------------------------------------------------

    fn slice_executed_edges(
        &self,
        criterion: Criterion,
        budget: &Budget,
    ) -> (BTreeSet<BlockId>, u64, Option<StopReason>) {
        let mut slice = BTreeSet::new();
        let mut popped: u64 = 0;
        if !self.executed(criterion.block) {
            return (slice, popped, None);
        }
        let mut visited: HashSet<BlockId> = HashSet::new();
        let mut work: Vec<BlockId> = Vec::new();
        slice.insert(criterion.block);
        visited.insert(criterion.block);
        // Seed: the exercised definition of the criterion variable at the
        // criterion instance (all instances once found, per approach 2).
        if let Some((src, _)) = self.last_def(criterion.var, criterion.timestamp) {
            if visited.insert(src) {
                slice.insert(src);
                work.push(src);
            }
        }
        // Process the criterion node's own dependences too.
        work.push(criterion.block);
        while let Some(n) = work.pop() {
            if let Err(reason) = budget.charge_step() {
                return (slice, popped, Some(reason));
            }
            popped += 1;
            let Some(node_idx) = self.dcfg.node_by_head(n) else {
                continue;
            };
            let node_ts = &self.dcfg.node(node_idx).ts;
            // Data dependences exercised at any execution of n.
            for &u in self.rd.uses_of(n) {
                let mut sources: BTreeSet<BlockId> = BTreeSet::new();
                for t in node_ts.iter() {
                    if let Some((src, _)) = self.last_def(u, t) {
                        sources.insert(src);
                    }
                }
                for src in sources {
                    if visited.insert(src) {
                        slice.insert(src);
                        work.push(src);
                    }
                }
            }
            // Control dependences exercised: the controlling predicate
            // executed before some execution of n.
            for &c in self.cds.deps_of(n) {
                let Some(c_idx) = self.dcfg.node_by_head(c) else {
                    continue;
                };
                let exercised = node_ts
                    .iter()
                    .any(|t| self.dcfg.node(c_idx).ts.max_lt(t).is_some());
                if exercised && visited.insert(c) {
                    slice.insert(c);
                    work.push(c);
                }
            }
        }
        (slice, popped, None)
    }

    // --- Approach 3 ----------------------------------------------------

    fn slice_precise(
        &self,
        criterion: Criterion,
        budget: &Budget,
    ) -> (BTreeSet<BlockId>, u64, Option<StopReason>) {
        let mut slice = BTreeSet::new();
        let mut popped: u64 = 0;
        if !self.executed(criterion.block) {
            return (slice, popped, None);
        }
        let mut visited: HashSet<(BlockId, u32)> = HashSet::new();
        let mut work: Vec<(BlockId, u32)> = Vec::new();
        slice.insert(criterion.block);
        work.push((criterion.block, criterion.timestamp));
        // Seed the reaching definition instance of the criterion variable.
        if let Some((src, ts)) = self.last_def(criterion.var, criterion.timestamp) {
            slice.insert(src);
            work.push((src, ts));
        }
        while let Some((n, t)) = work.pop() {
            if !visited.insert((n, t)) {
                continue;
            }
            if let Err(reason) = budget.charge_step() {
                return (slice, popped, Some(reason));
            }
            popped += 1;
            for &u in self.rd.uses_of(n) {
                if let Some((src, ts)) = self.last_def(u, t) {
                    slice.insert(src);
                    work.push((src, ts));
                }
            }
            for &c in self.cds.deps_of(n) {
                let Some(c_idx) = self.dcfg.node_by_head(c) else {
                    continue;
                };
                if let Some(tc) = self.dcfg.node(c_idx).ts.max_lt(t) {
                    slice.insert(c);
                    work.push((c, tc));
                }
            }
        }
        (slice, popped, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twpp_ir::{single_function_program, Operand, Program, Rvalue, Stmt, Terminator};

    fn b(i: u32) -> BlockId {
        BlockId::new(i)
    }

    /// b1: a=input -> b2: branch a -> {b3: x=1 | b4: x=2} -> b5: y=x
    /// -> b6: print y.
    fn diamond_program() -> Program {
        single_function_program(|fb| {
            let b1 = fb.entry();
            let b2 = fb.new_block();
            let b3 = fb.new_block();
            let b4 = fb.new_block();
            let b5 = fb.new_block();
            let b6 = fb.new_block();
            let a = fb.new_var();
            let x = fb.new_var();
            let y = fb.new_var();
            fb.push(b1, Stmt::assign(a, Rvalue::Input));
            fb.terminate(b1, Terminator::Jump(b2));
            fb.terminate(
                b2,
                Terminator::Branch {
                    cond: Operand::Var(a),
                    then_dest: b3,
                    else_dest: b4,
                },
            );
            fb.push(b3, Stmt::assign(x, Rvalue::Use(Operand::Const(1))));
            fb.terminate(b3, Terminator::Jump(b5));
            fb.push(b4, Stmt::assign(x, Rvalue::Use(Operand::Const(2))));
            fb.terminate(b4, Terminator::Jump(b5));
            fb.push(b5, Stmt::assign(y, Rvalue::Use(Operand::Var(x))));
            fb.terminate(b5, Terminator::Jump(b6));
            fb.push(b6, Stmt::Print(Operand::Var(y)));
            fb.terminate(b6, Terminator::Return(None));
        })
        .unwrap()
    }

    #[test]
    fn precision_ordering_on_diamond() {
        let p = diamond_program();
        let f = p.func(p.main());
        // Execution took the then-branch: b1 b2 b3 b5 b6.
        let trace = [b(1), b(2), b(3), b(5), b(6)];
        let slicer = Slicer::new(f, &trace);
        let y = Var::from_index(2);
        let criterion = Criterion {
            block: b(6),
            timestamp: 5,
            var: y,
        };
        let s1 = slicer.slice(criterion, Approach::ExecutedNodes);
        let s2 = slicer.slice(criterion, Approach::ExecutedEdges);
        let s3 = slicer.slice(criterion, Approach::PreciseInstances);
        assert!(s3.is_subset(&s2), "{s3:?} ⊄ {s2:?}");
        assert!(s2.is_subset(&s1), "{s2:?} ⊄ {s1:?}");
        // b4 never executed: in no slice.
        for s in [&s1, &s2, &s3] {
            assert!(!s.contains(&b(4)));
        }
        // The executed definition b3, its controlling branch b2, and the
        // branch's input b1 are all relevant.
        for needed in [b(1), b(2), b(3), b(5), b(6)] {
            assert!(s3.contains(&needed), "missing {needed}");
        }
    }

    #[test]
    fn precise_slice_picks_the_right_instance_in_loops() {
        // b1: x=1 -> b2: x=2 (loop twice) -> b3: y=x.
        // The value of y comes from the LAST iteration of b2.
        let p = single_function_program(|fb| {
            let b1 = fb.entry();
            let b2 = fb.new_block();
            let b3 = fb.new_block();
            let x = fb.new_var();
            let y = fb.new_var();
            fb.push(b1, Stmt::assign(x, Rvalue::Use(Operand::Const(1))));
            fb.terminate(b1, Terminator::Jump(b2));
            fb.push(b2, Stmt::assign(x, Rvalue::Use(Operand::Const(2))));
            fb.terminate(
                b2,
                Terminator::Branch {
                    cond: Operand::Var(x),
                    then_dest: b2,
                    else_dest: b3,
                },
            );
            fb.push(b3, Stmt::assign(y, Rvalue::Use(Operand::Var(x))));
            fb.terminate(b3, Terminator::Return(None));
        })
        .unwrap();
        let f = p.func(p.main());
        let trace = [b(1), b(2), b(2), b(3)];
        let slicer = Slicer::new(f, &trace);
        let y = Var::from_index(1);
        let s3 = slicer.slice(
            Criterion {
                block: b(3),
                timestamp: 4,
                var: y,
            },
            Approach::PreciseInstances,
        );
        // x's reaching def is b2 (last iteration); b1's x=1 is dead here.
        assert!(s3.contains(&b(2)));
        assert!(!s3.contains(&b(1)));
    }

    #[test]
    fn governed_slice_matches_ungoverned_and_degrades_soundly() {
        let p = diamond_program();
        let f = p.func(p.main());
        let trace = [b(1), b(2), b(3), b(5), b(6)];
        let slicer = Slicer::new(f, &trace);
        let criterion = Criterion {
            block: b(6),
            timestamp: 5,
            var: Var::from_index(2),
        };
        for approach in [
            Approach::ExecutedNodes,
            Approach::ExecutedEdges,
            Approach::PreciseInstances,
        ] {
            let full = slicer.slice(criterion, approach);
            let out = slicer.slice_governed(criterion, approach, &Budget::unlimited());
            assert!(out.is_complete());
            assert_eq!(out.slice(), &full);
            // A 1-step cap yields a sound subset and a StepLimit stop.
            let budget = twpp::gov::Limits::new().max_steps(1).start();
            let capped = slicer.slice_governed(criterion, approach, &budget);
            match &capped {
                SliceOutcome::Partial { slice, reason, .. } => {
                    assert_eq!(*reason, StopReason::StepLimit);
                    assert!(slice.is_subset(&full));
                }
                SliceOutcome::Complete(s) => assert_eq!(s, &full),
            }
            assert!(capped.slice().is_subset(&full));
        }
    }

    #[test]
    fn unexecuted_criterion_yields_empty_slice() {
        let p = diamond_program();
        let f = p.func(p.main());
        let slicer = Slicer::new(f, &[b(1), b(2), b(4), b(5), b(6)]);
        let s = slicer.slice(
            Criterion {
                block: b(3),
                timestamp: 3,
                var: Var::from_index(1),
            },
            Approach::PreciseInstances,
        );
        assert!(s.is_empty());
    }
}
