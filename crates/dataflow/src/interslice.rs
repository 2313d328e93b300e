//! Interprocedural dynamic slicing — the extension the paper sketches in
//! §4.2: "our techniques can be easily extended to handle interprocedural
//! paths by analyzing path traces of multiple functions in concert and
//! propagating queries along interprocedural paths".
//!
//! The dynamic call graph gives the per-activation structure: each DCG node
//! knows its function, its (shared) unique path trace and the position of
//! its call inside the parent's trace. A slice query therefore moves in
//! three directions:
//!
//! * **within** an activation — precise-instance slicing over that
//!   activation's timestamp-annotated dynamic CFG, as in approach 3;
//! * **down** into a callee — when the value flows out of a call's return,
//!   the query continues at the callee activation's return expression;
//! * **up** into the caller — when the sliced variable is a parameter whose
//!   value entered with the call, the query continues at the call site's
//!   argument expressions.
//!
//! The result is a set of `(function, block)` pairs spanning every
//! activation the value actually flowed through in this execution.

use std::collections::{BTreeSet, HashMap, HashSet};

use twpp::gov::{Budget, StopReason};
use twpp::pipeline::CompactedTwpp;
use twpp::{DcgNodeId, TsSet};
use twpp_ir::dom::ControlDeps;
use twpp_ir::{BlockId, FuncId, Operand, Program, Rvalue, Stmt, Terminator, Var};

use crate::dyncfg::DynCfg;
use crate::reachdefs::ReachingDefs;

/// A point in an interprocedural slice.
pub type SlicePoint = (FuncId, BlockId);

/// The outcome of a governed interprocedural slice.
///
/// A partial slice is a sound under-approximation: every `(func, block)`
/// pair it contains influenced the criterion, but pairs may be missing.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum InterSliceOutcome {
    /// The worklist drained: the slice is exact.
    Complete(BTreeSet<SlicePoint>),
    /// The budget stopped the activation walk early.
    Partial {
        /// The points discovered before the stop.
        slice: BTreeSet<SlicePoint>,
        /// Worklist instances processed before the stop.
        visited: u64,
        /// Why the walk stopped.
        reason: StopReason,
    },
}

impl InterSliceOutcome {
    /// The discovered slice points, complete or not.
    pub fn slice(&self) -> &BTreeSet<SlicePoint> {
        match self {
            InterSliceOutcome::Complete(s) => s,
            InterSliceOutcome::Partial { slice, .. } => slice,
        }
    }

    /// Whether the walk ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, InterSliceOutcome::Complete(_))
    }
}

/// The slicing criterion: a variable at an execution instance *within a
/// particular activation*.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct InterCriterion {
    /// The activation (DCG node) containing the instance.
    pub activation: DcgNodeId,
    /// The 1-based timestamp within that activation's own path trace.
    pub timestamp: u32,
    /// The variable whose value is being explained.
    pub var: Var,
}

/// Interprocedural precise-instance dynamic slicer.
pub struct InterSlicer<'p> {
    program: &'p Program,
    compacted: &'p CompactedTwpp,
    /// Lazily built per (func, unique-trace): uncompacted dynamic CFG.
    dyncfgs: HashMap<(FuncId, u32), DynCfg>,
    /// Per function: static block defs/uses and control dependence.
    analyses: HashMap<FuncId, (ReachingDefs, ControlDeps)>,
    /// Parent of each DCG node.
    parents: HashMap<DcgNodeId, DcgNodeId>,
    /// Children of each DCG node grouped by call offset, in call order.
    children_at: HashMap<(DcgNodeId, u32), Vec<DcgNodeId>>,
}

impl<'p> InterSlicer<'p> {
    /// Builds a slicer over one execution's compacted TWPP.
    pub fn new(program: &'p Program, compacted: &'p CompactedTwpp) -> InterSlicer<'p> {
        let mut parents = HashMap::new();
        let mut children_at: HashMap<(DcgNodeId, u32), Vec<DcgNodeId>> = HashMap::new();
        for (id, node) in compacted.dcg.iter() {
            for &child in &node.children {
                parents.insert(child, id);
                let offset = compacted.dcg.node(child).offset_in_parent;
                children_at.entry((id, offset)).or_default().push(child);
            }
        }
        InterSlicer {
            program,
            compacted,
            dyncfgs: HashMap::new(),
            analyses: HashMap::new(),
            parents,
            children_at,
        }
    }

    /// Computes the interprocedural precise dynamic slice.
    pub fn slice(&mut self, criterion: InterCriterion) -> BTreeSet<SlicePoint> {
        match self.slice_governed(criterion, &Budget::unlimited()) {
            InterSliceOutcome::Complete(s) | InterSliceOutcome::Partial { slice: s, .. } => s,
        }
    }

    /// Budget-governed variant of [`InterSlicer::slice`]: charges one
    /// step per statement instance popped from the worklist, so a
    /// deadline or step cap interrupts the activation walk within one
    /// dependence hop and returns the points found so far.
    pub fn slice_governed(
        &mut self,
        criterion: InterCriterion,
        budget: &Budget,
    ) -> InterSliceOutcome {
        let mut slice: BTreeSet<SlicePoint> = BTreeSet::new();
        let mut visited: HashSet<(DcgNodeId, u32)> = HashSet::new();
        let mut work: Vec<(DcgNodeId, u32, Option<Var>)> = Vec::new();
        let mut popped: u64 = 0;
        // The criterion instance itself is in the slice; explaining `var`
        // starts from its reaching definition.
        work.push((criterion.activation, criterion.timestamp, Some(criterion.var)));
        while let Some((activation, t, seed_var)) = work.pop() {
            if let Err(reason) = budget.charge_step() {
                return InterSliceOutcome::Partial {
                    slice,
                    visited: popped,
                    reason,
                };
            }
            popped += 1;
            self.process_instance(activation, t, seed_var, &mut slice, &mut visited, &mut work);
        }
        InterSliceOutcome::Complete(slice)
    }

    /// Handles one statement instance `(activation, t)`. When `seed_var`
    /// is set, the instance is a *query point* for that variable (its own
    /// uses are not traced); otherwise the instance's block joins the slice
    /// and all its dependences are traced.
    #[allow(clippy::too_many_arguments)]
    fn process_instance(
        &mut self,
        activation: DcgNodeId,
        t: u32,
        seed_var: Option<Var>,
        slice: &mut BTreeSet<SlicePoint>,
        visited: &mut HashSet<(DcgNodeId, u32)>,
        work: &mut Vec<(DcgNodeId, u32, Option<Var>)>,
    ) {
        let func = self.compacted.dcg.node(activation).func;
        let block = match self.block_at(activation, t) {
            Some(b) => b,
            None => return,
        };
        slice.insert((func, block));
        if let Some(v) = seed_var {
            // Trace only the seed variable's definition.
            self.trace_var(activation, t, v, true, slice, visited, work);
            // Still honour control context of the query point itself.
            self.trace_control(activation, t, block, slice, work);
            return;
        }
        if !visited.insert((activation, t)) {
            return;
        }
        self.ensure_analyses(func);
        let uses: Vec<Var> = self.analyses[&func].0.uses_of(block).to_vec();
        for u in uses {
            self.trace_var(activation, t, u, false, slice, visited, work);
        }
        self.trace_control(activation, t, block, slice, work);
    }

    /// Finds and enqueues the defining instance of `v` before `t`; descends
    /// into callees for call-assigned values and ascends to the caller for
    /// undefined parameters. `inclusive` searches up to and including `t`
    /// (used for seed queries at the instance itself).
    #[allow(clippy::too_many_arguments)]
    fn trace_var(
        &mut self,
        activation: DcgNodeId,
        t: u32,
        v: Var,
        inclusive: bool,
        slice: &mut BTreeSet<SlicePoint>,
        visited: &mut HashSet<(DcgNodeId, u32)>,
        work: &mut Vec<(DcgNodeId, u32, Option<Var>)>,
    ) {
        let func = self.compacted.dcg.node(activation).func;
        let limit = if inclusive { t + 1 } else { t };
        match self.last_def(activation, v, limit) {
            Some((def_block, def_t)) => {
                slice.insert((func, def_block));
                // The value may flow (through block-local temporaries) out
                // of one or more calls made by the defining block: descend
                // into each feeding callee's return expression.
                for call_order in self.calls_feeding(func, def_block, v) {
                    let Some(children) = self.children_at.get(&(activation, def_t)) else {
                        continue;
                    };
                    let Some(&callee_act) = children.get(call_order) else {
                        continue;
                    };
                    let callee_func = self.compacted.dcg.node(callee_act).func;
                    if let Some((ret_block, ret_vars, last_t)) = self.return_info(callee_act) {
                        slice.insert((callee_func, ret_block));
                        for rv in ret_vars {
                            work.push((callee_act, last_t, Some(rv)));
                        }
                    }
                }
                work.push((activation, def_t, None));
                let _ = visited;
            }
            None => {
                // Undefined before t: a parameter value entering with the
                // call, or the variable's zero initialisation.
                let function = self.program.func(func);
                if v.index() < function.param_count() {
                    self.ascend_to_argument(activation, v, slice, work);
                }
            }
        }
    }

    /// Adds the controlling predicate instances of `(activation, t)`.
    fn trace_control(
        &mut self,
        activation: DcgNodeId,
        t: u32,
        block: BlockId,
        slice: &mut BTreeSet<SlicePoint>,
        work: &mut Vec<(DcgNodeId, u32, Option<Var>)>,
    ) {
        let func = self.compacted.dcg.node(activation).func;
        self.ensure_analyses(func);
        let deps: Vec<BlockId> = self.analyses[&func].1.deps_of(block).to_vec();
        let dcfg = self.dyncfg(activation);
        let mut found: Vec<(BlockId, u32)> = Vec::new();
        for c in deps {
            if let Some(idx) = dcfg.node_by_head(c) {
                if let Some(tc) = dcfg.node(idx).ts.max_lt(t) {
                    found.push((c, tc));
                }
            }
        }
        for (c, tc) in found {
            slice.insert((func, c));
            work.push((activation, tc, None));
        }
        // The activation itself exists because of its call site: include
        // the caller's call instance (interprocedural control dependence).
        if let Some(&parent) = self.parents.get(&activation) {
            let call_t = self.compacted.dcg.node(activation).offset_in_parent;
            if call_t >= 1 {
                let pf = self.compacted.dcg.node(parent).func;
                if let Some(call_block) = self.block_at(parent, call_t) {
                    if slice.insert((pf, call_block)) {
                        work.push((parent, call_t, None));
                    }
                }
            }
        }
    }

    /// Call statements (by in-block call order) whose results flow —
    /// possibly through block-local temporaries — into the final value of
    /// `v` in `block`. A backward walk over the block's statements tracks
    /// the set of relevant variables.
    fn calls_feeding(&self, func: FuncId, block: BlockId, v: Var) -> Vec<usize> {
        let function = self.program.func(func);
        let stmts = function.block(block).stmts();
        let mut relevant: HashSet<Var> = HashSet::new();
        relevant.insert(v);
        let mut found = Vec::new();
        for (idx, s) in stmts.iter().enumerate().rev() {
            if let Some(d) = s.defined_var() {
                if relevant.remove(&d) {
                    if matches!(
                        s,
                        Stmt::Assign {
                            rvalue: Rvalue::Call { .. },
                            ..
                        }
                    ) {
                        let order = stmts[..idx]
                            .iter()
                            .filter(|x| x.callee().is_some())
                            .count();
                        found.push(order);
                    }
                    for u in s.used_vars() {
                        relevant.insert(u);
                    }
                }
            }
        }
        found
    }

    /// The callee activation's final block, the vars its return reads, and
    /// its last timestamp.
    fn return_info(&mut self, activation: DcgNodeId) -> Option<(BlockId, Vec<Var>, u32)> {
        let func = self.compacted.dcg.node(activation).func;
        let trace = self.trace_of(activation);
        let last_t = trace.len() as u32;
        let last_block = *trace.last()?;
        let function = self.program.func(func);
        let vars = match function.block(last_block).terminator() {
            Terminator::Return(Some(Operand::Var(v))) => vec![*v],
            _ => Vec::new(),
        };
        Some((last_block, vars, last_t))
    }

    /// The caller's argument operand feeding parameter `v`: enqueue slicing
    /// of the argument variables at the call instance.
    fn ascend_to_argument(
        &mut self,
        activation: DcgNodeId,
        v: Var,
        slice: &mut BTreeSet<SlicePoint>,
        work: &mut Vec<(DcgNodeId, u32, Option<Var>)>,
    ) {
        let Some(&parent) = self.parents.get(&activation) else {
            return;
        };
        let node = self.compacted.dcg.node(activation);
        let callee_func = node.func;
        let call_t = node.offset_in_parent;
        let parent_func = self.compacted.dcg.node(parent).func;
        let Some(call_block) = self.block_at(parent, call_t) else {
            return;
        };
        // Find the call statement in the caller's block targeting us with
        // the right call order.
        let my_order = self
            .children_at
            .get(&(parent, call_t))
            .and_then(|cs| cs.iter().position(|&c| c == activation))
            .unwrap_or(0);
        let function = self.program.func(parent_func);
        let call_stmt = function
            .block(call_block)
            .stmts()
            .iter()
            .filter(|s| s.callee().is_some())
            .nth(my_order);
        let args: Vec<Operand> = match call_stmt {
            Some(Stmt::Call { args, .. }) => args.clone(),
            Some(Stmt::Assign {
                rvalue: Rvalue::Call { args, .. },
                ..
            }) => args.clone(),
            _ => return,
        };
        let _ = callee_func;
        slice.insert((parent_func, call_block));
        if let Some(Operand::Var(arg)) = args.get(v.index()) {
            work.push((parent, call_t, Some(*arg)));
        }
        // The call instance's own context matters too.
        work.push((parent, call_t, None));
    }

    // ----- per-activation trace helpers --------------------------------

    fn trace_key(&self, activation: DcgNodeId) -> (FuncId, u32) {
        let node = self.compacted.dcg.node(activation);
        (node.func, node.trace_idx)
    }

    fn trace_of(&mut self, activation: DcgNodeId) -> Vec<BlockId> {
        let key = self.trace_key(activation);
        self.ensure_dyncfg(key);
        // Recover the block sequence from the dyncfg via timestamps.
        let dcfg = &self.dyncfgs[&key];
        (1..=dcfg.len())
            .map(|t| {
                let idx = dcfg.node_at(t).expect("timestamps are dense");
                dcfg.node(idx).head
            })
            .collect()
    }

    fn block_at(&mut self, activation: DcgNodeId, t: u32) -> Option<BlockId> {
        let key = self.trace_key(activation);
        self.ensure_dyncfg(key);
        let dcfg = &self.dyncfgs[&key];
        dcfg.node_at(t).map(|i| dcfg.node(i).head)
    }

    fn dyncfg(&mut self, activation: DcgNodeId) -> &DynCfg {
        let key = self.trace_key(activation);
        self.ensure_dyncfg(key);
        &self.dyncfgs[&key]
    }

    fn ensure_dyncfg(&mut self, key: (FuncId, u32)) {
        if self.dyncfgs.contains_key(&key) {
            return;
        }
        let fb = self
            .compacted
            .function(key.0)
            .expect("activation function present in compacted TWPP");
        let trace = fb.expanded_traces()[key.1 as usize].clone();
        self.dyncfgs
            .insert(key, DynCfg::from_block_sequence(trace.blocks()));
    }

    fn ensure_analyses(&mut self, func: FuncId) {
        if self.analyses.contains_key(&func) {
            return;
        }
        let function = self.program.func(func);
        self.analyses.insert(
            func,
            (ReachingDefs::new(function), ControlDeps::new(function)),
        );
    }

    /// Latest definition of `v` strictly before timestamp `limit` within
    /// one activation.
    fn last_def(&mut self, activation: DcgNodeId, v: Var, limit: u32) -> Option<(BlockId, u32)> {
        let func = self.compacted.dcg.node(activation).func;
        self.ensure_analyses(func);
        let key = self.trace_key(activation);
        self.ensure_dyncfg(key);
        let dcfg = &self.dyncfgs[&key];
        let rd = &self.analyses[&func].0;
        let mut best: Option<(BlockId, u32)> = None;
        for node in dcfg.nodes() {
            if !rd.defs_of(node.head).contains(&v) {
                continue;
            }
            if let Some(ts) = node.ts.max_lt(limit) {
                if best.map(|(_, bt)| ts > bt).unwrap_or(true) {
                    best = Some((node.head, ts));
                }
            }
        }
        best
    }

    /// The timestamps of `block` within an activation (diagnostics/tests).
    pub fn timestamps_of(&mut self, activation: DcgNodeId, block: BlockId) -> TsSet {
        let key = self.trace_key(activation);
        self.ensure_dyncfg(key);
        let dcfg = &self.dyncfgs[&key];
        dcfg.node_by_head(block)
            .map(|i| dcfg.node(i).ts.clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twpp::compact;
    use twpp_lang::{compile_with_options, LowerOptions};
    use twpp_tracer::{run_traced, ExecLimits};

    fn setup(src: &str, input: &[i64]) -> (twpp_ir::Program, CompactedTwpp) {
        let program = compile_with_options(
            src,
            LowerOptions {
                stmt_per_block: true,
            },
        )
        .unwrap();
        let (_, wpp) = run_traced(&program, input, ExecLimits::default()).unwrap();
        let compacted = compact(&wpp).unwrap();
        (program, compacted)
    }

    /// Finds the activation of `main` (the DCG root).
    fn criterion_at_end(
        program: &twpp_ir::Program,
        compacted: &CompactedTwpp,
        var_of_last_print: bool,
    ) -> InterCriterion {
        let root = compacted.dcg.root();
        let main_fb = compacted.function(program.main()).unwrap();
        let trace = &main_fb.expanded_traces()[compacted.dcg.node(root).trace_idx as usize];
        let func = program.func(program.main());
        let var = if var_of_last_print {
            func.blocks()
                .flat_map(|(_, b)| b.stmts())
                .filter_map(|s| match s {
                    Stmt::Print(Operand::Var(v)) => Some(*v),
                    _ => None,
                })
                .last()
                .expect("program prints a variable")
        } else {
            Var::from_index(0)
        };
        InterCriterion {
            activation: root,
            timestamp: trace.len() as u32,
            var,
        }
    }

    #[test]
    fn slice_descends_into_the_returning_callee() {
        let src = "
            fn pick(x) {
                if (x > 0) { return 111; }
                return 222;
            }
            fn irrelevant() { print(9); }
            fn main() {
                irrelevant();
                let r = pick(5);
                print(r);
            }";
        let (program, compacted) = setup(src, &[]);
        let mut slicer = InterSlicer::new(&program, &compacted);
        let criterion = criterion_at_end(&program, &compacted, true);
        let slice = slicer.slice(criterion);

        let (pick_id, _) = program.func_by_name("pick").unwrap();
        let (irr_id, _) = program.func_by_name("irrelevant").unwrap();
        // pick's taken branch is in the slice.
        assert!(
            slice.iter().any(|&(f, _)| f == pick_id),
            "slice must descend into pick: {slice:?}"
        );
        // irrelevant's body is not.
        assert!(
            !slice.iter().any(|&(f, _)| f == irr_id),
            "irrelevant must stay out: {slice:?}"
        );
    }

    #[test]
    fn slice_ascends_to_the_argument_source() {
        let src = "
            fn id(x) { return x; }
            fn main() {
                let a = input();
                let dead = input();
                let r = id(a);
                print(r);
            }";
        let (program, compacted) = setup(src, &[5, 6]);
        let mut slicer = InterSlicer::new(&program, &compacted);
        let criterion = criterion_at_end(&program, &compacted, true);
        let slice = slicer.slice(criterion);

        // The block defining `a` (the first input) must appear; find it by
        // checking the main function blocks containing Input assignments.
        let main_func = program.func(program.main());
        let input_blocks: Vec<BlockId> = main_func
            .blocks()
            .filter(|(_, b)| {
                b.stmts()
                    .iter()
                    .any(|s| matches!(s, Stmt::Assign { rvalue: Rvalue::Input, .. }))
            })
            .map(|(id, _)| id)
            .collect();
        assert_eq!(input_blocks.len(), 2);
        let main_id = program.main();
        assert!(
            slice.contains(&(main_id, input_blocks[0])),
            "the argument's source must be in the slice: {slice:?}"
        );
        assert!(
            !slice.contains(&(main_id, input_blocks[1])),
            "the dead input must not be: {slice:?}"
        );
        // id's return is in the slice.
        let (id_fn, _) = program.func_by_name("id").unwrap();
        assert!(slice.iter().any(|&(f, _)| f == id_fn));
    }

    #[test]
    fn figure10_interprocedural_slice_tracks_the_last_iteration() {
        use twpp_lang::programs;
        let (program, compacted) = setup(programs::FIGURE10, programs::FIGURE10_INPUT);
        let mut slicer = InterSlicer::new(&program, &compacted);
        let criterion = criterion_at_end(&program, &compacted, true);
        let slice = slicer.slice(criterion);

        // The final z came via f3(f1(x)): both callees' bodies join the
        // slice; f2 executed but did not feed the final value.
        let (f1, _) = program.func_by_name("f1").unwrap();
        let (f2, _) = program.func_by_name("f2").unwrap();
        let (f3, _) = program.func_by_name("f3").unwrap();
        assert!(slice.iter().any(|&(f, _)| f == f3), "{slice:?}");
        assert!(slice.iter().any(|&(f, _)| f == f1), "{slice:?}");
        assert!(
            !slice.iter().any(|&(f, _)| f == f2),
            "f2 did not produce the sliced value: {slice:?}"
        );
    }

    #[test]
    fn governed_interslice_degrades_to_a_sound_subset() {
        let src = "
            fn id(x) { return x; }
            fn main() {
                let a = input();
                let r = id(a);
                print(r);
            }";
        let (program, compacted) = setup(src, &[5]);
        let mut slicer = InterSlicer::new(&program, &compacted);
        let criterion = criterion_at_end(&program, &compacted, true);
        let full = slicer.slice(criterion);
        // Unlimited governed run is complete and identical.
        let out = slicer.slice_governed(criterion, &twpp::Budget::unlimited());
        assert!(out.is_complete());
        assert_eq!(out.slice(), &full);
        // A 1-step cap returns a sound subset with the stop reason.
        let budget = twpp::gov::Limits::new().max_steps(1).start();
        match slicer.slice_governed(criterion, &budget) {
            InterSliceOutcome::Partial { slice, reason, .. } => {
                assert_eq!(reason, twpp::StopReason::StepLimit);
                assert!(slice.is_subset(&full));
            }
            InterSliceOutcome::Complete(s) => assert_eq!(s, full),
        }
    }

    #[test]
    fn recursion_is_sliced_through_activations() {
        let src = "
            fn fact(n) {
                if (n < 2) { return 1; }
                return n * fact(n - 1);
            }
            fn main() { print(fact(4)); }";
        let (program, compacted) = setup(src, &[]);
        let mut slicer = InterSlicer::new(&program, &compacted);
        let criterion = criterion_at_end(&program, &compacted, true);
        let slice = slicer.slice(criterion);
        let (fact_id, _) = program.func_by_name("fact").unwrap();
        // The slice spans fact's recursive structure.
        assert!(slice.iter().any(|&(f, _)| f == fact_id));
        // And terminates (no infinite activation walk).
        assert!(slice.len() < 64);
    }
}
