//! Interprocedural call effects: the paper's `GEN_f` / `KILL_f` summaries
//! (§4.2).
//!
//! When a queried path trace contains a call, the paper "examines the
//! traces for calls made by the node's instances" to decide whether the
//! call generates or kills the fact. This module derives such summaries
//! from a compacted TWPP: for each function, every unique trace is
//! replayed (transitively through its own calls) and the net effect on
//! the fact is computed. If all unique traces agree, the call has that
//! effect; if they disagree, the summary is conservatively
//! [`Effect::Kill`] — safe for *must-hold* queries, where an uncertain
//! call must not be treated as preserving the fact.

use std::collections::HashMap;

use twpp::gov::{Budget, StopReason};
use twpp::pipeline::CompactedTwpp;
use twpp_ir::{FuncId, Program, Stmt};

use crate::facts::{Effect, GenKillFact};

/// Per-callee effect summaries derived from a compacted TWPP.
#[derive(Clone, Debug)]
pub struct CallSummaries {
    effects: HashMap<FuncId, Effect>,
}

impl CallSummaries {
    /// Computes summaries for `fact` over every function in the compacted
    /// TWPP. Functions absent from the trace get [`Effect::Transparent`]
    /// (they were never called, so the question never arises).
    pub fn compute<F: GenKillFact + ?Sized>(
        program: &Program,
        compacted: &CompactedTwpp,
        fact: &F,
    ) -> CallSummaries {
        match Self::compute_governed(program, compacted, fact, &Budget::unlimited()) {
            Ok(s) => s,
            Err(reason) => unreachable!("unlimited budget stopped: {reason}"),
        }
    }

    /// Budget-governed variant of [`CallSummaries::compute`].
    ///
    /// Charges one step per (round, function, unique trace) replay. A
    /// half-converged fixed point would *under*-approximate kill effects
    /// — unsound for must-hold queries — so budget exhaustion here is a
    /// hard stop, never a partial summary.
    pub fn compute_governed<F: GenKillFact + ?Sized>(
        program: &Program,
        compacted: &CompactedTwpp,
        fact: &F,
        budget: &Budget,
    ) -> Result<CallSummaries, StopReason> {
        let mut summaries = CallSummaries {
            effects: HashMap::new(),
        };
        // Iterate to a fixed point: effects of callees feed into callers.
        // Seed everything as Transparent, then recompute until stable;
        // the call graph may be cyclic (recursion), so bound iterations.
        for fb in &compacted.functions {
            summaries.effects.insert(fb.func, Effect::Transparent);
        }
        let max_rounds = compacted.functions.len() + 2;
        for _ in 0..max_rounds {
            let mut changed = false;
            for fb in &compacted.functions {
                let mut agreed: Option<Effect> = None;
                let mut mixed = false;
                for trace in fb.expanded_traces() {
                    budget.charge_step()?;
                    let e = summaries.trace_effect(program, fb.func, trace.blocks(), fact);
                    match agreed {
                        None => agreed = Some(e),
                        Some(prev) if prev == e => {}
                        Some(_) => {
                            mixed = true;
                            break;
                        }
                    }
                }
                let effect = if mixed {
                    // Disagreeing traces: conservatively killing.
                    Effect::Kill
                } else {
                    agreed.unwrap_or(Effect::Transparent)
                };
                if summaries.effects.get(&fb.func) != Some(&effect) {
                    summaries.effects.insert(fb.func, effect);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Ok(summaries)
    }

    fn trace_effect<F: GenKillFact + ?Sized>(
        &self,
        program: &Program,
        func: FuncId,
        blocks: &[twpp_ir::BlockId],
        fact: &F,
    ) -> Effect {
        let function = program.func(func);
        let mut acc = Effect::Transparent;
        for &b in blocks {
            for stmt in function.block(b).stmts() {
                if let Some(callee) = stmt.callee() {
                    // Every call site is answered from the summary table
                    // rather than a nested replay — the reuse that makes
                    // the fixed point tractable.
                    match self.effect_of(callee) {
                        Effect::Transparent => {}
                        e => acc = e,
                    }
                }
                match fact.effect_of(stmt) {
                    Effect::Transparent => {}
                    e => acc = e,
                }
            }
        }
        acc
    }

    /// The summarized effect of calling `callee`.
    pub fn effect_of(&self, callee: FuncId) -> Effect {
        self.effects
            .get(&callee)
            .copied()
            .unwrap_or(Effect::Transparent)
    }
}

/// Wraps a fact with call summaries so the query engine accounts for call
/// statements inside the analyzed traces.
#[derive(Clone, Debug)]
pub struct WithCallEffects<'a, F: ?Sized> {
    fact: &'a F,
    summaries: &'a CallSummaries,
}

impl<'a, F: GenKillFact + ?Sized> WithCallEffects<'a, F> {
    /// Combines `fact` with `summaries`.
    pub fn new(fact: &'a F, summaries: &'a CallSummaries) -> WithCallEffects<'a, F> {
        WithCallEffects { fact, summaries }
    }
}

impl<F: GenKillFact + ?Sized> GenKillFact for WithCallEffects<'_, F> {
    fn effect_of(&self, stmt: &Stmt) -> Effect {
        self.fact.effect_of(stmt)
    }

    fn effect_of_call(&self, callee: FuncId) -> Effect {
        self.summaries.effect_of(callee)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyncfg::DynCfg;
    use crate::facts::AvailableLoad;
    use crate::query::solve_backward;
    use twpp::compact;
    use twpp_ir::Operand;
    use twpp_lang::{compile_with_options, LowerOptions};
    use twpp_tracer::{run_traced, ExecLimits};

    /// A callee that stores to a different address kills availability of
    /// address 100 across the call.
    const SRC: &str = "
        fn clobber() { store(200, 1); }
        fn harmless() { print(7); }
        fn refresh() { store(100, 5); }
        fn main() {
            let a = load(100);
            clobber();
            let b = load(100);
            harmless();
            let c = load(100);
            refresh();
            let d = load(100);
            print(a + b + c + d);
        }";

    fn setup() -> (
        twpp_ir::Program,
        twpp::pipeline::CompactedTwpp,
        Vec<twpp_ir::BlockId>,
    ) {
        let program = compile_with_options(
            SRC,
            LowerOptions {
                stmt_per_block: true,
            },
        )
        .unwrap();
        let (_, wpp) = run_traced(&program, &[], ExecLimits::default()).unwrap();
        let compacted = compact(&wpp).unwrap();
        let trace = wpp.scan_function(program.main()).remove(0);
        (program, compacted, trace)
    }

    #[test]
    fn summaries_classify_callees() {
        let (program, compacted, _) = setup();
        let fact = AvailableLoad {
            addr: Operand::Const(100),
        };
        let summaries = CallSummaries::compute(&program, &compacted, &fact);
        let id = |name: &str| program.func_by_name(name).unwrap().0;
        assert_eq!(summaries.effect_of(id("clobber")), Effect::Kill);
        assert_eq!(summaries.effect_of(id("harmless")), Effect::Transparent);
        assert_eq!(summaries.effect_of(id("refresh")), Effect::Gen);
    }

    #[test]
    fn queries_respect_call_effects() {
        let (program, compacted, trace) = setup();
        let main_func = program.func(program.main());
        let dcfg = DynCfg::from_block_sequence(&trace);
        let fact = AvailableLoad {
            addr: Operand::Const(100),
        };
        let summaries = CallSummaries::compute(&program, &compacted, &fact);
        let with_calls = WithCallEffects::new(&fact, &summaries);

        // Collect the four loads in execution order.
        let loads = crate::redundancy::loads_in(&dcfg, main_func);
        assert_eq!(loads.len(), 4);
        let verdicts: Vec<bool> = loads
            .iter()
            .map(|&(n, _)| {
                let ts = dcfg.node(n).ts.clone();
                solve_backward(&dcfg, main_func, &with_calls, n, &ts).always_holds()
            })
            .collect();
        // load a: nothing before it -> not redundant.
        // load b: preceded by clobber() -> killed.
        // load c: preceded by load b and harmless() -> redundant.
        // load d: preceded by refresh() storing to 100 -> redundant.
        assert_eq!(verdicts, vec![false, false, true, true]);

        // Without call effects, load b is (wrongly) classified redundant.
        let (n_b, _) = loads[1];
        let naive = solve_backward(&dcfg, main_func, &fact, n_b, &dcfg.node(n_b).ts);
        assert!(naive.always_holds());
    }

    #[test]
    fn governed_summaries_stop_hard_on_budget() {
        let (program, compacted, _) = setup();
        let fact = AvailableLoad {
            addr: Operand::Const(100),
        };
        // A tiny step cap is a hard stop: no partial summary escapes.
        let budget = twpp::gov::Limits::new().max_steps(1).start();
        let stopped = CallSummaries::compute_governed(&program, &compacted, &fact, &budget);
        assert!(matches!(stopped, Err(twpp::StopReason::StepLimit)));
        // An unlimited governed run agrees with the ungoverned wrapper.
        let governed = CallSummaries::compute_governed(
            &program,
            &compacted,
            &fact,
            &twpp::Budget::unlimited(),
        )
        .unwrap();
        let plain = CallSummaries::compute(&program, &compacted, &fact);
        for fb in &compacted.functions {
            assert_eq!(governed.effect_of(fb.func), plain.effect_of(fb.func));
        }
    }

    #[test]
    fn recursive_programs_reach_a_fixed_point() {
        let src = "
            fn rec(n) { if (n > 0) { store(200, n); rec(n - 1); } }
            fn main() { let a = load(100); rec(3); let b = load(100); print(a + b); }";
        let program = compile_with_options(
            src,
            LowerOptions {
                stmt_per_block: true,
            },
        )
        .unwrap();
        let (_, wpp) = run_traced(&program, &[], ExecLimits::default()).unwrap();
        let compacted = compact(&wpp).unwrap();
        let fact = AvailableLoad {
            addr: Operand::Const(100),
        };
        let summaries = CallSummaries::compute(&program, &compacted, &fact);
        let id = |name: &str| program.func_by_name(name).unwrap().0;
        // rec stores to 200 on its non-base path: mixed traces -> Kill.
        assert_eq!(summaries.effect_of(id("rec")), Effect::Kill);
    }
}
