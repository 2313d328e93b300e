//! Demand-driven, profile-limited GEN-KILL queries (§4.2).
//!
//! A query `<T, n>_d` asks: *does fact `d` hold immediately before each of
//! node `n`'s executions at timestamps `T`?* Walking backwards from
//! timestamp `t`, the answer is decided by the first `DGEN`/`DKILL` node
//! met, i.e. by the nearest GEN or KILL *position* before `t`.
//!
//! Two engines compute it:
//!
//! * the served engine ([`solve_backward`] and its governed forms)
//!   projects the dynamic CFG onto its GEN and KILL nodes — their
//!   timestamp sets are exactly the positions that can decide a query —
//!   and sweeps the queried timestamps once, in ascending order, against
//!   that projection: O(trace length) per query;
//! * the paper's propagation ([`solve_by_propagation`]) moves a compacted
//!   timestamp vector backwards through the dynamic CFG: at every step all
//!   traversal points decrement together (one [`TsSet::shift`] per entry,
//!   not per timestamp), are routed to the predecessors whose timestamp
//!   sets contain them, and are resolved where the predecessor's
//!   `DGEN`/`DKILL` answers the query. It is kept as the reference, next
//!   to the replay oracle [`solve_by_replay`].
//!
//! Solving `<T(n), n>_d` yields the *frequency* with which `d` holds — the
//! paper's hot-data-flow-fact primitive for profile-guided optimization.

use twpp::gov::{Budget, StopReason};
use twpp::TsSet;
use twpp_ir::Function;

use crate::dyncfg::{stmts_of_node, DynCfg};
use crate::facts::{effect_of_stmts, Effect, GenKillFact};

/// The resolution of a query, in the query's original timestamps.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct QueryResult {
    /// Timestamps for which the fact holds on entry to the queried node.
    pub holds: TsSet,
    /// Timestamps for which it does not.
    pub not_holds: TsSet,
}

impl QueryResult {
    /// Fraction of queried executions for which the fact holds, in
    /// `[0, 1]`. Returns 1.0 for empty queries.
    pub fn frequency(&self) -> f64 {
        let h = self.holds.len() as f64;
        let n = h + self.not_holds.len() as f64;
        if n == 0.0 {
            1.0
        } else {
            h / n
        }
    }

    /// `true` if the fact holds for every queried execution.
    pub fn always_holds(&self) -> bool {
        self.not_holds.is_empty()
    }

    /// `true` if the fact holds for no queried execution.
    pub fn never_holds(&self) -> bool {
        self.holds.is_empty()
    }
}

/// The outcome of a governed query: either every queried timestamp was
/// resolved, or the budget ran out first and the answer covers only a
/// fraction of them.
///
/// A `Partial` answer is still *sound*: every timestamp in
/// `result.holds`/`result.not_holds` was fully resolved. The unresolved
/// timestamps are simply absent from both sets.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum QueryOutcome {
    /// Every queried timestamp was resolved.
    Complete(QueryResult),
    /// The budget stopped the query before every timestamp resolved.
    Partial {
        /// The resolved portion of the answer (sound, possibly empty).
        result: QueryResult,
        /// Fraction of the queried timestamps that were resolved, in
        /// `[0, 1]`.
        coverage: f64,
        /// Budget steps taken before the stop: one for the GEN/KILL
        /// projection, then one per queried series entry resolved.
        visited: u64,
        /// Why the query stopped.
        reason: StopReason,
    },
}

impl QueryOutcome {
    /// The resolved portion of the answer, complete or not.
    pub fn result(&self) -> &QueryResult {
        match self {
            QueryOutcome::Complete(r) => r,
            QueryOutcome::Partial { result, .. } => result,
        }
    }

    /// Whether every queried timestamp was resolved.
    pub fn is_complete(&self) -> bool {
        matches!(self, QueryOutcome::Complete(_))
    }

    /// Fraction of queried timestamps resolved (1.0 when complete).
    pub fn coverage(&self) -> f64 {
        match self {
            QueryOutcome::Complete(_) => 1.0,
            QueryOutcome::Partial { coverage, .. } => *coverage,
        }
    }
}

/// Solves the query `<ts, node>` for `fact` over one dynamic CFG.
///
/// `func` supplies the statements of the static blocks each dynamic node
/// expands to. Timestamps in `ts` that are not in `node`'s timestamp set
/// are ignored.
///
/// # Examples
///
/// Querying all executions of a node computes the *frequency* of a fact:
///
/// ```
/// use twpp_dataflow::{solve_backward, AvailableLoad};
/// use twpp_dataflow::dyncfg::DynCfg;
/// use twpp_dataflow::redundancy::loads_in;
/// use twpp_ir::Operand;
/// use twpp_lang::{compile_with_options, LowerOptions};
/// use twpp_tracer::{run_traced, ExecLimits};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = compile_with_options(
///     "fn main() {
///          let a = load(7);
///          let b = load(7);  // always redundant
///          print(a + b);
///      }",
///     LowerOptions { stmt_per_block: true },
/// )?;
/// let (_, wpp) = run_traced(&program, &[], ExecLimits::default())?;
/// let func = program.func(program.main());
/// let trace = wpp.scan_function(program.main()).remove(0);
/// let dcfg = DynCfg::from_block_sequence(&trace);
/// let (second_load, addr) = loads_in(&dcfg, func)[1];
/// let fact = AvailableLoad { addr };
/// let ts = dcfg.node(second_load).ts.clone();
/// let result = solve_backward(&dcfg, func, &fact, second_load, &ts);
/// assert!(result.always_holds());
/// # Ok(())
/// # }
/// ```
pub fn solve_backward<F: GenKillFact + ?Sized>(
    dcfg: &DynCfg,
    func: &Function,
    fact: &F,
    node: usize,
    ts: &TsSet,
) -> QueryResult {
    match solve_backward_governed(dcfg, func, fact, node, ts, &Budget::unlimited()) {
        QueryOutcome::Complete(r) | QueryOutcome::Partial { result: r, .. } => r,
    }
}

/// Budget-governed variant of [`solve_backward`].
///
/// The budget is charged in budget steps: one before the GEN/KILL
/// projection is built, then one per queried series entry, in ascending
/// order, checked at the same cadence. On a stop the timestamps of the
/// entries already resolved are returned as [`QueryOutcome::Partial`]:
/// a sound subset of the complete answer whose coverage is deterministic
/// and monotone in the step cap. A budget that is already spent (an
/// expired deadline, a cancelled token) resolves nothing and reports
/// `visited == 0`.
pub fn solve_backward_governed<F: GenKillFact + ?Sized>(
    dcfg: &DynCfg,
    func: &Function,
    fact: &F,
    node: usize,
    ts: &TsSet,
    budget: &Budget,
) -> QueryOutcome {
    let effects = node_effects(dcfg, func, fact);
    solve_backward_effects_governed(dcfg, &effects, node, ts, budget)
}

/// Pre-computes each dynamic node's DGEN/DKILL summary for `fact` —
/// the per-node [`Effect`] vector the propagation engine consumes.
pub fn node_effects<F: GenKillFact + ?Sized>(
    dcfg: &DynCfg,
    func: &Function,
    fact: &F,
) -> Vec<Effect> {
    dcfg.nodes()
        .iter()
        .map(|n| effect_of_stmts(fact, stmts_of_node(func, n)))
        .collect()
}

/// Core of [`solve_backward_governed`], parameterized by a per-node
/// [`Effect`] vector instead of IR — so a caller holding only archive
/// data (a fleet server answering block-level queries, where effects
/// come from block identities rather than statements) can run the same
/// engine. `effects[i]` is node `i`'s summary; its length must equal
/// `dcfg.nodes().len()`.
///
/// The engine is a sweep of the queried timestamps against the GEN/KILL
/// projection of `dcfg`. Every position `1..=len` belongs to exactly one
/// node (decoding rejects timestamp sets that do not partition the
/// trace), so walking backwards from `t` meets the positions `t-1, t-2,
/// …` in turn and stops at the first one whose node generates or kills
/// the fact. That position is the nearest GEN or KILL position before
/// `t`: a GEN means the fact holds, a KILL — or no such position at all
/// — means it does not.
pub fn solve_backward_effects_governed(
    dcfg: &DynCfg,
    effects: &[Effect],
    node: usize,
    ts: &TsSet,
    budget: &Budget,
) -> QueryOutcome {
    assert_eq!(effects.len(), dcfg.nodes().len(), "one effect per dynamic node");
    let queried = ts.intersect(&dcfg.node(node).ts);
    if queried.is_empty() {
        return QueryOutcome::Complete(QueryResult::default());
    }
    let mut holds = Vec::new();
    let mut not_holds = Vec::new();
    let mut visited: u64 = 0;
    let stop = 'sweep: {
        if let Err(reason) = budget.charge_step() {
            break 'sweep Some(reason);
        }
        visited += 1;
        // The projection: the effect at every GEN/KILL position below the
        // last queried timestamp (later ones cannot decide anything).
        let last = queried.last().unwrap_or(0) as usize;
        let mut effect_at = vec![Effect::Transparent; last];
        for (n, &effect) in dcfg.nodes().iter().zip(effects) {
            if effect != Effect::Transparent {
                for t in n.ts.iter().take_while(|&t| (t as usize) < last) {
                    effect_at[t as usize] = effect;
                }
            }
        }
        // The sweep: `holding` is the fact's state after every position
        // below `next`.
        let mut holding = false;
        let mut next = 1;
        for entry in queried.entries() {
            if let Err(reason) = budget.charge_step() {
                break 'sweep Some(reason);
            }
            visited += 1;
            for t in entry.iter() {
                let passed = &effect_at[next..t as usize];
                if let Some(&effect) = passed.iter().rfind(|&&e| e != Effect::Transparent) {
                    holding = effect == Effect::Gen;
                }
                next = t as usize;
                if holding {
                    holds.push(t);
                } else {
                    not_holds.push(t);
                }
            }
        }
        None
    };
    let resolved = (holds.len() + not_holds.len()) as f64;
    let result = QueryResult {
        holds: TsSet::from_sorted(&holds),
        not_holds: TsSet::from_sorted(&not_holds),
    };
    match stop {
        None => QueryOutcome::Complete(result),
        Some(reason) => QueryOutcome::Partial {
            result,
            coverage: resolved / queried.len() as f64,
            visited,
            reason,
        },
    }
}

/// The paper's backward propagation (§4.2), kept as the reference for
/// the served engine: a compacted timestamp vector moves backwards
/// through the dynamic CFG one simultaneous traversal step at a time and
/// resolves where a predecessor's effect answers the query.
///
/// `effects[i]` is node `i`'s summary (see [`node_effects`]); its length
/// must equal `dcfg.nodes().len()`. Ungoverned: it always runs to
/// completion.
pub fn solve_by_propagation(
    dcfg: &DynCfg,
    effects: &[Effect],
    node: usize,
    ts: &TsSet,
) -> QueryResult {
    assert_eq!(effects.len(), dcfg.nodes().len(), "one effect per dynamic node");
    // Resolved timestamps are collected and turned into sets once at the
    // end: re-unioning growing, fragmented sets on every pop is quadratic
    // in the trace length.
    let mut holds = Vec::new();
    let mut not_holds = Vec::new();
    // Worklist of propagation states: (node, positions, depth). A position
    // `v` at depth `k` stands for original query timestamp `v + k`.
    let mut work: Vec<(usize, TsSet, u32)> = vec![(node, ts.intersect(&dcfg.node(node).ts), 0)];
    while let Some((n, positions, depth)) = work.pop() {
        let back = i64::from(depth) + 1;
        let shifted = positions.shift(-1);
        let mut routed = 0;
        for &m in dcfg.preds(n) {
            let to_m = shifted.intersect(&dcfg.node(m).ts);
            if to_m.is_empty() {
                continue;
            }
            routed += to_m.len();
            match effects[m] {
                Effect::Gen => holds.extend(to_m.shift(back).iter()),
                Effect::Kill => not_holds.extend(to_m.shift(back).iter()),
                Effect::Transparent => work.push((m, to_m, depth + 1)),
            }
        }
        // Node timestamp sets partition the trace, and the node at `v - 1`
        // is a predecessor of the node at `v`, so the routed pieces cover
        // `shifted` exactly.
        assert_eq!(routed, shifted.len(), "every position has a predecessor node");
        // Positions at timestamp 1 vanish in the shift: they are at the
        // very start of the trace, so nothing precedes them.
        if positions.len() > shifted.len() {
            debug_assert_eq!(positions.first(), Some(1));
            not_holds.push(1 + depth);
        }
    }
    holds.sort_unstable();
    not_holds.sort_unstable();
    QueryResult {
        holds: TsSet::from_sorted(&holds),
        not_holds: TsSet::from_sorted(&not_holds),
    }
}

/// Naive oracle: answers the same query by replaying the full block
/// sequence (used to validate the served engine and the propagation
/// reference in tests, and as the baseline in the ablation benchmarks).
pub fn solve_by_replay<F: GenKillFact + ?Sized>(
    dcfg: &DynCfg,
    func: &Function,
    fact: &F,
    node: usize,
    ts: &TsSet,
) -> QueryResult {
    let effects = node_effects(dcfg, func, fact);
    match solve_by_replay_effects_governed(dcfg, &effects, node, ts, &Budget::unlimited()) {
        QueryOutcome::Complete(r) | QueryOutcome::Partial { result: r, .. } => r,
    }
}

/// Budget-governed core of [`solve_by_replay`], parameterized by a
/// per-node [`Effect`] vector — the replay oracle for effect-level
/// queries, used to validate [`solve_backward_effects_governed`]
/// differentially. Charges one step per queried timestamp (each costs a
/// full prefix replay) and stops between timestamps when the budget runs
/// out.
pub fn solve_by_replay_effects_governed(
    dcfg: &DynCfg,
    effects: &[Effect],
    node: usize,
    ts: &TsSet,
    budget: &Budget,
) -> QueryOutcome {
    assert_eq!(effects.len(), dcfg.nodes().len(), "one effect per dynamic node");
    // Effect at each trace position.
    let len = dcfg.len();
    let mut effect_at = vec![Effect::Transparent; (len + 1) as usize];
    for (i, n) in dcfg.nodes().iter().enumerate() {
        let e = effects[i];
        for t in n.ts.iter() {
            effect_at[t as usize] = e;
        }
    }
    let mut result = QueryResult::default();
    let mut holds = Vec::new();
    let mut not_holds = Vec::new();
    let queried = ts.intersect(&dcfg.node(node).ts);
    let total = queried.len() as f64;
    let mut visited: u64 = 0;
    let mut stopped: Option<StopReason> = None;
    for t in queried.iter() {
        if let Err(reason) = budget.charge_step() {
            stopped = Some(reason);
            break;
        }
        visited += 1;
        let mut state = false;
        for v in 1..t {
            match effect_at[v as usize] {
                Effect::Gen => state = true,
                Effect::Kill => state = false,
                Effect::Transparent => {}
            }
        }
        if state {
            holds.push(t);
        } else {
            not_holds.push(t);
        }
    }
    result.holds = TsSet::from_sorted(&holds);
    result.not_holds = TsSet::from_sorted(&not_holds);
    match stopped {
        None => QueryOutcome::Complete(result),
        Some(reason) => {
            let coverage = if total == 0.0 {
                1.0
            } else {
                (result.holds.len() as f64 + result.not_holds.len() as f64) / total
            };
            QueryOutcome::Partial {
                result,
                coverage,
                visited,
                reason,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyncfg::DynCfg;
    use crate::facts::AvailableLoad;
    use twpp_ir::{
        single_function_program, Operand, Program, Rvalue, Stmt, Terminator,
    };

    /// A 4-block function: 1 loads addr, 2 is neutral, 3 stores elsewhere
    /// (kill), 4 loads addr again (the queried node).
    fn program() -> Program {
        single_function_program(|fb| {
            let b1 = fb.entry();
            let b2 = fb.new_block();
            let b3 = fb.new_block();
            let b4 = fb.new_block();
            let v = fb.new_var();
            fb.push(b1, Stmt::assign(v, Rvalue::Load(Operand::Const(100))));
            fb.push(b2, Stmt::Print(Operand::Var(v)));
            fb.push(
                b3,
                Stmt::Store {
                    addr: Operand::Const(200),
                    value: Operand::Const(1),
                },
            );
            fb.push(b4, Stmt::assign(v, Rvalue::Load(Operand::Const(100))));
            let c = Operand::Const(1);
            fb.terminate(
                b1,
                Terminator::Branch {
                    cond: c,
                    then_dest: b2,
                    else_dest: b3,
                },
            );
            fb.terminate(b2, Terminator::Jump(b4));
            fb.terminate(b3, Terminator::Jump(b4));
            fb.terminate(
                b4,
                Terminator::Branch {
                    cond: c,
                    then_dest: b1,
                    else_dest: b1,
                },
            );
        })
        .unwrap()
    }

    fn b(i: u32) -> twpp_ir::BlockId {
        twpp_ir::BlockId::new(i)
    }

    #[test]
    fn resolves_gen_and_kill_paths() {
        let p = program();
        let func = p.func(p.main());
        // Trace: 1.2.4 | 1.3.4 | 1.2.4 — block 4's loads at t=3,6,9.
        let seq = [1u32, 2, 4, 1, 3, 4, 1, 2, 4].map(b);
        let dcfg = DynCfg::from_block_sequence(&seq);
        let fact = AvailableLoad {
            addr: Operand::Const(100),
        };
        let n4 = dcfg.node_by_head(b(4)).unwrap();
        let result = solve_backward(&dcfg, func, &fact, n4, &dcfg.node(n4).ts);
        // t=3 and t=9 came via block 2 (transparent) from block 1 (gen);
        // t=6 came via block 3 (kill).
        assert_eq!(result.holds.to_vec(), vec![3, 9]);
        assert_eq!(result.not_holds.to_vec(), vec![6]);
        assert!((result.frequency() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn entry_positions_resolve_to_not_holds() {
        let p = program();
        let func = p.func(p.main());
        // Query block 1's first execution: nothing precedes it.
        let dcfg = DynCfg::from_block_sequence(&[b(1), b(2), b(4)]);
        let fact = AvailableLoad {
            addr: Operand::Const(100),
        };
        let n1 = dcfg.node_by_head(b(1)).unwrap();
        let result = solve_backward(&dcfg, func, &fact, n1, &dcfg.node(n1).ts);
        assert!(result.holds.is_empty());
        assert_eq!(result.not_holds.to_vec(), vec![1]);
    }

    #[test]
    fn empty_query_frequency_is_one_not_nan() {
        // The divide-by-zero convention: a query over zero executions
        // vacuously holds — frequency 1.0, never NaN.
        let empty = QueryResult::default();
        assert_eq!(empty.frequency(), 1.0);
        assert!(!empty.frequency().is_nan());
        assert!(empty.always_holds());
        assert!(empty.never_holds());
        // Querying a node with an empty timestamp vector takes the same
        // path end to end.
        let p = program();
        let func = p.func(p.main());
        let dcfg = DynCfg::from_block_sequence(&[b(1), b(2), b(4)]);
        let fact = AvailableLoad {
            addr: Operand::Const(100),
        };
        let n4 = dcfg.node_by_head(b(4)).unwrap();
        let result = solve_backward(&dcfg, func, &fact, n4, &TsSet::default());
        assert!(result.holds.is_empty());
        assert!(result.not_holds.is_empty());
        assert_eq!(result.frequency(), 1.0);
    }

    #[test]
    fn propagation_agrees_with_replay_oracle() {
        let p = program();
        let func = p.func(p.main());
        // A longer pseudo-random interleaving of the two loop paths.
        let mut seq = Vec::new();
        let mut x = 7u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            seq.push(b(1));
            seq.push(if (x >> 33).is_multiple_of(3) { b(3) } else { b(2) });
            seq.push(b(4));
        }
        let dcfg = DynCfg::from_block_sequence(&seq);
        let fact = AvailableLoad {
            addr: Operand::Const(100),
        };
        for head in [1u32, 2, 3, 4] {
            let Some(n) = dcfg.node_by_head(b(head)) else {
                continue;
            };
            let ts = &dcfg.node(n).ts;
            let fast = solve_backward(&dcfg, func, &fact, n, ts);
            let slow = solve_by_replay(&dcfg, func, &fact, n, ts);
            let effects = node_effects(&dcfg, func, &fact);
            let reference = solve_by_propagation(&dcfg, &effects, n, ts);
            assert_eq!(fast, slow, "disagreement at block {head}");
            assert_eq!(fast, reference, "propagation disagrees at block {head}");
        }
    }

    #[test]
    fn governed_complete_matches_ungoverned() {
        let p = program();
        let func = p.func(p.main());
        let seq = [1u32, 2, 4, 1, 3, 4, 1, 2, 4].map(b);
        let dcfg = DynCfg::from_block_sequence(&seq);
        let fact = AvailableLoad {
            addr: Operand::Const(100),
        };
        let n4 = dcfg.node_by_head(b(4)).unwrap();
        let plain = solve_backward(&dcfg, func, &fact, n4, &dcfg.node(n4).ts);
        let governed = solve_backward_governed(
            &dcfg,
            func,
            &fact,
            n4,
            &dcfg.node(n4).ts,
            &Budget::unlimited(),
        );
        assert!(governed.is_complete());
        assert_eq!(governed.result(), &plain);
        assert_eq!(governed.coverage(), 1.0);
    }

    #[test]
    fn step_cap_yields_partial_with_monotone_coverage() {
        let p = program();
        let func = p.func(p.main());
        let mut seq = Vec::new();
        for _ in 0..50 {
            seq.extend([b(1), b(2), b(4)]);
        }
        let dcfg = DynCfg::from_block_sequence(&seq);
        let fact = AvailableLoad {
            addr: Operand::Const(100),
        };
        let n4 = dcfg.node_by_head(b(4)).unwrap();
        let full = solve_backward(&dcfg, func, &fact, n4, &dcfg.node(n4).ts);
        let mut prev = -1.0f64;
        let mut saw_partial = false;
        for cap in [1u64, 2, 4, 8, 1_000_000] {
            let budget = twpp::gov::Limits::new().max_steps(cap).start();
            let out = solve_backward_governed(
                &dcfg,
                func,
                &fact,
                n4,
                &dcfg.node(n4).ts,
                &budget,
            );
            let cov = out.coverage();
            assert!(cov >= prev, "coverage must be monotone in the step cap");
            assert!((0.0..=1.0).contains(&cov));
            prev = cov;
            match &out {
                QueryOutcome::Complete(r) => assert_eq!(r, &full),
                QueryOutcome::Partial {
                    result,
                    visited,
                    reason,
                    ..
                } => {
                    saw_partial = true;
                    assert_eq!(*reason, StopReason::StepLimit);
                    assert!(*visited <= cap);
                    // Sound: resolved timestamps agree with the full answer.
                    assert_eq!(
                        result.holds.intersect(&full.holds).to_vec(),
                        result.holds.to_vec()
                    );
                    assert_eq!(
                        result.not_holds.intersect(&full.not_holds).to_vec(),
                        result.not_holds.to_vec()
                    );
                }
            }
        }
        assert!(saw_partial, "a 1-step cap must not complete this query");
        assert_eq!(prev, 1.0, "the generous cap must complete");
    }

    #[test]
    fn cancelled_budget_stops_replay_oracle() {
        let p = program();
        let func = p.func(p.main());
        let seq = [1u32, 2, 4, 1, 3, 4].map(b);
        let dcfg = DynCfg::from_block_sequence(&seq);
        let fact = AvailableLoad {
            addr: Operand::Const(100),
        };
        let n4 = dcfg.node_by_head(b(4)).unwrap();
        let cancel = twpp::gov::CancelToken::new();
        cancel.cancel();
        let budget = twpp::gov::Limits::new().start_with_cancel(cancel);
        let effects = node_effects(&dcfg, func, &fact);
        let out = solve_by_replay_effects_governed(&dcfg, &effects, n4, &dcfg.node(n4).ts, &budget);
        match out {
            QueryOutcome::Partial {
                reason, visited, ..
            } => {
                assert_eq!(reason, StopReason::Cancelled);
                assert_eq!(visited, 0);
            }
            QueryOutcome::Complete(_) => panic!("cancelled budget must not complete"),
        }
    }

    #[test]
    fn partial_timestamp_queries() {
        let p = program();
        let func = p.func(p.main());
        let seq = [1u32, 2, 4, 1, 3, 4].map(b);
        let dcfg = DynCfg::from_block_sequence(&seq);
        let fact = AvailableLoad {
            addr: Operand::Const(100),
        };
        let n4 = dcfg.node_by_head(b(4)).unwrap();
        // Only ask about the second execution (t=6).
        let result = solve_backward(&dcfg, func, &fact, n4, &TsSet::from_sorted(&[6]));
        assert!(result.holds.is_empty());
        assert_eq!(result.not_holds.to_vec(), vec![6]);
        // Timestamps not belonging to the node are ignored.
        let result = solve_backward(&dcfg, func, &fact, n4, &TsSet::from_sorted(&[5]));
        assert!(result.holds.is_empty() && result.not_holds.is_empty());
    }
}
