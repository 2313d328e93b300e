//! The served backward GEN-KILL engine — a sweep of the queried
//! timestamps against the GEN/KILL projection of the dynamic CFG —
//! checked against the paper's propagation (`solve_by_propagation`) and
//! the replay oracle on seeded random traces, against the budget
//! contract (a partial answer is a sound prefix, monotone in the cap),
//! and on a 34 765-event loop where the propagation pops once per trace
//! position while the sweep takes one step per queried series entry.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use twpp_repro::twpp::gov::{Budget, CancelToken, Limits, StopReason};
use twpp_repro::twpp::TsSet;
use twpp_repro::twpp_dataflow::dyncfg::DynCfg;
use twpp_repro::twpp_dataflow::{
    solve_backward_effects_governed, solve_by_propagation, solve_by_replay_effects_governed,
    Effect, QueryOutcome, QueryResult,
};
use twpp_repro::twpp_ir::BlockId;

const EFFECTS: [Effect; 3] = [Effect::Gen, Effect::Kill, Effect::Transparent];

fn blocks(ids: &[u32]) -> Vec<BlockId> {
    ids.iter().map(|&i| BlockId::new(i)).collect()
}

/// A random walk over `k` blocks, each with two or three fixed
/// successors, so loops recur and timestamp sets mix series entries with
/// fragments.
fn random_sequence(rng: &mut ChaCha8Rng) -> Vec<BlockId> {
    let k = rng.gen_range(1u32..=7);
    let succs: Vec<Vec<u32>> = (0..k)
        .map(|_| {
            (0..rng.gen_range(2..=3))
                .map(|_| rng.gen_range(1..=k))
                .collect()
        })
        .collect();
    let len = rng.gen_range(1..=300);
    let mut seq = vec![1u32];
    while seq.len() < len {
        let cur = *seq.last().unwrap_or(&1) as usize;
        let next = succs[cur - 1][rng.gen_range(0..succs[cur - 1].len())];
        seq.push(next);
    }
    blocks(&seq)
}

/// Runs the served engine with no budget, which must complete.
fn served(dcfg: &DynCfg, effects: &[Effect], node: usize, ts: &TsSet) -> QueryResult {
    match solve_backward_effects_governed(dcfg, effects, node, ts, &Budget::unlimited()) {
        QueryOutcome::Complete(r) => r,
        other => panic!("an unlimited budget must complete, got {other:?}"),
    }
}

fn replayed(dcfg: &DynCfg, effects: &[Effect], node: usize, ts: &TsSet) -> QueryResult {
    solve_by_replay_effects_governed(dcfg, effects, node, ts, &Budget::unlimited())
        .result()
        .clone()
}

fn assert_subset(part: &TsSet, whole: &TsSet, what: &str) {
    assert_eq!(&part.intersect(whole), part, "{what}: not a subset");
}

#[test]
fn served_engine_matches_propagation_and_replay() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x005e_ed17);
    let mut decided_by_the_queried_node = 0;
    for case in 0..150 {
        let seq = random_sequence(&mut rng);
        let dcfg = DynCfg::from_block_sequence(&seq);
        let mut effects: Vec<Effect> = (0..dcfg.node_count())
            .map(|_| EFFECTS[rng.gen_range(0usize..3)])
            .collect();
        for node in 0..dcfg.node_count() {
            // The queried node's own effect decides its later executions
            // whenever it is its own nearest GEN/KILL predecessor.
            for own in EFFECTS {
                effects[node] = own;
                let own_ts = dcfg.node(node).ts.clone();
                let subset: Vec<u32> = own_ts.iter().filter(|_| rng.gen_bool(0.5)).collect();
                let stray: Vec<u32> = (1..=dcfg.len()).filter(|_| rng.gen_bool(0.3)).collect();
                let queries = [
                    own_ts.clone(),
                    TsSet::from_sorted(&subset),
                    // Mostly timestamps of other nodes: those are ignored.
                    TsSet::from_sorted(&stray),
                    TsSet::new(),
                ];
                for ts in &queries {
                    let fast = served(&dcfg, &effects, node, ts);
                    let reference = solve_by_propagation(&dcfg, &effects, node, ts);
                    let oracle = replayed(&dcfg, &effects, node, ts);
                    assert_eq!(
                        fast, reference,
                        "case {case} node {node} {ts}: vs propagation"
                    );
                    assert_eq!(fast, oracle, "case {case} node {node} {ts}: vs replay");
                    let queried = ts.intersect(&own_ts);
                    assert_eq!(fast.holds.len() + fast.not_holds.len(), queried.len());
                    if own != Effect::Transparent
                        && queried.iter().any(|t| own_ts.max_lt(t).is_some())
                    {
                        decided_by_the_queried_node += 1;
                    }
                }
            }
        }
    }
    assert!(
        decided_by_the_queried_node > 100,
        "{decided_by_the_queried_node}"
    );
}

#[test]
fn budget_caps_give_sound_monotone_prefixes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xb0d9e7);
    let mut partials = 0;
    for case in 0..40 {
        let seq = random_sequence(&mut rng);
        let dcfg = DynCfg::from_block_sequence(&seq);
        let effects: Vec<Effect> = (0..dcfg.node_count())
            .map(|_| EFFECTS[rng.gen_range(0usize..3)])
            .collect();
        for node in 0..dcfg.node_count() {
            let ts = dcfg.node(node).ts.clone();
            let full = served(&dcfg, &effects, node, &ts);
            let entries = ts.entries();
            let mut last_coverage = -1.0;
            for cap in 1..=entries.len() as u64 + 2 {
                let budget = Limits::new().max_steps(cap).start();
                let outcome = solve_backward_effects_governed(&dcfg, &effects, node, &ts, &budget);
                let coverage = outcome.coverage();
                assert!(
                    coverage >= last_coverage,
                    "case {case}: coverage fell at cap {cap}"
                );
                last_coverage = coverage;
                let r = outcome.result();
                assert_subset(&r.holds, &full.holds, "holds");
                assert_subset(&r.not_holds, &full.not_holds, "not_holds");
                match &outcome {
                    QueryOutcome::Complete(r) => {
                        assert_eq!(r, &full);
                        assert!(cap > entries.len() as u64, "completed within {cap} steps");
                    }
                    QueryOutcome::Partial {
                        result,
                        visited,
                        reason,
                        ..
                    } => {
                        partials += 1;
                        assert_eq!(*reason, StopReason::StepLimit);
                        assert!(*visited <= cap);
                        // One step for the projection, then one per entry:
                        // the resolved timestamps are the first `cap - 1`
                        // queried entries.
                        let prefix = TsSet::from_sorted(
                            &entries[..cap as usize - 1]
                                .iter()
                                .flat_map(|e| e.iter())
                                .collect::<Vec<_>>(),
                        );
                        let resolved: Vec<u32> = {
                            let mut v = result.holds.to_vec();
                            v.extend(result.not_holds.iter());
                            v.sort_unstable();
                            v
                        };
                        assert_eq!(
                            TsSet::from_sorted(&resolved),
                            prefix,
                            "case {case} cap {cap}"
                        );
                        if cap == 1 {
                            assert_eq!(outcome.coverage(), 0.0);
                        }
                    }
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
            assert_eq!(last_coverage, 1.0);
        }
    }
    assert!(partials > 100, "{partials}");

    // A budget spent before the query starts resolves nothing.
    let dcfg = DynCfg::from_block_sequence(&blocks(&[1, 2, 3, 1, 2, 3, 1, 2, 3]));
    let effects = [Effect::Gen, Effect::Transparent, Effect::Kill];
    let n3 = dcfg.node_by_head(BlockId::new(3)).expect("block 3 runs");
    let ts = dcfg.node(n3).ts.clone();
    let expired = Limits::new().deadline_ms(0).start();
    std::thread::sleep(std::time::Duration::from_millis(2));
    let cancel = CancelToken::new();
    cancel.cancel();
    let cancelled = Limits::new().start_with_cancel(cancel);
    for (budget, want) in [
        (expired, StopReason::Deadline),
        (cancelled, StopReason::Cancelled),
    ] {
        match solve_backward_effects_governed(&dcfg, &effects, n3, &ts, &budget) {
            QueryOutcome::Partial {
                result,
                visited,
                reason,
                coverage,
            } => {
                assert_eq!(reason, want);
                assert_eq!(visited, 0);
                assert_eq!(coverage, 0.0);
                assert_eq!(result, QueryResult::default());
            }
            other => panic!("a spent budget must not complete, got {other:?}"),
        }
    }
}

/// A 34 765-event trace shaped like `099.go`'s main loop: one entry
/// block, then a 4-block loop. With a transparent loop body every queried
/// position walks back to the entry, so the propagation pops once per
/// trace position; the sweep takes one step for the projection and one
/// per queried series entry.
#[test]
fn long_loop_takes_one_step_per_queried_entry() {
    let mut ids = vec![5u32];
    while ids.len() < 34_765 {
        ids.push(1 + (ids.len() as u32 - 1) % 4);
    }
    let dcfg = DynCfg::from_block_sequence(&blocks(&ids));
    assert_eq!(dcfg.len(), 34_765);
    let node_of = |b: u32| dcfg.node_by_head(BlockId::new(b)).expect("block runs");
    let use_node = node_of(4);
    let all = dcfg.node(use_node).ts.clone();
    let strided: Vec<u32> = all.iter().step_by(3).collect();
    let mixed: Vec<u32> = all.iter().filter(|t| t % 7 != 0).collect();
    // The def before the loop, then: nothing else (it stays current), a
    // redef in the loop body, and a def in the loop body too.
    let configs = [
        vec![(5, Effect::Gen)],
        vec![(5, Effect::Gen), (2, Effect::Kill)],
        vec![(5, Effect::Gen), (2, Effect::Kill), (3, Effect::Gen)],
    ];
    for config in &configs {
        let mut effects = vec![Effect::Transparent; dcfg.node_count()];
        for &(b, e) in config {
            effects[node_of(b)] = e;
        }
        for ts in [
            all.clone(),
            TsSet::from_sorted(&strided),
            TsSet::from_sorted(&mixed),
        ] {
            let budget = Limits::new().max_steps(u64::MAX / 2).start();
            let fast =
                match solve_backward_effects_governed(&dcfg, &effects, use_node, &ts, &budget) {
                    QueryOutcome::Complete(r) => r,
                    other => panic!("{config:?}: a generous cap must complete, got {other:?}"),
                };
            assert_eq!(
                fast,
                solve_by_propagation(&dcfg, &effects, use_node, &ts),
                "{config:?}"
            );
            assert_eq!(fast.holds.len() + fast.not_holds.len(), ts.len());
            assert!(
                budget.steps_used() <= 1 + ts.entry_count() as u64,
                "{config:?}: {} steps for {} entries",
                budget.steps_used(),
                ts.entry_count()
            );
        }
    }
}
