//! Integration tests of the resource-governance layer: budgets and
//! cancellation across the compaction pipeline, panic-isolated graceful
//! degradation into the archive footer, and the governed query engine's
//! partial-result guarantees.

use std::collections::HashMap;

use proptest::prelude::*;

use twpp_repro::twpp::{
    compact, compact_governed, Budget, CancelToken, Codec, CompactedTwpp, FailedFunction,
    FaultPlan, GovOptions, Limits, Obs, PipelineError, StopReason, TwppArchive,
};
use twpp_repro::twpp_dataflow::dyncfg::DynCfg;
use twpp_repro::twpp_dataflow::redundancy::loads_in;
use twpp_repro::twpp_dataflow::{
    solve_backward, solve_backward_governed, AvailableLoad, QueryOutcome,
};
use twpp_repro::twpp_ir::{FuncId, Operand, Program};
use twpp_repro::twpp_lang::{compile_with_options, programs, LowerOptions};
use twpp_repro::twpp_tracer::{run_traced, ExecLimits, RawWpp};

/// `c` encoded without names on `threads` workers, with a sentinel for
/// each `failed` function.
fn encode(c: &CompactedTwpp, threads: usize, failed: &[FailedFunction]) -> TwppArchive {
    let noop = Obs::noop();
    TwppArchive::from_compacted_codec(c, &HashMap::new(), threads, failed, &noop, Codec::Legacy)
}

/// Silences the default panic hook around `f` so deliberately injected
/// panics don't spam test output, restoring it afterwards.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

fn traced(src: &str, input: &[i64]) -> (Program, RawWpp) {
    let program = compile_with_options(src, LowerOptions { stmt_per_block: true })
        .expect("program compiles");
    let (_, wpp) = run_traced(&program, input, ExecLimits::default()).expect("program runs");
    (program, wpp)
}

const MULTI_FN: &str = "fn f(x) { if (x % 2 == 0) { print(x); } else { print(0 - x); } }
     fn g(x) { print(x * 2); }
     fn h(x) { let i = 0; while (i < x) { print(i); i = i + 1; } }
     fn main() { let i = 0; while (i < 9) { f(i); g(i); h(i % 3); i = i + 1; } }";

// ---------------------------------------------------------------------------
// Degradation: an injected panic loses exactly one function, nothing else.
// ---------------------------------------------------------------------------

#[test]
fn injected_panic_yields_degraded_but_valid_archive() {
    let (_, wpp) = traced(MULTI_FN, &[]);
    let baseline = compact(&wpp).expect("baseline compaction");
    let victim = FuncId::from_u32(1);

    for threads in [1usize, 4] {
        let options = GovOptions {
            threads: Some(threads),
            budget: Budget::unlimited(),
            fail_fast: false,
            faults: FaultPlan::panic_on(victim),
            obs: twpp::Obs::noop(),
        };
        let (compacted, stats) =
            quiet_panics(|| compact_governed(&wpp, &options)).expect("degraded run completes");

        // Exactly the victim failed, with the injected message preserved.
        assert_eq!(stats.degraded.len(), 1);
        let failed = &stats.degraded.failed[0];
        assert_eq!(failed.func, victim);
        assert!(failed.reason.contains("injected fault"), "{}", failed.reason);

        // The archive carries every surviving function, byte-for-byte
        // equal to the baseline's view of those functions.
        let archive = encode(&compacted, threads, &stats.degraded.failed);
        assert!(archive.is_degraded());
        assert_eq!(archive.failed_functions().len(), 1);
        assert_eq!(archive.failed_functions()[0].0, victim);
        for func in archive.function_ids() {
            let record = archive.read_function(func);
            if func == victim {
                assert!(record.is_err(), "degraded function must not read back");
                continue;
            }
            let record = record.expect("surviving function reads back");
            let expected = baseline.function(func).expect("baseline has the function");
            assert_eq!(record.traces, expected.traces);
            assert_eq!(record.call_count, expected.call_count);
        }

        // Recovery classifies it as intact-but-degraded: every stored
        // region verifies; only the reported function is missing.
        let (recovered, report) = TwppArchive::recover(archive.as_bytes()).expect("recover runs");
        assert!(!report.is_clean());
        assert!(report.is_degraded_only(), "{report}");
        assert_eq!(report.degraded_functions(), vec![victim]);
        assert_eq!(
            recovered.function_ids().len(),
            archive.function_ids().len()
        );
    }
}

#[test]
fn fail_fast_propagates_the_injected_panic() {
    let (_, wpp) = traced(MULTI_FN, &[]);
    let options = GovOptions {
        threads: Some(1),
        budget: Budget::unlimited(),
        fail_fast: true,
        faults: FaultPlan::panic_on(FuncId::from_u32(0)),
        obs: twpp::Obs::noop(),
    };
    let outcome = quiet_panics(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            compact_governed(&wpp, &options)
        }))
    });
    assert!(outcome.is_err(), "fail-fast must propagate the panic");
}

// ---------------------------------------------------------------------------
// Budgets: deadlines and cancellation are hard stops with no output.
// ---------------------------------------------------------------------------

#[test]
fn exhausted_budget_stops_compaction_with_no_output() {
    let (_, wpp) = traced(MULTI_FN, &[]);

    // Step budget smaller than the event count: stopped at stage 1.
    let options = GovOptions {
        threads: Some(2),
        budget: Limits::new().max_steps(1).start(),
        fail_fast: true,
        faults: FaultPlan::none(),
        obs: twpp::Obs::noop(),
    };
    match compact_governed(&wpp, &options) {
        Err(PipelineError::Budget(StopReason::StepLimit)) => {}
        other => panic!("expected StepLimit stop, got {other:?}"),
    }

    // Pre-cancelled token: stopped before any work at all.
    let cancel = CancelToken::new();
    cancel.cancel();
    let options = GovOptions {
        threads: Some(2),
        budget: Limits::new().start_with_cancel(cancel),
        fail_fast: true,
        faults: FaultPlan::none(),
        obs: twpp::Obs::noop(),
    };
    match compact_governed(&wpp, &options) {
        Err(PipelineError::Budget(StopReason::Cancelled)) => {}
        other => panic!("expected Cancelled stop, got {other:?}"),
    }

    // An already-expired deadline behaves the same.
    let options = GovOptions {
        threads: Some(2),
        budget: Limits::new().deadline_ms(0).start(),
        fail_fast: true,
        faults: FaultPlan::none(),
        obs: twpp::Obs::noop(),
    };
    std::thread::sleep(std::time::Duration::from_millis(2));
    match compact_governed(&wpp, &options) {
        Err(PipelineError::Budget(StopReason::Deadline)) => {}
        other => panic!("expected Deadline stop, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Determinism: governance is invisible when nothing goes wrong.
// ---------------------------------------------------------------------------

#[test]
fn governed_output_is_byte_identical_without_faults() {
    let (_, wpp) = traced(MULTI_FN, &[]);
    let legacy = compact(&wpp).expect("legacy compaction");
    let legacy_bytes = TwppArchive::from_compacted(&legacy).as_bytes().to_vec();

    for threads in 1..=8usize {
        for fail_fast in [true, false] {
            let options = GovOptions {
                threads: Some(threads),
                budget: Limits::new().deadline_ms(600_000).start(),
                fail_fast,
                faults: FaultPlan::none(),
                obs: twpp::Obs::noop(),
            };
            let (compacted, stats) =
                compact_governed(&wpp, &options).expect("governed compaction");
            assert!(stats.degraded.is_empty());
            let bytes = encode(&compacted, threads, &stats.degraded.failed)
                .as_bytes()
                .to_vec();
            assert_eq!(
                bytes, legacy_bytes,
                "threads={threads} fail_fast={fail_fast} diverged from legacy output"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Governed queries: Complete ≡ ungoverned; Partial coverage is monotone.
// ---------------------------------------------------------------------------

fn figure9_query_setup() -> (Program, DynCfg, usize) {
    let program = compile_with_options(
        programs::FIGURE9,
        LowerOptions { stmt_per_block: true },
    )
    .expect("figure 9 compiles");
    let (_, wpp) = run_traced(&program, &[], ExecLimits::default()).expect("figure 9 runs");
    let trace = wpp.scan_function(program.main()).remove(0);
    let dcfg = DynCfg::from_block_sequence(&trace);
    let func = program.main();
    let (node, _) = loads_in(&dcfg, program.func(func))[0];
    (program, dcfg, node)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An unlimited budget returns `Complete` with a result bit-identical
    /// to the pre-governance solver, for arbitrary timestamp subsets.
    #[test]
    fn governed_complete_is_identical_to_ungoverned(keep in prop::collection::vec(any::<bool>(), 1..40)) {
        let (program, dcfg, node) = figure9_query_setup();
        let func = program.func(program.main());
        let fact = AvailableLoad { addr: Operand::Const(100) };
        let all: Vec<u32> = dcfg.node(node).ts.iter().collect();
        let subset: Vec<u32> = all
            .iter()
            .zip(keep.iter().cycle())
            .filter_map(|(&t, &k)| k.then_some(t))
            .collect();
        let ts = twpp_repro::twpp::TsSet::from_sorted(&subset);
        let plain = solve_backward(&dcfg, func, &fact, node, &ts);
        match solve_backward_governed(&dcfg, func, &fact, node, &ts, &Budget::unlimited()) {
            QueryOutcome::Complete(governed) => prop_assert_eq!(governed, plain),
            other => prop_assert!(false, "unlimited budget did not complete: {:?}", other),
        }
    }

    /// Coverage never decreases as the step budget grows, and a large
    /// enough budget always reaches `Complete` with coverage 1.
    #[test]
    fn partial_coverage_is_monotone_in_step_budget(caps in prop::collection::vec(1u64..200, 1..8)) {
        let (program, dcfg, node) = figure9_query_setup();
        let func = program.func(program.main());
        let fact = AvailableLoad { addr: Operand::Const(100) };
        let ts = dcfg.node(node).ts.clone();
        let full = solve_backward(&dcfg, func, &fact, node, &ts);

        let mut caps = caps;
        caps.sort_unstable();
        caps.push(1_000_000);
        let mut last_coverage = -1.0f64;
        for cap in caps {
            let outcome = solve_backward_governed(
                &dcfg,
                func,
                &fact,
                node,
                &ts,
                &Limits::new().max_steps(cap).start(),
            );
            let coverage = outcome.coverage();
            prop_assert!(
                coverage >= last_coverage,
                "coverage dropped from {} to {} at cap {}",
                last_coverage,
                coverage,
                cap
            );
            last_coverage = coverage;
            // Partial answers are always sound: whatever is resolved
            // agrees with the full solve.
            let result = outcome.result();
            for t in result.holds.iter() {
                prop_assert!(full.holds.contains(t));
            }
            for t in result.not_holds.iter() {
                prop_assert!(full.not_holds.contains(t));
            }
        }
        prop_assert!((last_coverage - 1.0).abs() < 1e-12, "final cap must complete");
    }
}

#[test]
fn deadline_stops_governed_query() {
    let (program, dcfg, node) = figure9_query_setup();
    let func = program.func(program.main());
    let fact = AvailableLoad {
        addr: Operand::Const(100),
    };
    let ts = dcfg.node(node).ts.clone();
    let budget = Limits::new().deadline_ms(0).start();
    std::thread::sleep(std::time::Duration::from_millis(2));
    match solve_backward_governed(&dcfg, func, &fact, node, &ts, &budget) {
        QueryOutcome::Partial {
            reason: StopReason::Deadline,
            visited,
            ..
        } => assert_eq!(visited, 0),
        other => panic!("expected a Deadline stop, got {other:?}"),
    }
}
