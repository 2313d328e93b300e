//! Integration tests for `twpp::obs` (ISSUE 4 satellite 3):
//!
//! * the noop-observer overhead guard — an instrumented pipeline run with
//!   a noop `Obs` produces byte-identical archives to the uninstrumented
//!   path for every worker-pool size from 1 to 8, and a *collecting*
//!   observer never perturbs the output either;
//! * golden-file tests pinning the exact Chrome trace-event JSON and
//!   Prometheus text exposition formats;
//! * an end-to-end run-report schema check.

use std::collections::HashMap;

use twpp::obs::{BudgetSection, Obs};
use twpp::{GovOptions, RunOutcome, RunReport, TwppArchive};
use twpp_tracer::{run_traced, ExecLimits};

/// A workload with enough functions to keep several workers busy.
const SRC: &str = "
    fn f(x) { if (x % 2 == 0) { print(x); } else { print(0 - x); } }
    fn g(x) { let j = 0; while (j < x) { print(j); j = j + 1; } }
    fn h(x) { print(x * x); }
    fn k(x) { if (x > 3) { h(x); } else { g(x); } }
    fn main() {
        let i = 0;
        while (i < 12) { f(i); g(i % 4); h(i); k(i); i = i + 1; }
    }";

fn trace() -> (twpp_ir::Program, twpp_tracer::RawWpp) {
    let program = twpp_lang::compile(SRC).expect("workload compiles");
    let (_, wpp) = run_traced(&program, &[], ExecLimits::default()).expect("workload runs");
    (program, wpp)
}

/// Compacts and encodes the archive with the given observer and thread
/// count, returning the final archive bytes.
fn archive_bytes(wpp: &twpp_tracer::RawWpp, threads: usize, obs: &Obs) -> Vec<u8> {
    let options = GovOptions {
        threads: Some(threads),
        obs: obs.clone(),
        ..GovOptions::default()
    };
    let (compacted, stats) = twpp::compact_governed(wpp, &options).expect("compaction succeeds");
    let archive = TwppArchive::from_compacted_codec(
        &compacted,
        &HashMap::new(),
        threads,
        &stats.degraded.failed,
        obs,
        twpp::Codec::Legacy,
    );
    archive.as_bytes().to_vec()
}

#[test]
fn noop_observer_is_byte_identical_for_one_to_eight_threads() {
    let (_, wpp) = trace();
    // The uninstrumented baseline: plain compact() + plain encoder.
    let baseline = {
        let compacted = twpp::compact(&wpp).expect("baseline compaction");
        let archive = TwppArchive::from_compacted(&compacted);
        archive.as_bytes().to_vec()
    };
    for threads in 1..=8 {
        let noop = archive_bytes(&wpp, threads, &Obs::noop());
        assert_eq!(
            noop, baseline,
            "noop-observed archive differs from baseline at {threads} threads"
        );
        let collecting = Obs::collecting();
        let observed = archive_bytes(&wpp, threads, &collecting);
        assert_eq!(
            observed, baseline,
            "collecting-observed archive differs from baseline at {threads} threads"
        );
        // The collecting run actually recorded something; the noop one
        // by construction records nothing (its span_count is 0).
        assert!(collecting.span_count() > 0);
        assert!(Obs::noop().span_count() == 0);
    }
}

#[test]
fn collecting_observer_records_pipeline_spans_and_metrics() {
    let (_, wpp) = trace();
    let obs = Obs::collecting();
    let _ = archive_bytes(&wpp, 4, &obs);
    let names: Vec<&str> = obs.spans().iter().map(|s| s.name).collect();
    for expected in [
        "compact",
        "partition",
        "dedup",
        "function_stage",
        "dcg_compress",
        "archive_encode",
    ] {
        assert!(names.contains(&expected), "missing span {expected}: {names:?}");
    }
    let snap = obs.snapshot();
    let events = snap
        .get("twpp_core_events_processed_total")
        .expect("events counter registered");
    match events.value {
        twpp::obs::SampleValue::Counter(v) => assert_eq!(v, wpp.event_count() as u64),
        ref other => panic!("expected counter, got {other:?}"),
    }
    assert!(snap.get("twpp_core_frames_encoded_total").is_some());
    assert!(snap.get("twpp_core_unique_traces_total").is_some());
}

#[test]
fn golden_chrome_trace_json() {
    let obs = Obs::collecting();
    // Injected spans with fixed timestamps make the export reproducible:
    // sorted by (start_ns, tid, name), microsecond units, 3 decimals.
    obs.record_span("alpha", 1, 1_500, 2_500);
    obs.record_span("beta", 2, 1_000, 250);
    let expected = concat!(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
        "{\"name\":\"beta\",\"cat\":\"twpp\",\"ph\":\"X\",",
        "\"ts\":1.000,\"dur\":0.250,\"pid\":1,\"tid\":2},",
        "{\"name\":\"alpha\",\"cat\":\"twpp\",\"ph\":\"X\",",
        "\"ts\":1.500,\"dur\":2.500,\"pid\":1,\"tid\":1}",
        "]}"
    );
    assert_eq!(obs.chrome_trace_json(), expected);
    // And it parses back as JSON.
    let doc = twpp::obs::parse_json(&obs.chrome_trace_json()).expect("valid JSON");
    assert_eq!(
        doc.get("traceEvents").and_then(|e| e.as_arr()).map(<[_]>::len),
        Some(2)
    );
}

#[test]
fn golden_prometheus_text() {
    let obs = Obs::collecting();
    obs.counter("twpp_test_events_total", "Events seen").add(42);
    obs.gauge("twpp_test_queue_depth", "Queue depth").set(-3);
    let h = obs.histogram("twpp_test_latency", "Latency", &[1, 2, 4]);
    h.observe(1);
    h.observe(3);
    h.observe(9);
    let expected = "\
# HELP twpp_test_events_total Events seen
# TYPE twpp_test_events_total counter
twpp_test_events_total 42
# HELP twpp_test_latency Latency
# TYPE twpp_test_latency histogram
twpp_test_latency_bucket{le=\"1\"} 1
twpp_test_latency_bucket{le=\"2\"} 1
twpp_test_latency_bucket{le=\"4\"} 2
twpp_test_latency_bucket{le=\"+Inf\"} 3
twpp_test_latency_sum 13
twpp_test_latency_count 3
# HELP twpp_test_queue_depth Queue depth
# TYPE twpp_test_queue_depth gauge
twpp_test_queue_depth -3
";
    assert_eq!(obs.prometheus_text(), expected);
}

#[test]
fn end_to_end_run_report_validates_against_schema() {
    let (_, wpp) = trace();
    let obs = Obs::collecting();
    let budget = twpp::Limits::new().max_steps(1_000_000).start();
    let options = GovOptions {
        threads: Some(2),
        budget: budget.clone(),
        obs: obs.clone(),
        ..GovOptions::default()
    };
    let (_, stats) = twpp::compact_governed(&wpp, &options).expect("compaction succeeds");
    let mut report = RunReport::new("compact", RunOutcome::Complete);
    report.threads = 2;
    report.pipeline = Some(stats.to_section());
    report.budget = BudgetSection {
        limited: !budget.is_unlimited(),
        steps_used: budget.steps_used(),
        bytes_used: budget.bytes_used(),
    };
    report.metrics = obs.snapshot();
    report.span_count = obs.span_count() as u64;
    let json = report.to_json();
    twpp::validate_report_json(&json).expect("report satisfies its schema");
    assert!(report.budget.limited);
    assert!(report.budget.steps_used > 0);

    // Schema violations are rejected.
    assert!(twpp::validate_report_json("{}").is_err());
    assert!(twpp::validate_report_json(&json.replace(
        "\"outcome\":\"complete\"",
        "\"outcome\":\"sideways\""
    ))
    .is_err());
}
