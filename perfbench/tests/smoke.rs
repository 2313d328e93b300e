//! Runs every workload once untraced and once traced at tiny scale and
//! checks each result line: every metric present with its unit and a
//! finite value, the correctness gates passed, no operation failed —
//! and that `BENCHMARK.json` lists exactly the binary's workloads and
//! metrics.

use std::process::Command;

#[test]
fn every_workload_reports_every_metric_and_passes_its_gates() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run perfbench --smoke");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "smoke run failed:\n{stdout}");
    for workload in ["compact", "ingest", "query-cold", "query-hot"] {
        for trace in ["0", "1"] {
            let line = format!("smoke {workload} trace {trace}: ok");
            assert!(stdout.contains(&line), "missing `{line}` in:\n{stdout}");
        }
    }
    assert!(stdout.contains("smoke BENCHMARK.json: ok"), "{stdout}");
}

#[test]
fn bad_arguments_exit_with_usage_error() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "compact", "--trace", "2"][..],
        &["--workload"][..],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .status()
            .expect("run perfbench");
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}
