//! End-to-end integration: source text → CFG → traced execution → WPP →
//! compaction → archive → per-function queries, verified against ground
//! truth at every step.

use twpp_repro::twpp::{compact, compact_governed, partition, GovOptions, TwppArchive};
use twpp_repro::twpp_lang::{self, programs, LowerOptions};
use twpp_repro::twpp_tracer::{run_traced, ExecLimits, RawWpp};

fn trace_program(src: &str, input: &[i64]) -> (twpp_repro::twpp_ir::Program, RawWpp) {
    let program = twpp_lang::compile(src).expect("program compiles");
    let (_, wpp) = run_traced(&program, input, ExecLimits::default()).expect("program runs");
    (program, wpp)
}

#[test]
fn figure1_program_full_pipeline() {
    let (program, wpp) = trace_program(programs::FIGURE1, &[]);
    let (compacted, stats) = compact_governed(&wpp, &GovOptions::default()).unwrap();

    // f is called 5 times but follows only 2 unique paths (even/odd arg).
    let (f_id, _) = program.func_by_name("f").unwrap();
    let fb = compacted.function(f_id).expect("f was called");
    assert_eq!(fb.call_count, 5);
    assert_eq!(fb.traces.len(), 2);
    assert_eq!(stats.redundancy.per_func[&f_id], (5, 2));

    // Lossless through every transformation.
    assert_eq!(compacted.reconstruct(), wpp);
}

#[test]
fn archive_queries_match_full_scans_for_all_paper_programs() {
    for (src, input) in [
        (programs::FIGURE1, &[][..]),
        (programs::FIGURE9, &[][..]),
        (programs::FIGURE10, programs::FIGURE10_INPUT),
        (programs::KITCHEN_SINK, &[][..]),
    ] {
        let (program, wpp) = trace_program(src, input);
        let compacted = compact(&wpp).unwrap();
        let archive = TwppArchive::from_compacted(&compacted);
        for func in archive.function_ids() {
            let record = archive.read_function(func).unwrap();
            // Unique traces recoverable from the archive equal the unique
            // traces of a full scan.
            let mut scanned = wpp.scan_function(func);
            let count = scanned.len();
            scanned.sort();
            scanned.dedup();
            scanned.sort();
            let mut expanded: Vec<Vec<twpp_repro::twpp_ir::BlockId>> = record
                .expanded_traces()
                .into_iter()
                .map(Vec::from)
                .collect();
            expanded.sort();
            assert_eq!(expanded, scanned, "{} in {:?}", func, program.func(func).name());
            assert_eq!(record.call_count as usize, count);
        }
    }
}

#[test]
fn archive_file_round_trip_with_seek_reads() {
    let (program, wpp) = trace_program(programs::KITCHEN_SINK, &[]);
    let compacted = compact(&wpp).unwrap();
    let archive = TwppArchive::from_compacted(&compacted);

    let dir = std::env::temp_dir().join(format!("twpp-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("kitchen.twpa");
    archive.save(&path).unwrap();

    // Whole-file load equals the in-memory archive.
    let loaded = TwppArchive::load(&path).unwrap();
    assert_eq!(loaded.to_compacted().unwrap(), compacted);

    // Seek-reads equal in-memory reads for every function.
    for func in archive.function_ids() {
        let seeked = TwppArchive::read_function_from_file(&path, func).unwrap();
        assert_eq!(seeked, archive.read_function(func).unwrap());
    }
    let _ = program;
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stmt_per_block_lowering_preserves_behaviour() {
    for (src, input) in [
        (programs::FIGURE1, &[][..]),
        (programs::FIGURE9, &[][..]),
        (programs::FIGURE10, programs::FIGURE10_INPUT),
        (programs::KITCHEN_SINK, &[][..]),
    ] {
        let coarse = twpp_lang::compile(src).unwrap();
        let fine = twpp_lang::compile_with_options(
            src,
            LowerOptions {
                stmt_per_block: true,
            },
        )
        .unwrap();
        let out_coarse = twpp_repro::twpp_tracer::run(&coarse, input, ExecLimits::default())
            .unwrap()
            .output;
        let out_fine = twpp_repro::twpp_tracer::run(&fine, input, ExecLimits::default())
            .unwrap()
            .output;
        assert_eq!(out_coarse, out_fine);
    }
}

#[test]
fn sequitur_and_twpp_agree_on_extraction() {
    let (program, wpp) = trace_program(programs::FIGURE1, &[]);
    let grammar = twpp_repro::twpp_sequitur::compress_wpp(&wpp);
    assert_eq!(grammar.expand_input(), wpp.words());
    let rules = grammar.to_rules();
    for (func, _) in program.funcs() {
        assert_eq!(
            twpp_repro::twpp_sequitur::extract_function(&rules, func),
            wpp.scan_function(func)
        );
    }
}

#[test]
fn partitioning_is_lossless_on_deep_recursion() {
    let src = "
        fn down(n) {
            if (n > 0) { down(n - 1); }
        }
        fn main() { down(100); }";
    let (_, wpp) = trace_program(src, &[]);
    let part = partition(&wpp).unwrap();
    assert_eq!(part.dcg.node_count(), 102);
    assert_eq!(part.reconstruct(), wpp);
    let compacted = compact(&wpp).unwrap();
    assert_eq!(compacted.reconstruct(), wpp);
}
