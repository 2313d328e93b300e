//! Quickstart: compile a program, collect its whole program path, compact
//! it into a TWPP archive, and query one function's traces.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use twpp_repro::twpp::{compact_governed, GovOptions, TwppArchive};
use twpp_repro::twpp_lang;
use twpp_repro::twpp_tracer::{run_traced, ExecLimits};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Compile a program in the mini language.
    let program = twpp_lang::compile(
        "
        fn fib(n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        fn main() {
            let i = 1;
            while (i <= 12) {
                print(fib(i));
                i = i + 1;
            }
        }
        ",
    )?;

    // 2. Execute it with tracing: the complete control flow trace (WPP).
    let (execution, wpp) = run_traced(&program, &[], ExecLimits::default())?;
    println!("program output : {:?}...", &execution.output[..5]);
    println!("WPP events     : {}", wpp.event_count());
    println!("WPP bytes      : {}", wpp.byte_len());

    // 3. Compact: partition into per-call path traces + dynamic call
    //    graph, eliminate redundant traces, build DBB dictionaries, and
    //    timestamp (Zhang & Gupta, PLDI 2001).
    let (compacted, stats) = compact_governed(&wpp, &GovOptions::default())?;
    println!("\ncompaction stages (bytes):");
    println!("  original traces    : {}", stats.owpp_trace_bytes);
    println!(
        "  after dedup        : {} (x{:.2})",
        stats.after_dedup_bytes,
        stats.dedup_factor()
    );
    println!(
        "  after dictionaries : {} (x{:.2})",
        stats.after_dict_bytes,
        stats.dict_factor()
    );
    println!(
        "  compacted TWPP     : {} (x{:.2})",
        stats.ctwpp_trace_bytes,
        stats.twpp_factor()
    );
    println!("  overall factor     : x{:.1}", stats.overall_factor());

    // 4. Store as an archive and query a single function — without
    //    touching the rest of the trace.
    let archive = TwppArchive::from_compacted(&compacted);
    let (fib, _) = program.func_by_name("fib").expect("fib exists");
    let record = archive.read_function(fib)?;
    println!(
        "\nfib: {} calls, {} unique path traces",
        record.call_count,
        record.traces.len()
    );
    for trace in record.expanded_traces().iter().take(3) {
        println!("  path: {trace}");
    }

    // 5. The representation is lossless: reconstruct the original WPP.
    assert_eq!(compacted.reconstruct(), wpp);
    println!("\nreconstruction check: OK (pipeline is lossless)");
    Ok(())
}
