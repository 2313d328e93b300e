//! Hot-path analysis on a synthetic `gcc`-like workload: generate a WPP,
//! compact it, and inspect which functions dominate the execution and
//! which paths they actually take — the profile-guided-optimization
//! workflow the paper's representation is designed for.
//!
//! ```sh
//! cargo run --release --example hot_paths
//! ```

use twpp_repro::twpp::{compact_governed, GovOptions, TwppArchive};
use twpp_repro::twpp_workloads::{generate, Profile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = Profile::Gcc.spec().scaled(0.1);
    println!("generating {} workload...", spec.name);
    let workload = generate(&spec);
    println!(
        "WPP: {} events ({} bytes)",
        workload.wpp.event_count(),
        workload.wpp.byte_len()
    );

    let (compacted, stats) = compact_governed(&workload.wpp, &GovOptions::default())?;
    println!(
        "compacted to {} bytes (x{:.1})",
        stats.total_compacted_bytes(),
        stats.overall_factor()
    );

    // The archive orders functions most-called first: the hot functions.
    let archive = TwppArchive::from_compacted(&compacted);
    println!("\nhottest functions:");
    println!(
        "{:>10} {:>10} {:>13} {:>12}",
        "function", "calls", "unique paths", "reuse"
    );
    for func in archive.function_ids().into_iter().take(8) {
        let record = archive.read_function(func)?;
        let name = workload.program.func(func).name().to_owned();
        let reuse = record.call_count as f64 / record.traces.len().max(1) as f64;
        println!(
            "{:>10} {:>10} {:>13} {:>11.1}x",
            name,
            record.call_count,
            record.traces.len(),
            reuse
        );
    }

    // Drill into the hottest function: its dominant path is the clone /
    // specialization candidate.
    let hottest = archive.function_ids()[0];
    let record = archive.read_function(hottest)?;
    let traces = record.expanded_traces();
    println!(
        "\nhottest paths of {} (by execution frequency):",
        workload.program.func(hottest).name()
    );
    for (idx, freq) in compacted.hot_paths(hottest).into_iter().take(5) {
        println!(
            "  unique path {idx}: executed {freq} times, {} blocks",
            traces[idx as usize].len()
        );
    }

    // Figure 8's takeaway, computed live: most calls concentrate on few
    // unique paths.
    for n in [1, 5, 25] {
        println!(
            "calls to functions with <= {n} unique paths: {:.0}%",
            stats.redundancy.percent_calls_with_at_most(n)
        );
    }
    Ok(())
}
