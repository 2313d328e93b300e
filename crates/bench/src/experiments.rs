//! The experiments behind every table and figure of the paper.
//!
//! Each `tableN`/`figureN` method prints measured values next to the
//! paper's published numbers. Absolute sizes and times differ (synthetic
//! workloads, modern hardware); the claims under reproduction are the
//! *shapes*: which transformation contributes what factor, who wins each
//! comparison and by roughly how much.

use std::time::{Duration, Instant};

use twpp::pipeline::{compact_governed, CompactedTwpp, GovOptions, PipelineStats};
use twpp::TwppArchive;
use twpp_dataflow::dyncfg::DynCfg;
use twpp_ir::cfg::FlowgraphSize;
use twpp_ir::FuncId;
use twpp_tracer::RawWpp;
use twpp_workloads::{generate, Profile, Workload};

use crate::fmt::{factor, mb, ms, Table};

/// One benchmark workload with its compacted TWPP and statistics.
pub struct BenchCase {
    /// The modeled SPECint95 benchmark.
    pub profile: Profile,
    /// The generated workload.
    pub workload: Workload,
    /// The compacted TWPP.
    pub compacted: CompactedTwpp,
    /// Per-stage compaction statistics.
    pub stats: PipelineStats,
}

/// The full suite: one case per paper benchmark.
pub struct Suite {
    /// The five cases, in the paper's table order.
    pub cases: Vec<BenchCase>,
}

impl Suite {
    /// Generates all five workloads at `scale` (1.0 = the crate defaults)
    /// and runs the compaction pipeline on each.
    pub fn build(scale: f64) -> Suite {
        let cases = Profile::all()
            .into_iter()
            .map(|profile| {
                let spec = profile.spec().scaled(scale);
                let workload = generate(&spec);
                let (compacted, stats) = compact_governed(&workload.wpp, &GovOptions::default())
                    .expect("generated WPPs are well-formed");
                BenchCase {
                    profile,
                    workload,
                    compacted,
                    stats,
                }
            })
            .collect();
        Suite { cases }
    }

    /// Table 1: raw WPP sizes (DCG, traces, total).
    pub fn table1(&self) -> String {
        // Paper values in MB: (dcg, traces, total).
        let paper = [
            ("099.go", 6.0, 170.0, 176.0),
            ("126.gcc", 34.7, 489.5, 524.2),
            ("130.li", 8.6, 78.3, 84.9),
            ("132.ijpeg", 1.7, 266.9, 268.6),
            ("134.perl", 3.4, 41.5, 44.9),
        ];
        let mut t = Table::new(&[
            "program",
            "DCG (MB)",
            "traces (MB)",
            "total (MB)",
            "paper DCG",
            "paper traces",
            "paper total",
        ]);
        for (case, p) in self.cases.iter().zip(paper) {
            let raw = &case.stats.raw;
            t.row(vec![
                case.profile.paper_name().into(),
                mb(raw.dcg_bytes),
                mb(raw.trace_bytes),
                mb(raw.total()),
                format!("{:.1}", p.1),
                format!("{:.1}", p.2),
                format!("{:.1}", p.3),
            ]);
        }
        format!("Table 1: sample input traces\n{}", t.render())
    }

    /// Table 2: WPP trace compaction per transformation.
    pub fn table2(&self) -> String {
        // Paper factors: (dedup, dict, twpp, owpp/ctwpp).
        let paper = [
            ("099.go", 6.30, 1.58, 0.97, 9.7),
            ("126.gcc", 5.66, 1.70, 1.54, 14.9),
            ("130.li", 9.21, 1.60, 4.81, 71.2),
            ("132.ijpeg", 9.50, 1.35, 3.65, 46.8),
            ("134.perl", 5.77, 4.24, 85.0, 2075.0),
        ];
        let mut t = Table::new(&[
            "program",
            "dedup (MB)",
            "dict (MB)",
            "CTWPP (MB)",
            "dedup f",
            "dict f",
            "twpp f",
            "OWPP/CTWPP",
            "paper dedup f",
            "paper dict f",
            "paper twpp f",
            "paper O/C",
        ]);
        for (case, p) in self.cases.iter().zip(paper) {
            let s = &case.stats;
            t.row(vec![
                case.profile.paper_name().into(),
                mb(s.after_dedup_bytes),
                mb(s.after_dict_bytes),
                mb(s.ctwpp_trace_bytes),
                factor(s.dedup_factor()),
                factor(s.dict_factor()),
                factor(s.twpp_factor()),
                factor(s.trace_factor()),
                factor(p.1),
                factor(p.2),
                factor(p.3),
                factor(p.4),
            ]);
        }
        format!(
            "Table 2: WPP trace compaction due to various transformations\n{}",
            t.render()
        )
    }

    /// Table 3: overall compaction factor.
    pub fn table3(&self) -> String {
        let paper = [
            ("099.go", 6.6, 17.6, 2.3, 26.5, 7.0),
            ("126.gcc", 13.8, 32.9, 4.9, 51.6, 10.0),
            ("130.li", 5.3, 1.1, 0.04, 6.4, 13.0),
            ("132.ijpeg", 1.0, 5.7, 0.6, 7.3, 37.0),
            ("134.perl", 0.7, 0.02, 0.02, 0.7, 64.0),
        ];
        let mut t = Table::new(&[
            "program",
            "cDCG (MB)",
            "traces (MB)",
            "dicts (MB)",
            "total (MB)",
            "factor",
            "paper factor",
        ]);
        for (case, p) in self.cases.iter().zip(paper) {
            let s = &case.stats;
            t.row(vec![
                case.profile.paper_name().into(),
                mb(s.dcg_compressed_bytes),
                mb(s.ctwpp_trace_bytes),
                mb(s.dict_bytes),
                mb(s.total_compacted_bytes()),
                format!("{:.1}", s.overall_factor()),
                format!("{:.0}", p.5),
            ]);
        }
        format!("Table 3: overall compaction factor\n{}", t.render())
    }

    /// Table 4: per-function extraction times, uncompacted file scan vs
    /// compacted archive seek-and-decode.
    pub fn table4(&self) -> String {
        let mut t = Table::new(&[
            "program",
            "avg U (ms)",
            "max U (ms)",
            "avg C (ms)",
            "max C (ms)",
            "speedup",
            "paper speedup",
        ]);
        // Paper: U/C in ms -> speedups of three orders of magnitude.
        let paper_speedup = ["~500", "~3800", "~170", "~1270", "~6500"];
        let dir = temp_dir("table4");
        for (case, paper) in self.cases.iter().zip(paper_speedup) {
            let raw_path = dir.join(format!("{}.wpp", case.profile.paper_name()));
            let arc_path = dir.join(format!("{}.twpa", case.profile.paper_name()));
            {
                let file = std::fs::File::create(&raw_path).expect("temp file");
                let mut writer = std::io::BufWriter::new(file);
                case.workload.wpp.write_to(&mut writer).expect("write raw");
            }
            TwppArchive::from_compacted(&case.compacted)
                .save(&arc_path)
                .expect("write archive");

            let funcs = sample_functions(&case.compacted, 12);
            let mut u_times = Vec::new();
            let mut c_times = Vec::new();
            for &f in &funcs {
                u_times.push(median_time(3, || {
                    let file = std::fs::File::open(&raw_path).expect("open raw");
                    let wpp =
                        RawWpp::read_from(std::io::BufReader::new(file)).expect("read raw");
                    std::hint::black_box(wpp.scan_function(f).len());
                }));
                c_times.push(median_time(3, || {
                    let rec = TwppArchive::read_function_from_file(&arc_path, f)
                        .expect("read function");
                    std::hint::black_box(rec.traces.len());
                }));
            }
            let (u_avg, u_max) = avg_max(&u_times);
            let (c_avg, c_max) = avg_max(&c_times);
            let speedup = u_avg.as_secs_f64() / c_avg.as_secs_f64().max(1e-9);
            t.row(vec![
                case.profile.paper_name().into(),
                ms(u_avg),
                ms(u_max),
                ms(c_avg),
                ms(c_max),
                format!("{speedup:.0}"),
                paper.into(),
            ]);
        }
        std::fs::remove_dir_all(&dir).ok();
        format!(
            "Table 4: extraction times for a single function\n{}",
            t.render()
        )
    }

    /// Table 5: Sequitur-compressed WPP vs compacted TWPP — sizes and
    /// per-function extraction times.
    pub fn table5(&self) -> String {
        let paper = [
            ("099.go", 8.4, 26.5, 1937.0, 8.0),
            ("126.gcc", 11.2, 51.6, 3321.0, 6.0),
            ("130.li", 7.8, 7.3, 179.0, 2.0),
            ("132.ijpeg", 0.7, 6.4, 2194.0, 6.0),
            ("134.perl", 0.4, 0.7, 59.0, 0.2),
        ];
        let mut t = Table::new(&[
            "program",
            "seq (MB)",
            "TWPP (MB)",
            "seq read+process (ms)",
            "TWPP (ms)",
            "time ratio",
            "paper seq/TWPP MB",
            "paper seq/TWPP ms",
        ]);
        let dir = temp_dir("table5");
        for (case, p) in self.cases.iter().zip(paper) {
            let grammar = twpp_sequitur::compress_wpp(&case.workload.wpp);
            let rules = grammar.to_rules();
            let seq_bytes = twpp_sequitur::encode(&rules);
            let arc = TwppArchive::from_compacted(&case.compacted);
            let arc_path = dir.join(format!("{}.twpa", case.profile.paper_name()));
            arc.save(&arc_path).expect("write archive");

            let funcs = sample_functions(&case.compacted, 6);
            let mut seq_times = Vec::new();
            let mut twpp_times = Vec::new();
            for &f in &funcs {
                seq_times.push(median_time(1, || {
                    let decoded = twpp_sequitur::decode(&seq_bytes).expect("read grammar");
                    let traces = twpp_sequitur::extract_function(&decoded, f);
                    std::hint::black_box(traces.len());
                }));
                twpp_times.push(median_time(3, || {
                    let rec = TwppArchive::read_function_from_file(&arc_path, f)
                        .expect("read function");
                    std::hint::black_box(rec.traces.len());
                }));
            }
            let (seq_avg, _) = avg_max(&seq_times);
            let (twpp_avg, _) = avg_max(&twpp_times);
            let ratio = seq_avg.as_secs_f64() / twpp_avg.as_secs_f64().max(1e-9);
            t.row(vec![
                case.profile.paper_name().into(),
                mb(seq_bytes.len()),
                mb(arc.byte_len()),
                ms(seq_avg),
                ms(twpp_avg),
                format!("{ratio:.0}"),
                format!("{:.1}/{:.1}", p.1, p.2),
                format!("{:.0}/{:.1}", p.3, p.4),
            ]);
        }
        std::fs::remove_dir_all(&dir).ok();
        format!(
            "Table 5: compacted trace sizes and extraction times (Sequitur baseline)\n{}",
            t.render()
        )
    }

    /// Table 6: static vs dynamic flowgraph sizes and timestamp-vector
    /// compaction.
    pub fn table6(&self) -> String {
        let paper = [
            ("099.go", 10823, 16236, 4739, 16591, 11.9, 15.7),
            ("126.gcc", 66571, 104379, 8838, 20012, 14.0, 33.1),
            ("130.li", 2701, 3536, 265, 289, 51.2, 410.3),
            ("132.ijpeg", 5718, 8105, 754, 1213, 18.1, 109.7),
            ("134.perl", 13117, 19539, 501, 674, 3.9, 616.8),
        ];
        let mut t = Table::new(&[
            "program",
            "static N",
            "static E",
            "dyn N",
            "dyn E",
            "avg |T| (raw)",
            "paper static N/E",
            "paper dyn N/E",
            "paper |T| (raw)",
        ]);
        for (case, p) in self.cases.iter().zip(paper) {
            let static_size: FlowgraphSize = case
                .workload
                .program
                .funcs()
                .map(|(_, f)| FlowgraphSize::of_function(f))
                .sum();
            let mut dyn_size = FlowgraphSize::default();
            let mut entries = 0usize;
            let mut raw_ts = 0u64;
            let mut node_count = 0usize;
            for fb in &case.compacted.functions {
                for (dict_idx, tt) in &fb.traces {
                    let dcfg = DynCfg::new(tt, &fb.dicts[*dict_idx as usize]);
                    dyn_size = dyn_size + dcfg.flowgraph_size();
                    for n in dcfg.nodes() {
                        entries += n.ts.entry_count();
                        raw_ts += n.ts.len();
                        node_count += 1;
                    }
                }
            }
            let avg_c = entries as f64 / node_count.max(1) as f64;
            let avg_r = raw_ts as f64 / node_count.max(1) as f64;
            t.row(vec![
                case.profile.paper_name().into(),
                static_size.nodes.to_string(),
                static_size.edges.to_string(),
                dyn_size.nodes.to_string(),
                dyn_size.edges.to_string(),
                format!("{avg_c:.1} ({avg_r:.1})"),
                format!("{}/{}", p.1, p.2),
                format!("{}/{}", p.3, p.4),
                format!("{:.1} ({:.1})", p.5, p.6),
            ]);
        }
        format!(
            "Table 6: sizes of static and dynamic flow graphs\n{}",
            t.render()
        )
    }

    /// Figure 8: percentage of calls attributable to functions with at
    /// most N unique path traces.
    pub fn figure8(&self) -> String {
        let ns = [1u64, 2, 5, 10, 25, 50, 100, 200, 300];
        let mut header: Vec<&str> = vec!["program"];
        let labels: Vec<String> = ns.iter().map(|n| format!("<={n}")).collect();
        header.extend(labels.iter().map(String::as_str));
        let mut t = Table::new(&header);
        for case in &self.cases {
            let mut row = vec![case.profile.paper_name().to_owned()];
            for &n in &ns {
                row.push(format!(
                    "{:.0}%",
                    case.stats.redundancy.percent_calls_with_at_most(n)
                ));
            }
            t.row(row);
        }
        format!(
            "Figure 8: trace redundancy (% of calls vs unique traces per function)\n\
             (paper: li/ijpeg/perl reach 57-80% by N=5; gcc by N=25; go by N=50)\n{}",
            t.render()
        )
    }
}

/// Parallel compaction scaling: wall time of the full pipeline at 1, 2,
/// 4, … worker threads on the largest workload, with per-stage timings
/// from [`PipelineStats::timings`]. Output bytes are identical at every
/// thread count (checked here); only the wall clock moves.
pub fn parallel_scaling(scale: f64) -> String {
    let spec = Profile::Gcc.spec().scaled(scale);
    let workload = generate(&spec);
    let wpp = &workload.wpp;

    let hw = twpp::default_threads();
    let mut counts = vec![1usize, 2, 4];
    if hw > 4 {
        counts.push(hw);
    }
    counts.dedup();

    let mut t = Table::new(&[
        "threads",
        "wall (ms)",
        "speedup",
        "partition (ms)",
        "dedup (ms)",
        "per-func (ms)",
        "DCG lzw (ms)",
    ]);
    let mut baseline: Option<(Duration, CompactedTwpp)> = None;
    let mut out = String::from("Parallel compaction scaling (126.gcc workload)\n");
    for &threads in &counts {
        let options = GovOptions {
            threads: Some(threads),
            ..GovOptions::default()
        };
        // Median-of-3 to damp scheduler noise.
        let mut best: Option<(Duration, CompactedTwpp, PipelineStats)> = None;
        let mut samples = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            let (compacted, stats) =
                compact_governed(wpp, &options).expect("generated WPPs are well-formed");
            let wall = start.elapsed();
            samples.push(wall);
            if best.as_ref().is_none_or(|(b, _, _)| wall < *b) {
                best = Some((wall, compacted, stats));
            }
        }
        samples.sort();
        let median = samples[samples.len() / 2];
        let (_, compacted, stats) = best.expect("three samples were taken");
        match &baseline {
            None => baseline = Some((median, compacted)),
            Some((_, base_compacted)) => {
                assert_eq!(
                    &compacted, base_compacted,
                    "parallel compaction diverged at {threads} threads"
                );
            }
        }
        let base = baseline.as_ref().map_or(median, |(b, _)| *b);
        let speedup = base.as_secs_f64() / median.as_secs_f64().max(1e-9);
        let tm = &stats.timings;
        let nanos_ms = |n: u64| format!("{:.2}", n as f64 / 1e6);
        t.row(vec![
            threads.to_string(),
            ms(median),
            format!("{speedup:.2}x"),
            nanos_ms(tm.partition_nanos),
            nanos_ms(tm.dedup_nanos),
            nanos_ms(tm.function_stage_nanos),
            nanos_ms(tm.dcg_compress_nanos),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("(identical output bytes at every thread count; speedup is wall-clock)\n");
    out
}

/// Figure 9: dynamic load redundancy on the paper's loop example.
pub fn figure9() -> String {
    use twpp_dataflow::redundancy::{load_redundancy, loads_in};
    let program = twpp_lang::compile_with_options(
        twpp_lang::programs::FIGURE9,
        twpp_lang::LowerOptions {
            stmt_per_block: true,
        },
    )
    .expect("figure 9 program compiles");
    let (_, wpp) = twpp_tracer::run_traced(&program, &[], twpp_tracer::ExecLimits::default())
        .expect("figure 9 program runs");
    let main_id = program.main();
    let func = program.func(main_id);
    let trace = &wpp.scan_function(main_id)[0];
    let dcfg = DynCfg::from_block_sequence(trace);
    let mut out = String::from("Figure 9: detecting dynamic load redundancy\n");
    for (node, addr) in loads_in(&dcfg, func) {
        let report = load_redundancy(&dcfg, func, node).expect("node has a load");
        out.push_str(&format!(
            "load({addr}) at dyn node {:>2} (block {:>2}): {:>3} executions, \
             {:>3} redundant, degree {:>5.1}%\n",
            node,
            dcfg.node(node).head.as_u32(),
            report.total,
            report.redundant,
            report.degree_percent()
        ));
    }
    out.push_str("(paper: the 60-execution load is 100% redundant)\n");
    out
}

/// Figures 10 & 11: the three dynamic slicing algorithms on the paper's
/// example.
pub fn figure10() -> String {
    use twpp_dataflow::slicing::{Approach, Criterion, Slicer};
    let program = twpp_lang::compile_with_options(
        twpp_lang::programs::FIGURE10,
        twpp_lang::LowerOptions {
            stmt_per_block: true,
        },
    )
    .expect("figure 10 program compiles");
    let (_, wpp) = twpp_tracer::run_traced(
        &program,
        twpp_lang::programs::FIGURE10_INPUT,
        twpp_tracer::ExecLimits::default(),
    )
    .expect("figure 10 program runs");
    let main_id = program.main();
    let func = program.func(main_id);
    let trace = &wpp.scan_function(main_id)[0];
    let slicer = Slicer::new(func, trace);

    // The criterion: variable z at the final print (the last block of the
    // trace, i.e. the breakpoint of the paper).
    let last_block = *trace.last().expect("non-empty trace");
    let t = slicer.dyn_cfg().len();
    let z = find_var_of_last_print(func);
    let criterion = Criterion {
        block: last_block,
        timestamp: t,
        var: z,
    };
    let mut out = String::from("Figures 10/11: dynamic slicing (Agrawal-Horgan)\n");
    out.push_str(&format!(
        "criterion: slice for z at block {} (timestamp {t})\n",
        last_block.as_u32()
    ));
    let mut sizes = Vec::new();
    for (name, approach) in [
        ("approach 1 (executed nodes)", Approach::ExecutedNodes),
        ("approach 2 (executed edges)", Approach::ExecutedEdges),
        ("approach 3 (precise)", Approach::PreciseInstances),
    ] {
        let slice = slicer.slice(criterion, approach);
        sizes.push(slice.len());
        let blocks: Vec<String> = slice.iter().map(|b| b.as_u32().to_string()).collect();
        out.push_str(&format!(
            "{name}: {} blocks {{{}}}\n",
            slice.len(),
            blocks.join(", ")
        ));
    }
    out.push_str(&format!(
        "slice sizes: {} >= {} >= {} (paper: each approach refines the previous)\n",
        sizes[0], sizes[1], sizes[2]
    ));
    out
}

/// Figure 12: dynamic currency determination.
pub fn figure12() -> String {
    // Reuses the scenario of the dataflow crate's currency module: partial
    // dead code elimination sinks an assignment into one branch.
    use twpp_dataflow::currency::{currency_of, AssignTags, Currency};
    use twpp_ir::{
        single_function_program, BlockId, Operand, Rvalue, Stmt, Terminator, Var,
    };
    let b = BlockId::new;
    let build = |moved: bool| {
        single_function_program(|fb| {
            let b1 = fb.entry();
            let b2 = fb.new_block();
            let b3 = fb.new_block();
            let b4 = fb.new_block();
            let x = fb.new_var();
            fb.push(b1, Stmt::assign(x, Rvalue::Use(Operand::Const(10))));
            if moved {
                fb.push(b2, Stmt::assign(x, Rvalue::Use(Operand::Const(20))));
            } else {
                fb.push(b1, Stmt::assign(x, Rvalue::Use(Operand::Const(20))));
            }
            fb.push(b2, Stmt::Print(Operand::Var(x)));
            fb.terminate(
                b1,
                Terminator::Branch {
                    cond: Operand::Var(x),
                    then_dest: b2,
                    else_dest: b4,
                },
            );
            fb.terminate(b2, Terminator::Jump(b3));
            fb.terminate(b4, Terminator::Jump(b3));
            fb.push(b3, Stmt::Print(Operand::Var(x)));
            fb.terminate(b3, Terminator::Return(None));
        })
        .expect("figure 12 program is well-formed")
    };
    let unopt = build(false);
    let opt = build(true);
    let mut unopt_tags = AssignTags::new();
    unopt_tags.insert((b(1), 0), 1);
    unopt_tags.insert((b(1), 1), 2);
    let mut opt_tags = AssignTags::new();
    opt_tags.insert((b(1), 0), 1);
    opt_tags.insert((b(2), 0), 2);
    let x = Var::from_index(0);

    let mut out = String::from(
        "Figure 12: dynamic currency determination after partial dead code elimination\n",
    );
    for (label, trace) in [
        ("path 1.2.3 (through moved assignment)", vec![b(1), b(2), b(3)]),
        ("path 1.4.3 (around moved assignment)", vec![b(1), b(4), b(3)]),
    ] {
        let verdict = currency_of(
            unopt.func(unopt.main()),
            opt.func(opt.main()),
            &unopt_tags,
            &opt_tags,
            &trace,
            3,
            x,
        );
        let text = match verdict {
            Currency::Current => "x is CURRENT".to_owned(),
            Currency::NonCurrent { actual, expected } => format!(
                "x is NON-CURRENT (holds assignment {actual:?}, user expects {expected:?})"
            ),
        };
        out.push_str(&format!("{label}: {text}\n"));
    }
    out.push_str("(paper: current on the left path, non-current on the right)\n");
    out
}

// ----- helpers ----------------------------------------------------------

fn find_var_of_last_print(func: &twpp_ir::Function) -> twpp_ir::Var {
    // The criterion variable: the operand of the program's final print
    // (the last print in block order is the breakpoint).
    let mut last = None;
    for (_, block) in func.blocks() {
        for stmt in block.stmts() {
            if let twpp_ir::Stmt::Print(twpp_ir::Operand::Var(v)) = stmt {
                last = Some(*v);
            }
        }
    }
    last.expect("figure 10 program prints a variable")
}

fn sample_functions(compacted: &CompactedTwpp, max: usize) -> Vec<FuncId> {
    // A spread of hot and cold functions: layout order is hottest-first.
    let n = compacted.functions.len();
    let mut out = Vec::new();
    let step = (n / max.max(1)).max(1);
    for i in (0..n).step_by(step) {
        out.push(compacted.functions[i].func);
        if out.len() >= max {
            break;
        }
    }
    out
}

fn median_time(runs: usize, mut f: impl FnMut()) -> Duration {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        f();
        samples.push(start.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2]
}

fn avg_max(times: &[Duration]) -> (Duration, Duration) {
    let total: Duration = times.iter().sum();
    let avg = total / times.len().max(1) as u32;
    let max = times.iter().max().copied().unwrap_or_default();
    (avg, max)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("twpp-bench-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Result of the observability-overhead experiment: a rendered table and
/// one machine-readable datapoint for the `BENCH_obs.json` trajectory.
pub struct ObsOverhead {
    /// Human-readable comparison table.
    pub table: String,
    /// One JSON datapoint: measured walls, overhead, and the full
    /// [`twpp::RunReport`] of the instrumented run.
    pub datapoint_json: String,
}

/// Measures the cost of the `twpp::obs` layer on the full compaction
/// pipeline: wall time with the no-op observer versus a collecting one
/// (median of five runs each, 126.gcc workload), asserting that both
/// produce identical compacted output. The collecting run's spans,
/// metric snapshot and pipeline statistics become the run report inside
/// the emitted datapoint.
pub fn obs_overhead(scale: f64) -> ObsOverhead {
    use twpp::obs::{JsonWriter, Obs};
    use twpp::{GovOptions, RunOutcome, RunReport};

    let spec = Profile::Gcc.spec().scaled(scale);
    let workload = generate(&spec);
    let wpp = &workload.wpp;
    const SAMPLES: usize = 5;

    let measure = |obs_for_run: &dyn Fn() -> Obs| {
        let mut walls: Vec<Duration> = Vec::new();
        let mut last = None;
        for _ in 0..SAMPLES {
            let obs = obs_for_run();
            let options = GovOptions {
                threads: Some(1),
                obs: obs.clone(),
                ..GovOptions::default()
            };
            let start = Instant::now();
            let (compacted, stats) =
                twpp::compact_governed(wpp, &options).expect("generated WPPs are well-formed");
            walls.push(start.elapsed());
            last = Some((compacted, stats, obs));
        }
        walls.sort();
        let median = walls[walls.len() / 2];
        let (compacted, stats, obs) = last.expect("samples were taken");
        (median, compacted, stats, obs)
    };

    let (noop_wall, noop_out, _, _) = measure(&Obs::noop);
    let (obs_wall, obs_out, stats, obs) = measure(&Obs::collecting);
    assert_eq!(
        noop_out, obs_out,
        "observation changed the compacted output"
    );
    let overhead = (obs_wall.as_secs_f64() / noop_wall.as_secs_f64().max(1e-9) - 1.0) * 100.0;
    let snapshot = obs.snapshot();
    let span_count = obs.span_count();

    // The daemon's hot path: the same stream through the crash-safe
    // incremental compactor in frame-sized batches, with the telemetry
    // the admin plane arms (collecting observer + per-source rate
    // estimator + flight recorder) versus none of it — the cost a
    // `serve-ingest --admin` operator pays per event.
    const DAEMON_SAMPLES: usize = 3;
    let events = wpp.events();
    let measure_daemon = |telemetry: bool| -> (Duration, Vec<u8>) {
        let mut walls: Vec<Duration> = Vec::new();
        let mut merged = Vec::new();
        for run in 0..DAEMON_SAMPLES {
            let dir = temp_dir(&format!("daemon-obs-{telemetry}-{run}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create daemon bench dir");
            let opts = twpp::IngestOptions {
                seal_bytes: 64 << 10,
                durability: twpp::Durability::None,
                threads: Some(1),
                obs: if telemetry { Obs::collecting() } else { Obs::noop() },
                ..twpp::IngestOptions::default()
            };
            let rate = twpp::RateEstimator::per_second_window();
            let flightrec = twpp::FlightRecorder::new(512);
            let start = Instant::now();
            let mut c = twpp::Compactor::create(&dir, opts).expect("create compactor");
            for batch in events.chunks(256) {
                c.feed(batch).expect("feed");
                if telemetry {
                    rate.record(batch.len() as u64);
                    flightrec.record("bench", "feed", format!("+{}", batch.len()));
                }
            }
            c.finish().expect("finish");
            walls.push(start.elapsed());
            merged = std::fs::read(dir.join("merged.twpa")).expect("merged.twpa");
            let _ = std::fs::remove_dir_all(&dir);
        }
        walls.sort();
        (walls[walls.len() / 2], merged)
    };
    let (daemon_noop_wall, daemon_noop_out) = measure_daemon(false);
    let (daemon_obs_wall, daemon_obs_out) = measure_daemon(true);
    assert_eq!(
        daemon_noop_out, daemon_obs_out,
        "daemon telemetry changed the merged archive"
    );
    let daemon_overhead = (daemon_obs_wall.as_secs_f64()
        / daemon_noop_wall.as_secs_f64().max(1e-9)
        - 1.0)
        * 100.0;

    let mut t = Table::new(&["observer", "wall (ms)", "overhead", "spans", "metrics"]);
    t.row(vec![
        "noop".into(),
        ms(noop_wall),
        "—".into(),
        "0".into(),
        "0".into(),
    ]);
    t.row(vec![
        "collecting".into(),
        ms(obs_wall),
        format!("{overhead:+.1}%"),
        span_count.to_string(),
        snapshot.samples.len().to_string(),
    ]);
    t.row(vec![
        "daemon noop".into(),
        ms(daemon_noop_wall),
        "—".into(),
        "0".into(),
        "0".into(),
    ]);
    t.row(vec![
        "daemon telemetry".into(),
        ms(daemon_obs_wall),
        format!("{daemon_overhead:+.1}%"),
        "—".into(),
        "—".into(),
    ]);
    let mut table = String::from("Observability overhead (126.gcc workload, 1 thread)\n");
    table.push_str(&t.render());
    table.push_str(
        "(identical compacted output with and without observation; daemon rows\n\
         feed the incremental compactor with the admin-plane telemetry on/off)\n",
    );

    let mut report = RunReport::new("bench", RunOutcome::Complete);
    report.threads = 1;
    report.pipeline = Some(stats.to_section());
    report.metrics = snapshot;
    report.span_count = span_count as u64;
    let report_json = report.to_json();
    debug_assert!(twpp::validate_report_json(&report_json).is_ok());

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("experiment");
    w.string("obs_overhead");
    w.key("scale");
    w.float(scale);
    w.key("samples");
    w.uint(SAMPLES as u64);
    w.key("noop_wall_ns");
    w.uint(noop_wall.as_nanos() as u64);
    w.key("collecting_wall_ns");
    w.uint(obs_wall.as_nanos() as u64);
    w.key("overhead_percent");
    w.float((overhead * 100.0).round() / 100.0);
    w.key("daemon_samples");
    w.uint(DAEMON_SAMPLES as u64);
    w.key("daemon_noop_wall_ns");
    w.uint(daemon_noop_wall.as_nanos() as u64);
    w.key("daemon_telemetry_wall_ns");
    w.uint(daemon_obs_wall.as_nanos() as u64);
    w.key("daemon_overhead_percent");
    w.float((daemon_overhead * 100.0).round() / 100.0);
    w.key("report");
    w.raw(&report_json);
    w.end_object();

    ObsOverhead {
        table,
        datapoint_json: w.finish(),
    }
}

/// Result of the codec-comparison experiment: a rendered table and one
/// machine-readable datapoint for the `BENCH_codec.json` trajectory.
pub struct CodecCompare {
    /// Human-readable comparison table.
    pub table: String,
    /// One JSON datapoint: per-profile archive bytes per event and
    /// decode nanoseconds per event for both codecs.
    pub datapoint_json: String,
}

/// Compares the legacy `l:h:s`-only archive encoding against the
/// adaptive per-series codec (raw | `l:h:s` | delta-of-delta, smallest
/// wins) across the five paper workloads: archive bytes per WPP event
/// and whole-archive decode nanoseconds per event (median of three
/// runs). Asserts both encodings decode to the same `CompactedTwpp` and
/// that adaptive never loses on bytes — the selection rule's contract.
pub fn codec_compare(scale: f64) -> CodecCompare {
    use std::collections::HashMap;
    use twpp::obs::{JsonWriter, Obs};
    use twpp::Codec;

    const SAMPLES: usize = 3;
    let noop = Obs::noop();
    let names: HashMap<FuncId, String> = HashMap::new();

    let mut t = Table::new(&[
        "program",
        "events",
        "legacy B/ev",
        "adaptive B/ev",
        "saved",
        "legacy dec ns/ev",
        "adaptive dec ns/ev",
    ]);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("experiment");
    w.string("codec_compare");
    w.key("scale");
    w.float(scale);
    w.key("samples");
    w.uint(SAMPLES as u64);
    w.key("profiles");
    w.begin_array();

    for profile in Profile::all() {
        let spec = profile.spec().scaled(scale);
        let workload = generate(&spec);
        let events = workload.wpp.events().len() as u64;
        let (compacted, _) = compact_governed(&workload.wpp, &GovOptions::default())
            .expect("generated WPPs are well-formed");

        // (bytes, median decode wall) per codec, same decode verified.
        let mut measured: Vec<(usize, Duration)> = Vec::new();
        for codec in [Codec::Legacy, Codec::Adaptive] {
            let archive =
                TwppArchive::from_compacted_codec(&compacted, &names, 1, &[], &noop, codec);
            let mut walls: Vec<Duration> = Vec::new();
            for _ in 0..SAMPLES {
                let bytes = archive.as_bytes().to_vec();
                let start = Instant::now();
                let decoded = TwppArchive::from_bytes(bytes)
                    .expect("fresh archive parses")
                    .to_compacted()
                    .expect("fresh archive decodes");
                walls.push(start.elapsed());
                assert_eq!(
                    decoded, compacted,
                    "{codec:?} archive decoded to a different CompactedTwpp"
                );
            }
            walls.sort();
            measured.push((archive.byte_len(), walls[walls.len() / 2]));
        }
        let (legacy_bytes, legacy_wall) = measured[0];
        let (adaptive_bytes, adaptive_wall) = measured[1];
        assert!(
            adaptive_bytes <= legacy_bytes,
            "{}: adaptive archive larger than legacy ({adaptive_bytes} vs {legacy_bytes})",
            profile.paper_name()
        );

        let ev = (events as f64).max(1.0);
        let legacy_bpe = legacy_bytes as f64 / ev;
        let adaptive_bpe = adaptive_bytes as f64 / ev;
        let legacy_npe = legacy_wall.as_nanos() as f64 / ev;
        let adaptive_npe = adaptive_wall.as_nanos() as f64 / ev;
        let saved = (1.0 - adaptive_bytes as f64 / (legacy_bytes as f64).max(1.0)) * 100.0;
        t.row(vec![
            profile.paper_name().into(),
            events.to_string(),
            format!("{legacy_bpe:.2}"),
            format!("{adaptive_bpe:.2}"),
            format!("{saved:.1}%"),
            format!("{legacy_npe:.0}"),
            format!("{adaptive_npe:.0}"),
        ]);

        w.begin_object();
        w.key("program");
        w.string(profile.paper_name());
        w.key("events");
        w.uint(events);
        w.key("legacy_bytes");
        w.uint(legacy_bytes as u64);
        w.key("adaptive_bytes");
        w.uint(adaptive_bytes as u64);
        w.key("legacy_bytes_per_event");
        w.float((legacy_bpe * 1000.0).round() / 1000.0);
        w.key("adaptive_bytes_per_event");
        w.float((adaptive_bpe * 1000.0).round() / 1000.0);
        w.key("legacy_decode_ns_per_event");
        w.float((legacy_npe * 10.0).round() / 10.0);
        w.key("adaptive_decode_ns_per_event");
        w.float((adaptive_npe * 10.0).round() / 10.0);
        w.end_object();
    }
    w.end_array();
    w.end_object();

    let mut table = String::from(
        "Timestamp-set codec comparison (archive bytes and decode cost per WPP event)\n",
    );
    table.push_str(&t.render());
    table.push_str("(both codecs decode to identical compacted output; adaptive never larger)\n");

    CodecCompare {
        table,
        datapoint_json: w.finish(),
    }
}

/// Result of the serve-fleet experiment: a rendered table and one
/// machine-readable datapoint for the `BENCH_serve.json` trajectory.
pub struct ServeBench {
    /// Human-readable latency/hit-rate table.
    pub table: String,
    /// One JSON datapoint: p50/p99 answer latency (cold and hot) plus
    /// frame- and summary-cache hit rates over the run.
    pub datapoint_json: String,
}

/// Benchmarks the query server's answer path over a seeded archive
/// fleet: one archive per paper profile, served in-process (the same
/// `Registry::handle_request` the socket daemon runs, minus the socket),
/// hammered with every function's `Query` twice — a cold pass that
/// decodes frames and a hot pass answered from the caches. Reports
/// client-observed p50/p99 per pass and the cache hit rates.
pub fn serve_bench(scale: f64) -> ServeBench {
    use std::collections::HashMap;
    use twpp::net::{BudgetSpec, Frame, QueryReq};
    use twpp::obs::{JsonWriter, Obs};

    let noop = Obs::noop();
    let dir = std::env::temp_dir().join(format!("twpp-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench fleet dir");

    for profile in Profile::all() {
        let spec = profile.spec().scaled(scale);
        let workload = generate(&spec);
        let compacted = twpp::compact(&workload.wpp).expect("generated WPPs are well-formed");
        let names: HashMap<FuncId, String> = workload
            .program
            .funcs()
            .map(|(id, f)| (id, f.name().to_owned()))
            .collect();
        let archive = TwppArchive::from_compacted_codec(
            &compacted,
            &names,
            1,
            &[],
            &noop,
            twpp::Codec::default(),
        );
        archive
            .save_with(
                &dir.join(format!("{}.twpa", workload.name)),
                twpp::Durability::None,
            )
            .expect("write bench archive");
    }

    let server = twpp_server::InProcServer::new(
        &dir,
        twpp_server::ServeOptions { obs: Obs::collecting(), ..Default::default() },
    )
    .expect("open bench fleet");
    let mut targets: Vec<(String, u32)> = Vec::new();
    for tenant in server.fleet().list() {
        for func in tenant.archive.function_ids() {
            targets.push((tenant.name.clone(), func.as_u32()));
        }
    }
    assert!(!targets.is_empty(), "bench fleet has no functions");

    let run_pass = || -> Vec<u64> {
        let mut latencies = Vec::with_capacity(targets.len());
        for (archive, func) in &targets {
            let frame = Frame::Query {
                req: QueryReq { archive: archive.clone(), func: *func },
                budget: BudgetSpec { deadline_ms: 0, max_steps: 0 },
            };
            let start = Instant::now();
            let reply = server.handle(&frame);
            latencies.push(start.elapsed().as_nanos() as u64);
            assert!(
                matches!(reply, Frame::Answer(_)),
                "bench query refused: {reply:?}"
            );
        }
        latencies.sort_unstable();
        latencies
    };
    // Three passes isolate the two cache layers: cold (everything
    // misses), warm (summaries dropped, so answers re-solve over *hot
    // frames*), hot (summary hits, no solving at all).
    let cold = run_pass();
    server.fleet().clear_summaries();
    let warm = run_pass();
    let hot = run_pass();
    let _ = std::fs::remove_dir_all(&dir);

    let pct = |l: &[u64], p: f64| l[((l.len() as f64 - 1.0) * p).round() as usize];
    let frames = server.fleet().frame_cache().stats();
    let summaries = server.fleet().summary_stats();
    let rate = |hits: u64, misses: u64| {
        let total = hits + misses;
        if total == 0 { 0.0 } else { hits as f64 / total as f64 }
    };
    let frame_rate = rate(frames.hits, frames.misses);
    let summary_rate = rate(summaries.hits, summaries.misses);

    let mut t = Table::new(&["pass", "requests", "p50 us", "p99 us"]);
    for (name, l) in [("cold", &cold), ("warm", &warm), ("hot", &hot)] {
        t.row(vec![
            name.into(),
            l.len().to_string(),
            format!("{:.1}", pct(l, 0.50) as f64 / 1e3),
            format!("{:.1}", pct(l, 0.99) as f64 / 1e3),
        ]);
    }
    let mut table = String::from("Serve-fleet answer latency (in-process, per Query request)\n");
    table.push_str(&t.render());
    table.push_str(&format!(
        "(cache hit rates over all passes: frame {:.1}%, summary {:.1}%)\n",
        frame_rate * 100.0,
        summary_rate * 100.0
    ));

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("experiment");
    w.string("serve_bench");
    w.key("scale");
    w.float(scale);
    w.key("requests_per_pass");
    w.uint(cold.len() as u64);
    w.key("cold_p50_nanos");
    w.uint(pct(&cold, 0.50));
    w.key("cold_p99_nanos");
    w.uint(pct(&cold, 0.99));
    w.key("warm_p50_nanos");
    w.uint(pct(&warm, 0.50));
    w.key("warm_p99_nanos");
    w.uint(pct(&warm, 0.99));
    w.key("hot_p50_nanos");
    w.uint(pct(&hot, 0.50));
    w.key("hot_p99_nanos");
    w.uint(pct(&hot, 0.99));
    w.key("frame_cache_hit_rate");
    w.float((frame_rate * 10_000.0).round() / 10_000.0);
    w.key("summary_cache_hit_rate");
    w.float((summary_rate * 10_000.0).round() / 10_000.0);
    w.end_object();

    ServeBench {
        table,
        datapoint_json: w.finish(),
    }
}

/// Appends `datapoint_json` to the JSON-array trajectory at `path`
/// (creating `[datapoint]` if the file does not exist or fails to
/// parse) and returns the serialized array written back.
pub fn append_bench_datapoint(path: &std::path::Path, datapoint_json: &str) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).ok();
    let mut points: Vec<String> = Vec::new();
    if let Some(text) = existing {
        if let Ok(doc) = twpp::obs::parse_json(&text) {
            if let Some(arr) = doc.as_arr() {
                points = (0..arr.len())
                    .filter_map(|i| extract_array_element(&text, i))
                    .collect();
            }
        }
    }
    points.push(datapoint_json.to_owned());
    let mut out = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str("  ");
        out.push_str(p);
        if i + 1 < points.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

/// Re-serializes element `index` of a top-level JSON array by slicing
/// the source text between matching brackets (whitespace-trimmed). The
/// datapoints were emitted by our own compact writer, so a structural
/// scan is sufficient and preserves them byte-for-byte.
fn extract_array_element(text: &str, index: usize) -> Option<String> {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    let mut element = 0usize;
    let mut start = None;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => {
                if depth == 1 && start.is_none() && element == index {
                    start = Some(i);
                }
                depth += 1;
            }
            b'}' | b']' => {
                depth = depth.saturating_sub(1);
                if depth == 1 {
                    if let Some(s) = start {
                        return Some(text[s..=i].to_owned());
                    }
                    element += 1;
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_tables_render_all_benchmarks() {
        // A tiny-scale build exercises the whole harness quickly.
        let suite = Suite::build(0.002);
        assert_eq!(suite.cases.len(), 5);
        for table in [
            suite.table1(),
            suite.table2(),
            suite.table3(),
            suite.table6(),
            suite.figure8(),
        ] {
            for name in ["099.go", "126.gcc", "130.li", "132.ijpeg", "134.perl"] {
                assert!(table.contains(name), "{name} missing from:\n{table}");
            }
        }
    }

    #[test]
    fn parallel_scaling_renders_and_checks_determinism() {
        let report = parallel_scaling(0.002);
        assert!(report.contains("threads"), "{report}");
        assert!(report.contains("speedup"), "{report}");
        // Rows for at least the 1/2/4 thread counts.
        for count in ["1", "2", "4"] {
            assert!(report.contains(count), "{count} missing from:\n{report}");
        }
    }

    #[test]
    fn obs_overhead_renders_and_datapoint_validates() {
        let o = obs_overhead(0.002);
        assert!(o.table.contains("collecting"), "{}", o.table);
        assert!(o.table.contains("identical compacted output"), "{}", o.table);
        // The datapoint parses and embeds a schema-valid run report.
        let doc = twpp::obs::parse_json(&o.datapoint_json).expect("datapoint is JSON");
        assert_eq!(
            doc.get("experiment").and_then(|e| e.as_str()),
            Some("obs_overhead")
        );
        assert!(doc.get("report").is_some());
        // Round-trip through the trajectory file: appending twice yields
        // a two-element array.
        let dir = temp_dir("obs-datapoint");
        let path = dir.join("BENCH_obs.json");
        append_bench_datapoint(&path, &o.datapoint_json).unwrap();
        append_bench_datapoint(&path, &o.datapoint_json).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let arr = twpp::obs::parse_json(&text).unwrap();
        assert_eq!(arr.as_arr().map(<[_]>::len), Some(2), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn codec_compare_renders_and_datapoint_validates() {
        let o = codec_compare(0.002);
        assert!(o.table.contains("adaptive never larger"), "{}", o.table);
        for name in ["099.go", "126.gcc", "130.li", "132.ijpeg", "134.perl"] {
            assert!(o.table.contains(name), "{name} missing from:\n{}", o.table);
        }
        let doc = twpp::obs::parse_json(&o.datapoint_json).expect("datapoint is JSON");
        assert_eq!(
            doc.get("experiment").and_then(|e| e.as_str()),
            Some("codec_compare")
        );
        let profiles = doc.get("profiles").and_then(|p| p.as_arr().map(<[_]>::len));
        assert_eq!(profiles, Some(5), "{}", o.datapoint_json);
    }

    #[test]
    fn figure_harnesses_report_paper_outcomes() {
        let f9 = figure9();
        assert!(f9.contains("degree 100.0%"), "{f9}");
        let f10 = figure10();
        assert!(f10.contains("approach 3"), "{f10}");
        let f12 = figure12();
        assert!(f12.contains("NON-CURRENT"), "{f12}");
        assert!(f12.contains("x is CURRENT"), "{f12}");
    }
}
