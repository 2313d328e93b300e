//! Profile-limited data flow query costs: the served demand-driven
//! engine vs a naive full-trace replay, and the served GEN/KILL sweep vs
//! the paper's timestamp-vector propagation on a long loop.

use criterion::{criterion_group, criterion_main, Criterion};
use twpp::gov::Budget;
use twpp_dataflow::dyncfg::DynCfg;
use twpp_dataflow::redundancy::{load_redundancy, loads_in};
use twpp_dataflow::{
    solve_backward, solve_backward_effects_governed, solve_by_propagation, solve_by_replay,
    AvailableLoad, Effect,
};
use twpp_ir::BlockId;
use twpp_ir::Operand;
use twpp_lang::{compile_with_options, LowerOptions};
use twpp_tracer::{run_traced, ExecLimits};

/// The Figure 9 scenario scaled to many iterations.
fn figure9_scaled(iters: u32) -> String {
    format!(
        "fn main() {{
             let i = 0;
             while (i < {iters}) {{
                 let t = load(100);
                 if (i % 5 < 3) {{
                     let u = load(100);
                     print(u);
                 }} else {{
                     store(100, i);
                 }}
                 i = i + 1;
             }}
         }}"
    )
}

fn bench(c: &mut Criterion) {
    let src = figure9_scaled(20_000);
    let program = compile_with_options(
        &src,
        LowerOptions {
            stmt_per_block: true,
        },
    )
    .expect("program compiles");
    let (_, wpp) = run_traced(&program, &[], ExecLimits::default()).expect("program runs");
    let main_id = program.main();
    let func = program.func(main_id);
    let trace = wpp.scan_function(main_id).remove(0);
    let dcfg = DynCfg::from_block_sequence(&trace);
    let loads = loads_in(&dcfg, func);
    let (hot, _) = loads
        .iter()
        .copied()
        .max_by_key(|(n, _)| dcfg.node(*n).ts.len())
        .expect("program has loads");
    let fact = AvailableLoad {
        addr: Operand::Const(100),
    };
    let ts = dcfg.node(hot).ts.clone();

    let mut group = c.benchmark_group("dataflow");
    group.sample_size(20);

    group.bench_function("demand_driven_query", |b| {
        b.iter(|| {
            solve_backward(
                std::hint::black_box(&dcfg),
                func,
                &fact,
                hot,
                std::hint::black_box(&ts),
            )
            .frequency()
        })
    });
    group.bench_function("naive_replay_oracle", |b| {
        b.iter(|| {
            solve_by_replay(
                std::hint::black_box(&dcfg),
                func,
                &fact,
                hot,
                std::hint::black_box(&ts),
            )
            .frequency()
        })
    });
    group.bench_function("load_redundancy_end_to_end", |b| {
        b.iter(|| {
            load_redundancy(std::hint::black_box(&dcfg), func, hot)
                .unwrap()
                .degree_percent()
        })
    });
    group.bench_function("build_dyncfg", |b| {
        b.iter(|| DynCfg::from_block_sequence(std::hint::black_box(&trace)).node_count())
    });

    // A currency question on a 34 765-event trace shaped like 099.go's
    // main loop: a def before a 4-block loop that never redefines the
    // value, asked at every execution of the loop's last block. Each
    // queried position walks back to the def, so the propagation pops
    // once per trace position; the sweep takes two budget steps.
    let mut ids = vec![5u32];
    while ids.len() < 34_765 {
        ids.push(1 + (ids.len() as u32 - 1) % 4);
    }
    let loop_seq: Vec<BlockId> = ids.into_iter().map(BlockId::new).collect();
    let loop_cfg = DynCfg::from_block_sequence(&loop_seq);
    let node_of = |b: u32| loop_cfg.node_by_head(BlockId::new(b)).expect("block runs");
    let mut loop_effects = vec![Effect::Transparent; loop_cfg.node_count()];
    loop_effects[node_of(5)] = Effect::Gen;
    let use_node = node_of(4);
    let use_ts = loop_cfg.node(use_node).ts.clone();
    group.bench_function("loop_currency_sweep", |b| {
        b.iter(|| {
            solve_backward_effects_governed(
                std::hint::black_box(&loop_cfg),
                &loop_effects,
                use_node,
                std::hint::black_box(&use_ts),
                &Budget::unlimited(),
            )
            .result()
            .frequency()
        })
    });
    group.bench_function("loop_currency_propagation", |b| {
        b.iter(|| {
            solve_by_propagation(
                std::hint::black_box(&loop_cfg),
                &loop_effects,
                use_node,
                std::hint::black_box(&use_ts),
            )
            .frequency()
        })
    });

    // Interprocedural slicing over a call-heavy program.
    let inter_src = "
        fn leaf(x) { return x * 2; }
        fn mid(x) { return leaf(x) + 1; }
        fn main() {
            let acc = 0;
            let i = 0;
            while (i < 200) {
                acc = acc + mid(i);
                i = i + 1;
            }
            print(acc);
        }";
    let inter_program = compile_with_options(
        inter_src,
        LowerOptions {
            stmt_per_block: true,
        },
    )
    .expect("program compiles");
    let (_, inter_wpp) =
        run_traced(&inter_program, &[], ExecLimits::default()).expect("program runs");
    let compacted = twpp::compact(&inter_wpp).expect("compacts");
    group.bench_function("interprocedural_slice", |b| {
        use twpp_dataflow::interslice::{InterCriterion, InterSlicer};
        use twpp_ir::Var;
        let root = compacted.dcg.root();
        let main_fb = compacted.function(inter_program.main()).expect("main ran");
        let len = main_fb.expanded_traces()[0].len() as u32;
        b.iter(|| {
            let mut slicer = InterSlicer::new(&inter_program, &compacted);
            slicer
                .slice(InterCriterion {
                    activation: root,
                    timestamp: len,
                    var: Var::from_index(0),
                })
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
