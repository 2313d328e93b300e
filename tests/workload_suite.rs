//! Integration tests over the synthetic benchmark workloads: the paper's
//! whole evaluation machinery at a reduced scale.

use twpp_repro::twpp::{compact_governed, GovOptions, TwppArchive};
use twpp_repro::twpp_sequitur;
use twpp_repro::twpp_workloads::{generate, Profile};

#[test]
fn every_profile_compacts_losslessly() {
    for profile in Profile::all() {
        let w = generate(&profile.spec().scaled(0.01));
        let (compacted, stats) = compact_governed(&w.wpp, &GovOptions::default()).unwrap();
        assert_eq!(
            compacted.reconstruct(),
            w.wpp,
            "{} pipeline not lossless",
            profile.paper_name()
        );
        assert!(stats.overall_factor() > 1.0, "{}", profile.paper_name());
    }
}

#[test]
fn archive_answers_match_scans_on_a_workload() {
    let w = generate(&Profile::Li.spec().scaled(0.01));
    let (compacted, _) = compact_governed(&w.wpp, &GovOptions::default()).unwrap();
    let archive = TwppArchive::from_compacted(&compacted);
    // The layout is hottest-first.
    let ids = archive.function_ids();
    let counts: Vec<u64> = ids.iter().map(|f| archive.call_count(*f).unwrap()).collect();
    for pair in counts.windows(2) {
        assert!(pair[0] >= pair[1], "layout not frequency ordered");
    }
    // Spot-check several functions against ground truth.
    for &func in ids.iter().step_by(ids.len().div_ceil(8).max(1)) {
        let record = archive.read_function(func).unwrap();
        let mut scanned = w.wpp.scan_function(func);
        assert_eq!(record.call_count as usize, scanned.len());
        scanned.sort();
        scanned.dedup();
        let mut expanded: Vec<Vec<twpp_repro::twpp_ir::BlockId>> = record
            .expanded_traces()
            .into_iter()
            .map(Vec::from)
            .collect();
        expanded.sort();
        expanded.dedup();
        assert_eq!(expanded, scanned);
    }
}

#[test]
fn sequitur_baseline_agrees_on_a_workload() {
    let w = generate(&Profile::Perl.spec().scaled(0.005));
    let grammar = twpp_sequitur::compress_wpp(&w.wpp);
    assert_eq!(grammar.expand_input(), w.wpp.words());
    // Grammars of redundant traces are much smaller than the input.
    assert!(grammar.symbol_count() * 4 < w.wpp.byte_len() / 4);
    let rules = grammar.to_rules();
    let (compacted, _) = compact_governed(&w.wpp, &GovOptions::default()).unwrap();
    let hottest = compacted.functions[0].func;
    assert_eq!(
        twpp_sequitur::extract_function(&rules, hottest),
        w.wpp.scan_function(hottest)
    );
}

#[test]
fn redundancy_statistics_are_consistent() {
    let w = generate(&Profile::Ijpeg.spec().scaled(0.01));
    let (compacted, stats) = compact_governed(&w.wpp, &GovOptions::default()).unwrap();
    // Stats call counts agree with the DCG.
    let total_from_stats = stats.redundancy.total_calls();
    let total_from_dcg = compacted.dcg.node_count() as u64;
    assert_eq!(total_from_stats, total_from_dcg);
    // Unique trace counts agree with the function blocks.
    for fb in &compacted.functions {
        let (calls, uniques) = stats.redundancy.per_func[&fb.func];
        assert_eq!(calls, fb.call_count);
        assert_eq!(uniques as usize, fb.traces.len());
    }
    // The CDF is monotone in N.
    let cdf = stats.redundancy.redundancy_cdf(50);
    for pair in cdf.windows(2) {
        assert!(pair[0].1 <= pair[1].1);
    }
}

#[test]
fn profiles_reproduce_the_papers_orderings() {
    // Scaled-down check of the evaluation's qualitative shape: perl is the
    // most compactable, go the least.
    let factor = |p: Profile| {
        let w = generate(&p.spec().scaled(0.02));
        compact_governed(&w.wpp, &GovOptions::default())
            .unwrap()
            .1
            .overall_factor()
    };
    let go = factor(Profile::Go);
    let perl = factor(Profile::Perl);
    assert!(
        perl > go,
        "perl ({perl:.1}) should compact more than go ({go:.1})"
    );
}
