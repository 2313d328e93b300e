//! Property-based tests of the core invariants, with `proptest`.

use proptest::prelude::*;

use twpp_repro::twpp::{
    compact_governed, compact_trace, lzw, partition, GovOptions, PathTrace, TimestampedTrace,
    TsSet, TsSetError, TwppArchive,
};
use twpp_repro::twpp_ir::{BlockId, FuncId};
use twpp_repro::twpp_sequitur::Grammar;
use twpp_repro::twpp_tracer::{RawWpp, WppEvent};

/// Strategy: a structurally valid WPP event stream (balanced enters/exits
/// with a single root and at least one block per activation).
fn wpp_strategy(max_events: usize) -> impl Strategy<Value = RawWpp> {
    // A recursive activation tree: (func, blocks-with-nested-calls).
    #[derive(Clone, Debug)]
    enum Item {
        Block(u32),
        Call(Box<Activation>),
    }
    #[derive(Clone, Debug)]
    struct Activation {
        func: u32,
        items: Vec<Item>,
    }
    let leaf = (0u32..6, prop::collection::vec(1u32..12, 1..8))
        .prop_map(|(func, blocks)| Activation {
            func,
            items: blocks.into_iter().map(Item::Block).collect(),
        });
    let tree = leaf.prop_recursive(4, max_events as u32, 6, |inner| {
        (
            0u32..6,
            prop::collection::vec(
                prop_oneof![
                    (1u32..12).prop_map(Item::Block),
                    inner.prop_map(|a| Item::Call(Box::new(a))),
                ],
                1..8,
            ),
        )
            .prop_map(|(func, items)| Activation { func, items })
    });
    tree.prop_map(|root| {
        fn emit(a: &Activation, out: &mut Vec<WppEvent>) {
            out.push(WppEvent::Enter(FuncId::from_index(a.func as usize)));
            let mut emitted_block = false;
            for item in &a.items {
                match item {
                    Item::Block(b) => {
                        out.push(WppEvent::Block(BlockId::new(*b)));
                        emitted_block = true;
                    }
                    Item::Call(inner) => {
                        if !emitted_block {
                            // Activations always execute their entry block
                            // before calling.
                            out.push(WppEvent::Block(BlockId::new(1)));
                            emitted_block = true;
                        }
                        emit(inner, out);
                    }
                }
            }
            out.push(WppEvent::Exit);
        }
        let mut events = Vec::new();
        emit(&root, &mut events);
        RawWpp::from_events(&events)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partition_reconstruct_round_trip(wpp in wpp_strategy(64)) {
        let part = partition(&wpp).unwrap();
        prop_assert_eq!(part.reconstruct(), wpp);
    }

    #[test]
    fn full_pipeline_is_lossless(wpp in wpp_strategy(64)) {
        let (compacted, stats) = compact_governed(&wpp, &GovOptions::default()).unwrap();
        prop_assert_eq!(compacted.reconstruct(), wpp);
        // Sizes only shrink through the trace stages.
        prop_assert!(stats.after_dedup_bytes <= stats.owpp_trace_bytes);
        prop_assert!(stats.after_dict_bytes <= stats.after_dedup_bytes);
    }

    #[test]
    fn archive_round_trip(wpp in wpp_strategy(48)) {
        let (compacted, _) = compact_governed(&wpp, &GovOptions::default()).unwrap();
        let archive = TwppArchive::from_compacted(&compacted);
        let back = TwppArchive::from_bytes(archive.as_bytes().to_vec()).unwrap();
        prop_assert_eq!(back.to_compacted().unwrap(), compacted);
    }

    #[test]
    fn archive_function_reads_match_scans(wpp in wpp_strategy(48)) {
        let (compacted, _) = compact_governed(&wpp, &GovOptions::default()).unwrap();
        let archive = TwppArchive::from_compacted(&compacted);
        for func in archive.function_ids() {
            let record = archive.read_function(func).unwrap();
            let mut scanned = wpp.scan_function(func);
            prop_assert_eq!(record.call_count as usize, scanned.len());
            scanned.sort();
            scanned.dedup();
            let mut expanded: Vec<Vec<BlockId>> = record
                .expanded_traces()
                .into_iter()
                .map(Vec::from)
                .collect();
            expanded.sort();
            expanded.dedup();
            prop_assert_eq!(expanded, scanned);
        }
    }

    #[test]
    fn dbb_compaction_expands_back(blocks in prop::collection::vec(1u32..10, 0..200)) {
        let trace: PathTrace = blocks.iter().map(|&b| BlockId::new(b)).collect();
        let compacted = compact_trace(&trace);
        prop_assert_eq!(compacted.dictionary.expand(&compacted.trace), trace);
    }

    #[test]
    fn timestamped_inversion_round_trip(blocks in prop::collection::vec(1u32..10, 0..200)) {
        let trace: PathTrace = blocks.iter().map(|&b| BlockId::new(b)).collect();
        let tt = TimestampedTrace::from_path_trace(&trace);
        prop_assert_eq!(tt.to_path_trace(), trace);
        // Serialization round trip.
        let words = tt.to_words().unwrap();
        let mut pos = 0;
        prop_assert_eq!(TimestampedTrace::from_words(&words, &mut pos).unwrap(), tt);
        prop_assert_eq!(pos, words.len());
    }

    #[test]
    fn tsset_agrees_with_btreeset_model(
        values in prop::collection::btree_set(1u32..5000, 0..300),
        delta in -10i64..10,
        probe in 1u32..5200,
    ) {
        let sorted: Vec<u32> = values.iter().copied().collect();
        let set = TsSet::from_sorted(&sorted);
        prop_assert_eq!(set.len(), sorted.len() as u64);
        prop_assert_eq!(set.to_vec(), sorted.clone());
        // Membership.
        prop_assert_eq!(set.contains(probe), values.contains(&probe));
        // Order queries.
        prop_assert_eq!(set.max_lt(probe), values.range(..probe).next_back().copied());
        prop_assert_eq!(set.min_ge(probe), values.range(probe..).next().copied());
        // Shift.
        let shifted: Vec<u32> = sorted
            .iter()
            .filter_map(|&t| {
                let v = i64::from(t) + delta;
                if v >= 1 { Some(v as u32) } else { None }
            })
            .collect();
        prop_assert_eq!(set.shift(delta).to_vec(), shifted);
        // Wire round trip.
        prop_assert_eq!(TsSet::from_wire(&set.to_wire().unwrap()).unwrap(), set);
    }

    #[test]
    fn tsset_wire_boundary_near_i32_max(
        offsets in prop::collection::btree_set(0u32..64, 1..16),
        excess in 1u32..1000,
    ) {
        // Timestamps hugging `i32::MAX` from below round-trip through the
        // sign-delimited wire format; anything above the boundary yields a
        // typed error instead of a panic or a silent wrap.
        let max = i32::MAX as u32;
        let mut vals: Vec<u32> = offsets.iter().map(|&o| max - o).collect();
        vals.sort_unstable();
        let set = TsSet::from_sorted(&vals);
        let wire = set.to_wire().unwrap();
        prop_assert_eq!(TsSet::from_wire(&wire).unwrap(), set);
        // One member past the boundary: encoding must fail loudly.
        let mut over = vals.clone();
        over.push(max + excess);
        let bad = TsSet::from_sorted(&over);
        prop_assert!(matches!(
            bad.to_wire(),
            Err(TsSetError::TimestampOverflow { .. })
        ));
        // Checked shifts past the u32 domain are typed errors (the set
        // tops out near 2^31, so a delta of u32::MAX overflows), and the
        // clamped shift never fabricates out-of-domain members.
        let delta = i64::from(u32::MAX) - i64::from(excess % 7);
        prop_assert!(set.try_shift(delta).is_err());
        let clamped = set.shift(delta);
        for t in clamped.iter() {
            prop_assert!(t >= 1);
        }
    }

    #[test]
    fn tsset_algebra_matches_model(
        a in prop::collection::btree_set(1u32..600, 0..150),
        b in prop::collection::btree_set(1u32..600, 0..150),
    ) {
        let sa = TsSet::from_sorted(&a.iter().copied().collect::<Vec<_>>());
        let sb = TsSet::from_sorted(&b.iter().copied().collect::<Vec<_>>());
        let inter: Vec<u32> = a.intersection(&b).copied().collect();
        let diff: Vec<u32> = a.difference(&b).copied().collect();
        let union: Vec<u32> = a.union(&b).copied().collect();
        prop_assert_eq!(sa.intersect(&sb).to_vec(), inter);
        prop_assert_eq!(sa.subtract(&sb).to_vec(), diff);
        prop_assert_eq!(sa.union(&sb).to_vec(), union);
    }

    #[test]
    fn lzw_round_trip(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        let compressed = lzw::compress(&data);
        prop_assert_eq!(lzw::decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn lzw_round_trip_repetitive(
        unit in prop::collection::vec(any::<u8>(), 1..8),
        reps in 1usize..500,
    ) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let compressed = lzw::compress(&data);
        prop_assert_eq!(lzw::decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn sequitur_expands_to_input(input in prop::collection::vec(1u32..20, 0..600)) {
        let grammar = Grammar::build(&input);
        prop_assert_eq!(grammar.expand_input(), input);
    }

    #[test]
    fn sequitur_invariants_hold(input in prop::collection::vec(1u32..6, 0..600)) {
        let grammar = Grammar::build(&input);
        prop_assert!(grammar.digram_uniqueness_holds());
        prop_assert!(grammar.rule_utility_holds());
    }

    #[test]
    fn sequitur_wire_round_trip(input in prop::collection::vec(1u32..16, 0..400)) {
        let rules = Grammar::build(&input).to_rules();
        let bytes = twpp_repro::twpp_sequitur::encode(&rules);
        prop_assert_eq!(twpp_repro::twpp_sequitur::decode(&bytes).unwrap(), rules);
    }
}
