//! Independent reference oracles: deliberately naive re-implementations
//! of every pipeline transformation, sharing **no code** with
//! [`twpp::partition`](mod@twpp::partition), [`twpp::dedup`], [`twpp::dbb`],
//! [`twpp::timestamped`] or [`twpp::tsset`].
//!
//! Each oracle favours the most obvious O(n)–O(n²) formulation over
//! anything clever: plain stacks, linear scans and `BTreeSet`s. The
//! differential engine ([`crate::differential`]) holds the optimized
//! pipeline to these semantics; when the two disagree the oracle wins by
//! construction, because its code is short enough to audit by eye.

use std::collections::{BTreeMap, BTreeSet};

use twpp_ir::{BlockId, FuncId};
use twpp_tracer::WppEvent;

/// One function activation recovered by the naive partitioner.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RefActivation {
    /// The activated function.
    pub func: FuncId,
    /// Index of the calling activation (preorder), `None` for the root.
    pub parent: Option<usize>,
    /// Blocks the parent had executed when this call happened.
    pub offset_in_parent: u32,
    /// The blocks this activation itself executed.
    pub blocks: Vec<BlockId>,
    /// Child activations, in call order (preorder indices).
    pub children: Vec<usize>,
    /// Position of this activation in close (Exit) order — the order
    /// the optimized partitioner appends per-function traces in.
    pub close_order: usize,
}

/// The naive partitioner's output: activations in Enter (preorder) order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RefPartition {
    /// All activations; index 0 is the root when non-empty.
    pub activations: Vec<RefActivation>,
}

/// Naive-partitioner rejection reasons, mirroring the optimized
/// partitioner's error contract without sharing its types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RefPartitionError {
    /// The stream had no events at all.
    Empty,
    /// A block or exit occurred while no activation was open.
    OutsideActivation,
    /// A second top-level activation was entered.
    MultipleRoots,
}

impl RefPartition {
    /// Per-function trace lists in close (Exit) order — the layout the
    /// optimized [`twpp::PartitionedWpp::traces`] uses.
    pub fn traces_by_function(&self) -> BTreeMap<FuncId, Vec<Vec<BlockId>>> {
        let mut order: Vec<usize> = (0..self.activations.len()).collect();
        order.sort_by_key(|&i| self.activations[i].close_order);
        let mut map: BTreeMap<FuncId, Vec<Vec<BlockId>>> = BTreeMap::new();
        for i in order {
            let a = &self.activations[i];
            map.entry(a.func).or_default().push(a.blocks.clone());
        }
        map
    }

    /// Rebuilds the original event stream (inverse of [`ref_partition`]),
    /// closing truncated activations explicitly.
    pub fn reconstruct(&self) -> Vec<WppEvent> {
        let mut events = Vec::new();
        if !self.activations.is_empty() {
            self.emit(0, &mut events);
        }
        events
    }

    fn emit(&self, idx: usize, events: &mut Vec<WppEvent>) {
        let a = &self.activations[idx];
        events.push(WppEvent::Enter(a.func));
        let mut block_pos = 0usize;
        for &child in &a.children {
            let off = self.activations[child].offset_in_parent as usize;
            while block_pos < off.min(a.blocks.len()) {
                events.push(WppEvent::Block(a.blocks[block_pos]));
                block_pos += 1;
            }
            self.emit(child, events);
        }
        while block_pos < a.blocks.len() {
            events.push(WppEvent::Block(a.blocks[block_pos]));
            block_pos += 1;
        }
        events.push(WppEvent::Exit);
    }
}

/// Naive WPP partitioner: one pass with an explicit activation stack.
///
/// Truncated streams (open activations at the end) are accepted and
/// closed implicitly, innermost first, matching the documented contract.
///
/// # Errors
///
/// Rejects empty streams, events outside any activation, and second
/// top-level activations.
pub fn ref_partition(events: &[WppEvent]) -> Result<RefPartition, RefPartitionError> {
    if events.is_empty() {
        return Err(RefPartitionError::Empty);
    }
    let mut acts: Vec<RefActivation> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut root_seen = false;
    let mut next_close = 0usize;
    for &event in events {
        match event {
            WppEvent::Enter(func) => {
                if stack.is_empty() && root_seen {
                    return Err(RefPartitionError::MultipleRoots);
                }
                root_seen = true;
                let idx = acts.len();
                let (parent, offset) = match stack.last() {
                    Some(&p) => {
                        acts[p].children.push(idx);
                        (Some(p), acts[p].blocks.len() as u32)
                    }
                    None => (None, 0),
                };
                acts.push(RefActivation {
                    func,
                    parent,
                    offset_in_parent: offset,
                    blocks: Vec::new(),
                    children: Vec::new(),
                    close_order: usize::MAX,
                });
                stack.push(idx);
            }
            WppEvent::Block(b) => match stack.last() {
                Some(&top) => acts[top].blocks.push(b),
                None => return Err(RefPartitionError::OutsideActivation),
            },
            WppEvent::Exit => match stack.pop() {
                Some(top) => {
                    acts[top].close_order = next_close;
                    next_close += 1;
                }
                None => return Err(RefPartitionError::OutsideActivation),
            },
        }
    }
    while let Some(top) = stack.pop() {
        acts[top].close_order = next_close;
        next_close += 1;
    }
    Ok(RefPartition { activations: acts })
}

/// Naive redundant-trace elimination over one function's trace list:
/// keeps the first occurrence of each distinct trace (quadratic compare)
/// and returns `(unique_traces, remap)` where `remap[i]` is the unique
/// index trace `i` collapsed onto.
pub fn ref_dedup(traces: &[Vec<BlockId>]) -> (Vec<Vec<BlockId>>, Vec<usize>) {
    let mut unique: Vec<Vec<BlockId>> = Vec::new();
    let mut remap = Vec::with_capacity(traces.len());
    for t in traces {
        match unique.iter().position(|u| u == t) {
            Some(i) => remap.push(i),
            None => {
                unique.push(t.clone());
                remap.push(unique.len() - 1);
            }
        }
    }
    (unique, remap)
}

/// Naive dynamic-basic-block folding of one path trace.
///
/// Recomputes the chain rule from first principles: `a -> b` is a chain
/// edge iff `b` is the *only* thing ever following `a` and `a` the only
/// thing ever preceding `b` in this trace, where "thing" includes the
/// virtual start/end of the trace. Maximal chains (length ≥ 2) fold each
/// occurrence down to their head block.
///
/// Returns `(folded_trace, chains)` with chains keyed by head block.
pub fn ref_dbb_fold(blocks: &[BlockId]) -> (Vec<BlockId>, BTreeMap<BlockId, Vec<BlockId>>) {
    if blocks.len() < 2 {
        return (blocks.to_vec(), BTreeMap::new());
    }
    // Successor/predecessor alphabets; `None` models the virtual
    // entry/exit neighbour.
    let mut succs: BTreeMap<BlockId, BTreeSet<Option<BlockId>>> = BTreeMap::new();
    let mut preds: BTreeMap<BlockId, BTreeSet<Option<BlockId>>> = BTreeMap::new();
    for (i, &b) in blocks.iter().enumerate() {
        let before = if i == 0 { None } else { Some(blocks[i - 1]) };
        let after = blocks.get(i + 1).copied();
        preds.entry(b).or_default().insert(before);
        succs.entry(b).or_default().insert(after);
    }
    // Chain edges.
    let mut next: BTreeMap<BlockId, BlockId> = BTreeMap::new();
    let mut chained_into: BTreeSet<BlockId> = BTreeSet::new();
    for (&a, ss) in &succs {
        if ss.len() == 1 {
            if let Some(Some(b)) = ss.iter().next().copied() {
                if a != b && preds[&b].len() == 1 && preds[&b].contains(&Some(a)) {
                    next.insert(a, b);
                    chained_into.insert(b);
                }
            }
        }
    }
    // Maximal chains from heads.
    let mut chains: BTreeMap<BlockId, Vec<BlockId>> = BTreeMap::new();
    for &head in next.keys() {
        if chained_into.contains(&head) {
            continue;
        }
        let mut chain = vec![head];
        let mut cur = head;
        while let Some(&n) = next.get(&cur) {
            chain.push(n);
            cur = n;
        }
        chains.insert(head, chain);
    }
    // Fold occurrences.
    let mut folded = Vec::new();
    let mut i = 0;
    while i < blocks.len() {
        let b = blocks[i];
        folded.push(b);
        i += chains.get(&b).map_or(1, Vec::len);
    }
    (folded, chains)
}

/// Naive unfold: the inverse of [`ref_dbb_fold`].
pub fn ref_dbb_unfold(
    folded: &[BlockId],
    chains: &BTreeMap<BlockId, Vec<BlockId>>,
) -> Vec<BlockId> {
    let mut out = Vec::new();
    for b in folded {
        match chains.get(b) {
            Some(chain) => out.extend_from_slice(chain),
            None => out.push(*b),
        }
    }
    out
}

/// Naive timestamp inversion: block → sorted 1-based positions at which
/// it executed (the `T -> B` to `B -> P(T)` flip of the paper).
pub fn ref_invert(blocks: &[BlockId]) -> BTreeMap<BlockId, Vec<u32>> {
    let mut map: BTreeMap<BlockId, Vec<u32>> = BTreeMap::new();
    for (i, &b) in blocks.iter().enumerate() {
        map.entry(b).or_default().push((i + 1) as u32);
    }
    map
}

/// Naive inverse of [`ref_invert`]: rebuilds the positional trace, or
/// reports why the map is not a partition of `1..=len`.
pub fn ref_uninvert(map: &BTreeMap<BlockId, Vec<u32>>) -> Result<Vec<BlockId>, String> {
    let len: usize = map.values().map(Vec::len).sum();
    let mut slots: Vec<Option<BlockId>> = vec![None; len];
    for (&b, ts) in map {
        for &t in ts {
            if t == 0 || t as usize > len {
                return Err(format!("timestamp {t} outside 1..={len}"));
            }
            let slot = &mut slots[(t - 1) as usize];
            if slot.is_some() {
                return Err(format!("timestamp {t} claimed twice"));
            }
            *slot = Some(b);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.ok_or_else(|| format!("timestamp {} unclaimed", i + 1)))
        .collect()
}

/// One arithmetic-series entry of the naive compactor: `(first, last,
/// step)`, a singleton when `first == last`.
pub type RefSeries = (u32, u32, u32);

/// Naive greedy arithmetic-series compaction of a strictly increasing
/// timestamp vector, re-deriving the paper's rule from scratch: a maximal
/// constant-difference run becomes one `l:h:s` entry when it has ≥ 3
/// members, or exactly 2 members at step 1 (where the two-word `l,-h`
/// encoding still saves space); everything else stays a singleton.
pub fn ref_compact_series(values: &[u32]) -> Vec<RefSeries> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < values.len() {
        // Longest constant-difference run starting at i.
        if i + 1 < values.len() {
            let step = values[i + 1] - values[i];
            let mut j = i + 1;
            while j + 1 < values.len() && values[j + 1] - values[j] == step {
                j += 1;
            }
            let members = j - i + 1;
            if members >= 3 || (members == 2 && step == 1) {
                out.push((values[i], values[j], step));
                i = j + 1;
                continue;
            }
        }
        out.push((values[i], values[i], 1));
        i += 1;
    }
    out
}

/// Naive decoder of the sign-delimited `l:h:s` wire format: singletons
/// are one negative word, step-1 ranges are `l,-h`, general series are
/// `l,h,-s`. Expands to the full timestamp vector.
///
/// # Errors
///
/// Reports truncation, zero words, non-positive spans and out-of-order
/// entries as strings (this decoder exists to disagree loudly, not to be
/// ergonomic).
pub fn ref_decode_wire(words: &[i32]) -> Result<Vec<u32>, String> {
    let mut out: Vec<u32> = Vec::new();
    let mut i = 0;
    let mut prev_last: Option<u32> = None;
    while i < words.len() {
        let w0 = words[i];
        let (first, last, step, used) = if w0 < 0 {
            let v = (-i64::from(w0)) as u32;
            (v, v, 1u32, 1usize)
        } else if w0 == 0 {
            return Err(format!("zero word at {i}"));
        } else {
            let Some(&w1) = words.get(i + 1) else {
                return Err("truncated entry".to_string());
            };
            if w1 < 0 {
                (w0 as u32, (-i64::from(w1)) as u32, 1, 2)
            } else if w1 == 0 {
                return Err(format!("zero word at {}", i + 1));
            } else {
                let Some(&w2) = words.get(i + 2) else {
                    return Err("truncated entry".to_string());
                };
                if w2 >= 0 {
                    return Err(format!("unterminated series at {i}"));
                }
                (w0 as u32, w1 as u32, (-i64::from(w2)) as u32, 3)
            }
        };
        if used > 1 && (last <= first || step == 0 || (last - first) % step != 0) {
            return Err(format!("malformed entry at {i}"));
        }
        if prev_last.is_some_and(|p| p >= first) {
            return Err(format!("out-of-order entry at {i}"));
        }
        let mut t = first;
        loop {
            out.push(t);
            if t == last {
                break;
            }
            t += step;
        }
        prev_last = Some(last);
        i += used;
    }
    Ok(out)
}

/// Naive encoder of [`RefSeries`] entries into the sign-delimited wire
/// format (the inverse of [`ref_decode_wire`]). Values above `i32::MAX`
/// are unrepresentable and reported as an error.
pub fn ref_encode_wire(entries: &[RefSeries]) -> Result<Vec<i32>, String> {
    let mut out = Vec::new();
    for &(first, last, step) in entries {
        let enc = |v: u32| i32::try_from(v).map_err(|_| format!("{v} exceeds i32::MAX"));
        if first == last {
            out.push(-enc(first)?);
        } else if step == 1 {
            out.push(enc(first)?);
            out.push(-enc(last)?);
        } else {
            out.push(enc(first)?);
            out.push(enc(last)?);
            out.push(-enc(step)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BlockId {
        BlockId::new(i)
    }

    fn f(i: usize) -> FuncId {
        FuncId::from_index(i)
    }

    #[test]
    fn ref_partition_tracks_offsets_and_close_order() {
        let events = [
            WppEvent::Enter(f(0)),
            WppEvent::Block(b(1)),
            WppEvent::Enter(f(1)),
            WppEvent::Block(b(2)),
            WppEvent::Exit,
            WppEvent::Block(b(3)),
            WppEvent::Exit,
        ];
        let p = ref_partition(&events).unwrap();
        assert_eq!(p.activations.len(), 2);
        assert_eq!(p.activations[1].offset_in_parent, 1);
        assert_eq!(p.activations[1].close_order, 0);
        assert_eq!(p.activations[0].close_order, 1);
        assert_eq!(p.reconstruct(), events);
    }

    #[test]
    fn ref_partition_rejects_malformed_streams() {
        assert_eq!(ref_partition(&[]), Err(RefPartitionError::Empty));
        assert_eq!(
            ref_partition(&[WppEvent::Block(b(1))]),
            Err(RefPartitionError::OutsideActivation)
        );
        assert_eq!(
            ref_partition(&[WppEvent::Enter(f(0)), WppEvent::Exit, WppEvent::Enter(f(0))]),
            Err(RefPartitionError::MultipleRoots)
        );
    }

    #[test]
    fn ref_dbb_folds_the_paper_example() {
        let t: Vec<BlockId> = [1, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 10]
            .iter()
            .map(|&i| b(i))
            .collect();
        let (folded, chains) = ref_dbb_fold(&t);
        assert_eq!(chains[&b(2)].len(), 5);
        assert_eq!(folded.len(), 5); // 1.2.2.2.10
        assert_eq!(ref_dbb_unfold(&folded, &chains), t);
    }

    #[test]
    fn ref_series_compaction_matches_hand_examples() {
        assert_eq!(ref_compact_series(&[5]), vec![(5, 5, 1)]);
        assert_eq!(ref_compact_series(&[2, 3]), vec![(2, 3, 1)]);
        assert_eq!(ref_compact_series(&[2, 4]), vec![(2, 2, 1), (4, 4, 1)]);
        assert_eq!(ref_compact_series(&[2, 4, 6, 9]), vec![(2, 6, 2), (9, 9, 1)]);
    }

    #[test]
    fn ref_wire_round_trips() {
        let entries = ref_compact_series(&[1, 2, 3, 7, 10, 13, 20]);
        let words = ref_encode_wire(&entries).unwrap();
        assert_eq!(ref_decode_wire(&words).unwrap(), vec![1, 2, 3, 7, 10, 13, 20]);
    }

    #[test]
    fn ref_invert_round_trips() {
        let t: Vec<BlockId> = [1, 2, 2, 3, 1].iter().map(|&i| b(i)).collect();
        let inv = ref_invert(&t);
        assert_eq!(ref_uninvert(&inv).unwrap(), t);
    }
}
