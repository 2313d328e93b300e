//! Deterministic, seedable case generators shared by the differential
//! engine, the metamorphic battery, property tests, fuzzers and benches.
//!
//! Every generator is a pure function of its seed: the same
//! [`ShapeConfig`] and seed always produce the same case, on every
//! platform and at every worker-thread count. Shape knobs control the
//! structural properties that stress specific pipeline stages:
//!
//! * **loop depth / iteration counts** stress arithmetic-series
//!   compaction ([`twpp::tsset`]) and DBB folding;
//! * **call fan-out / depth** stress partitioning and the DCG;
//! * **path diversity** (how many distinct bodies a function executes)
//!   stresses redundant-trace elimination;
//! * **truncation** exercises the open-activation closing path.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use twpp_ir::{BlockId, FuncId};
use twpp_tracer::WppEvent;

/// Shape knobs for WPP event-stream generation.
#[derive(Clone, Debug)]
pub struct ShapeConfig {
    /// Soft cap on the number of generated events per case.
    pub max_events: usize,
    /// Number of distinct functions (`fn0` is always the root).
    pub n_funcs: usize,
    /// Maximum dynamic call nesting depth.
    pub max_call_depth: usize,
    /// Maximum static loop nesting depth within one body.
    pub max_loop_depth: usize,
    /// Maximum iteration count of a generated loop.
    pub max_loop_iters: usize,
    /// Number of distinct bodies ("paths") each function chooses from;
    /// higher diversity means fewer redundant traces.
    pub path_diversity: usize,
    /// Largest block id a body may contain.
    pub block_universe: u32,
    /// Probability that a body segment is a call rather than blocks.
    pub call_prob: f64,
    /// Probability that a generated stream is truncated mid-activation.
    pub truncate_prob: f64,
}

impl Default for ShapeConfig {
    fn default() -> ShapeConfig {
        ShapeConfig {
            max_events: 2_000,
            n_funcs: 5,
            max_call_depth: 6,
            max_loop_depth: 3,
            max_loop_iters: 9,
            path_diversity: 3,
            block_universe: 12,
            call_prob: 0.3,
            truncate_prob: 0.08,
        }
    }
}

impl ShapeConfig {
    /// A small shape for quick smoke batteries.
    pub fn small() -> ShapeConfig {
        ShapeConfig {
            max_events: 300,
            n_funcs: 3,
            max_call_depth: 4,
            max_loop_depth: 2,
            max_loop_iters: 5,
            path_diversity: 2,
            block_universe: 8,
            ..ShapeConfig::default()
        }
    }

    /// Caps the event budget, keeping every other knob.
    pub fn with_max_events(mut self, max_events: usize) -> ShapeConfig {
        self.max_events = max_events.max(4);
        self
    }
}

/// One item of a function body: a straight block or a call site.
#[derive(Clone, Debug)]
enum BodyItem {
    Block(u32),
    Call(usize),
}

/// Derives the sub-seed for case `index` of a run keyed by `seed`.
///
/// Splitmix-style mixing keeps neighbouring case streams decorrelated
/// while staying a pure function of `(seed, index)`.
pub fn case_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic WPP event-stream generator.
pub struct CaseGen {
    cfg: ShapeConfig,
    rng: ChaCha8Rng,
}

impl CaseGen {
    /// Creates a generator for one case.
    pub fn new(cfg: ShapeConfig, seed: u64) -> CaseGen {
        CaseGen {
            cfg,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Generates a well-formed WPP event stream (possibly truncated
    /// mid-activation, which [`twpp::partition()`] accepts by design).
    pub fn events(&mut self) -> Vec<WppEvent> {
        let bodies = self.gen_bodies();
        let mut events = Vec::new();
        self.emit(0, 0, &bodies, &mut events);
        if self.rng.gen_bool(self.cfg.truncate_prob) && events.len() > 4 {
            // Cut somewhere after the root Enter; any prefix of a valid
            // stream is a valid truncated stream.
            let cut = self.rng.gen_range(2..events.len());
            events.truncate(cut);
        }
        events
    }

    /// Per-function body variants: `path_diversity` alternatives each.
    fn gen_bodies(&mut self) -> Vec<Vec<Vec<BodyItem>>> {
        let n_funcs = self.cfg.n_funcs.max(1);
        let diversity = self.cfg.path_diversity.max(1);
        (0..n_funcs)
            .map(|f| {
                (0..diversity)
                    .map(|_| self.gen_body(f, n_funcs, self.cfg.max_loop_depth))
                    .collect()
            })
            .collect()
    }

    /// One body: a sequence of straight runs, loops and call sites.
    fn gen_body(&mut self, func: usize, n_funcs: usize, loop_depth: usize) -> Vec<BodyItem> {
        let mut items = Vec::new();
        let universe = self.cfg.block_universe.max(2);
        // Entry block first, like real lowered code.
        items.push(BodyItem::Block(1));
        let segments = self.rng.gen_range(1..=4);
        for _ in 0..segments {
            if self.rng.gen_bool(self.cfg.call_prob) && n_funcs > 1 {
                // Call a different function where possible (recursion is
                // still allowed occasionally: depth limits bound it).
                let callee = self.rng.gen_range(0..n_funcs);
                if callee != func || self.rng.gen_bool(0.25) {
                    items.push(BodyItem::Call(callee));
                    continue;
                }
            }
            if loop_depth > 0 && self.rng.gen_bool(0.5) {
                // A loop: its body repeats, producing the arithmetic
                // timestamp series the TWPP form compacts.
                let iters = self.rng.gen_range(2..=self.cfg.max_loop_iters.max(2));
                let body = self.gen_body(func, n_funcs, loop_depth - 1);
                for _ in 0..iters {
                    items.extend(body.iter().cloned());
                }
            } else {
                let run = self.rng.gen_range(1..=5);
                for _ in 0..run {
                    items.push(BodyItem::Block(self.rng.gen_range(1..=universe)));
                }
            }
        }
        items
    }

    /// Emits one activation of `func` (Enter, body, Exit) respecting the
    /// event budget and the call-depth cap.
    fn emit(
        &mut self,
        func: usize,
        depth: usize,
        bodies: &[Vec<Vec<BodyItem>>],
        events: &mut Vec<WppEvent>,
    ) {
        events.push(WppEvent::Enter(FuncId::from_index(func)));
        // Zipf-ish body choice: variant 0 dominates, producing the
        // redundant traces the dedup stage exists for.
        let variants = &bodies[func];
        let k = if self.rng.gen_bool(0.55) {
            0
        } else {
            self.rng.gen_range(0..variants.len())
        };
        // Clone the chosen body so `self` stays borrowable for recursion.
        let body = variants[k].clone();
        for item in body {
            if events.len() >= self.cfg.max_events {
                break;
            }
            match item {
                BodyItem::Block(b) => events.push(WppEvent::Block(BlockId::new(b))),
                BodyItem::Call(callee) => {
                    if depth + 1 < self.cfg.max_call_depth
                        && events.len() + 2 < self.cfg.max_events
                    {
                        self.emit(callee, depth + 1, bodies, events);
                    }
                }
            }
        }
        events.push(WppEvent::Exit);
    }
}

/// Generates a strictly increasing, 1-based timestamp vector mixing
/// random points, contiguous ranges and arithmetic series — the input
/// family [`twpp::tsset::TsSet::from_sorted`] compacts. With
/// `straddle_sign_bit`, values cluster around `i32::MAX` so the sign-bit
/// framing of the wire format is exercised on both sides.
pub fn gen_sorted_timestamps(
    rng: &mut ChaCha8Rng,
    max_len: usize,
    max_value: u32,
    straddle_sign_bit: bool,
) -> Vec<u32> {
    let target = rng.gen_range(0..=max_len.max(1));
    let mut values: Vec<u32> = Vec::with_capacity(target);
    let base_cap = if straddle_sign_bit {
        u32::MAX
    } else {
        max_value.max(4)
    };
    let mut cursor: u64 = if straddle_sign_bit {
        // Start below the sign boundary so runs cross it.
        u64::from(i32::MAX as u32) - rng.gen_range(0..64u64)
    } else {
        rng.gen_range(1..=8)
    };
    while values.len() < target && cursor <= u64::from(base_cap) {
        match rng.gen_range(0..3) {
            0 => {
                // A lone point, then a random gap.
                values.push(cursor as u32);
                cursor += rng.gen_range(1..=16u64);
            }
            1 => {
                // A contiguous range.
                let len = rng.gen_range(2..=8);
                for _ in 0..len {
                    if values.len() >= target || cursor > u64::from(base_cap) {
                        break;
                    }
                    values.push(cursor as u32);
                    cursor += 1;
                }
                cursor += rng.gen_range(1..=9u64);
            }
            _ => {
                // An arithmetic series with a step > 1.
                let step = rng.gen_range(2..=7u64);
                let len = rng.gen_range(3..=9);
                for _ in 0..len {
                    if values.len() >= target || cursor > u64::from(base_cap) {
                        break;
                    }
                    values.push(cursor as u32);
                    cursor += step;
                }
                cursor += rng.gen_range(1..=5u64);
            }
        }
    }
    values
}

/// Generates a pair of arithmetic series whose steps are distinct large
/// coprime primes sharing one anchor value: their step lcm overflows
/// `u32`, so intersecting them must take the huge-lcm singleton fallback
/// instead of the CRT series path. Each side has at least 3 elements so
/// `from_sorted` compacts it into a single series entry; the exact
/// intersection is `{anchor}` (the next common element lies `p*q >
/// u32::MAX` away, far outside either window).
pub fn gen_coprime_step_pair(rng: &mut ChaCha8Rng) -> (Vec<u32>, Vec<u32>) {
    // Primes just above 2^16: any distinct pair multiplies past 2^32.
    const PRIMES: [u32; 6] = [65_537, 65_539, 65_543, 65_551, 65_557, 65_563];
    let pi = rng.gen_range(0..PRIMES.len());
    let qi = (pi + rng.gen_range(1..PRIMES.len())) % PRIMES.len();
    let (p, q) = (PRIMES[pi], PRIMES[qi]);
    let anchor = rng.gen_range(1..=1_000_000u32);
    let la = rng.gen_range(3..=8u32);
    let lb = rng.gen_range(3..=8u32);
    let a = (0..la).map(|k| anchor + k * p).collect();
    let b = (0..lb).map(|k| anchor + k * q).collect();
    (a, b)
}

/// Generates adversarial byte inputs for the LZW codec: random bytes,
/// single-symbol runs (KwKwK stress), short alphabets that grow the
/// dictionary fast, and long repeats that force a dictionary reset.
pub fn gen_lzw_bytes(rng: &mut ChaCha8Rng, max_len: usize) -> Vec<u8> {
    match rng.gen_range(0..4) {
        0 => {
            let len = rng.gen_range(0..=max_len.max(1));
            (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect()
        }
        1 => {
            // One symbol repeated: worst case for KwKwK handling.
            let len = rng.gen_range(0..=max_len.max(1));
            let sym = rng.gen_range(0..=255u32) as u8;
            vec![sym; len]
        }
        2 => {
            // Tiny alphabet, long stream: dictionary churns quickly.
            let len = rng.gen_range(0..=max_len.max(1));
            let alpha = rng.gen_range(2..=4u32);
            (0..len)
                .map(|_| rng.gen_range(0..alpha) as u8)
                .collect()
        }
        _ => {
            // Repeated pattern with occasional corruption of one byte.
            let pat_len = rng.gen_range(1..=16);
            let pattern: Vec<u8> = (0..pat_len)
                .map(|_| rng.gen_range(0..=255u32) as u8)
                .collect();
            let reps = rng.gen_range(1..=max_len.max(1) / pat_len.max(1) + 1);
            let mut out: Vec<u8> = pattern
                .iter()
                .cycle()
                .take(pat_len * reps)
                .copied()
                .collect();
            if !out.is_empty() && rng.gen_bool(0.5) {
                let i = rng.gen_range(0..out.len());
                out[i] = out[i].wrapping_add(1);
            }
            out
        }
    }
}

/// Generates a dynamic block sequence over blocks `1..=4` of the
/// query-battery fixture function (see `metamorphic::fixture_program`).
/// Sequences start at block 1 so the fixture's control flow is plausible,
/// but [`twpp_dataflow::DynCfg::from_block_sequence`] accepts any order.
pub fn gen_block_sequence(rng: &mut ChaCha8Rng, max_len: usize) -> Vec<BlockId> {
    let len = rng.gen_range(1..=max_len.max(1));
    let mut out = Vec::with_capacity(len);
    out.push(BlockId::new(1));
    for _ in 1..len {
        out.push(BlockId::new(rng.gen_range(1..=4)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_generation_is_deterministic() {
        let a = CaseGen::new(ShapeConfig::default(), 7).events();
        let b = CaseGen::new(ShapeConfig::default(), 7).events();
        assert_eq!(a, b);
        let c = CaseGen::new(ShapeConfig::default(), 8).events();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn streams_start_with_root_enter_and_respect_budget() {
        for seed in 0..32 {
            let cfg = ShapeConfig::small();
            let max = cfg.max_events;
            let ev = CaseGen::new(cfg, seed).events();
            assert!(matches!(ev.first(), Some(WppEvent::Enter(_))));
            // Budget is a soft cap: each activation adds at most its
            // Enter/Exit pair past the cap.
            assert!(ev.len() <= max + 2 * 16, "len {} over budget", ev.len());
        }
    }

    #[test]
    fn sorted_timestamps_are_strictly_increasing_and_one_based() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..64 {
            let v = gen_sorted_timestamps(&mut rng, 64, 10_000, false);
            assert!(v.first().is_none_or(|&f| f >= 1));
            assert!(v.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn straddling_sets_cross_the_sign_boundary_sometimes() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut crossed = false;
        for _ in 0..128 {
            let v = gen_sorted_timestamps(&mut rng, 64, 0, true);
            assert!(v.windows(2).all(|w| w[0] < w[1]));
            if v.iter().any(|&x| x > i32::MAX as u32) && v.iter().any(|&x| x <= i32::MAX as u32)
            {
                crossed = true;
            }
        }
        assert!(crossed, "expected at least one set straddling i32::MAX");
    }
}
