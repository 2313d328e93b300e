//! **twpp-dataflow** — profile-limited data flow analysis over timestamped
//! whole program paths (§4 of the paper).
//!
//! Provides:
//!
//! * [`DynCfg`] — the timestamp-annotated dynamic control flow graph
//!   (§4.1), the representation all analyses run on;
//! * [`query`] — demand-driven backward GEN-KILL queries (§4.2): a sweep
//!   over the GEN/KILL projection of the dynamic CFG, the paper's
//!   propagation with compacted timestamp vectors as its reference, and a
//!   naive replay oracle;
//! * [`reachdefs`] — classic static reaching definitions (the static side
//!   of Table 6's comparison and the PDG for slicing approach 1);
//! * [`redundancy`] — dynamic load-redundancy degrees for profile-guided
//!   optimization (Figure 9);
//! * [`interproc`] — per-callee `GEN_f`/`KILL_f` effect summaries derived
//!   from the compacted TWPP, so queries account for calls;
//! * [`interslice`] — interprocedural precise dynamic slicing across the
//!   dynamic call graph (the extension §4.2 sketches);
//! * [`optimize`] — the §4.3.1 optimizer driver: ranked redundant-load
//!   candidates weighted by hot-path frequencies;
//! * [`slicing`] — the three Agrawal–Horgan dynamic slicing algorithms on
//!   one common representation (Figures 10 and 11);
//! * [`currency`] — dynamic currency determination for debugging optimized
//!   code (Figure 12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod currency;
pub mod dyncfg;
pub mod facts;
pub mod interproc;
pub mod interslice;
pub mod optimize;
pub mod query;
pub mod reach;
pub mod reachdefs;
pub mod redundancy;
pub mod slicing;

pub use currency::{currency_of, AssignTag, AssignTags, Currency};
pub use dyncfg::{dyn_cfgs_of, DynCfg, DynNode};
pub use facts::{AvailableLoad, Defined, Effect, GenKillFact};
pub use interproc::{CallSummaries, WithCallEffects};
pub use interslice::{InterCriterion, InterSliceOutcome, InterSlicer, SlicePoint};
pub use optimize::{all_redundant_load_candidates, redundant_load_candidates, LoadCandidate};
pub use query::{
    node_effects, solve_backward, solve_backward_effects_governed, solve_backward_governed,
    solve_by_propagation, solve_by_replay, solve_by_replay_effects_governed,
    solve_by_replay_governed, QueryOutcome, QueryResult,
};
pub use reach::{backward_reach_governed, block_effects, ReachOutcome};
pub use reachdefs::ReachingDefs;
pub use redundancy::{load_redundancy, load_redundancy_for, loads_in, RedundancyReport};
pub use slicing::{Approach, Criterion, SliceOutcome, Slicer};
