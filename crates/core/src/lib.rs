//! **twpp** — Timestamped Whole Program Path representation.
//!
//! Reproduction of Zhang & Gupta, *"Timestamped Whole Program Path
//! Representation and its Applications"* (PLDI 2001): compaction of whole
//! program paths into per-function path-trace blocks linked by a dynamic
//! call graph, the timestamped (TWPP) form, and an archive format giving
//! millisecond access to the traces of any single function.
//!
//! The pipeline (one module per paper transformation):
//!
//! 1. [`partition`](partition::partition) — WPP → per-call path traces +
//!    dynamic call graph ([`Dcg`]).
//! 2. [`eliminate_redundancy`] — drop duplicate path traces of each
//!    function.
//! 3. [`compact_trace`] — dynamic-basic-block dictionaries.
//! 4. [`TimestampedTrace`] — invert `timestamp -> block` into
//!    `block -> timestamp set`.
//! 5. [`TsSet`] — arithmetic-series compaction of the timestamp sets with
//!    the sign-delimited wire format.
//! 6. [`lzw`] — LZW compression of the serialized DCG.
//! 7. [`TwppArchive`] — the on-disk container with a frequency-ordered
//!    function index (Table 4's fast per-function access).
//!
//! Use [`pipeline::compact`] for the whole thing at once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod bitcodec;
pub mod cache;
pub mod daemon;
pub mod dbb;
pub mod dcg;
pub mod dedup;
pub mod gov;
pub mod ingest;
pub mod lazy;
pub mod lzw;
pub mod net;
pub mod obs;
pub mod par;
pub mod partition;
pub mod pipeline;
pub mod recovery;
pub mod timestamped;
pub mod trace;
pub mod tsset;

pub use archive::{ArchiveError, ArchiveWriter, Durability, FunctionRecord, TwppArchive};
pub use bitcodec::{BitCodecError, BitReader, BitWriter};
pub use cache::{ByteLruCache, CacheStats, FrameCache, DEFAULT_FRAME_CACHE_BYTES};
pub use dbb::{compact_trace, CompactedTrace, DbbDictionary};
pub use dcg::{Dcg, DcgNode, DcgNodeId};
pub use dedup::{eliminate_redundancy, eliminate_redundancy_threads, RedundancyStats};
pub use gov::{Budget, CancelToken, FaultPlan, Limits, Retry, RetryExhausted, StopReason};
pub use obs::{
    parse_prometheus_text, validate_report_json, FlightRecorder, LogLevel, Logger,
    MetricsSnapshot, Obs, PromFamily, RateEstimator, RunOutcome, RunReport,
    REPORT_SCHEMA_VERSION,
};
pub use par::{default_threads, resolve_threads, WorkerReport};
pub use ingest::{Compactor, FinishReport, IngestError, IngestOptions, ResumeReport, WalError};
pub use lazy::LazyArchive;
pub use partition::{partition, PartitionError, PartitionedWpp};
pub use pipeline::{
    compact, compact_governed, CompactedTwpp, DegradedReport, FailedFunction, FunctionOutcome,
    GovOptions, PipelineError, PipelineStats, StageTimings,
};
pub use recovery::{FunctionVerdict, RecoveryReport, RegionStatus, SalvageStrategy};
pub use timestamped::{Codec, TimestampedTrace};
pub use trace::PathTrace;
pub use tsset::{SeriesEntry, TsSet, TsSetError};
