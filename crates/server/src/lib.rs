//! **twpp-server** — a multi-tenant query server over an archive fleet.
//!
//! The paper's whole-program-path queries (§4) have so far been
//! one-shot: open an archive, answer, exit. This crate turns them into
//! a *service*: a directory of `*.twpa` archives is served as a fleet
//! over the framed [`twpp::net`] protocol (TCP or Unix socket), each
//! archive opened lazily at O(footer) cost and its decoded frames kept
//! in one shared byte-capped LRU so hundreds of tenants fit in a
//! bounded memory envelope.
//!
//! The layering:
//!
//! * [`answer`] — the request semantics. One function per verb
//!   (`Query`/`Slice`/`Currency`) producing an [`twpp::net::Answer`]
//!   whose `text` is byte-identical to the local CLI's stdout; the
//!   local commands, the daemon and the conformance oracle all call
//!   these, so remote equivalence holds by construction.
//! * [`fleet`] — tenant registry: scan/rescan of the fleet root, the
//!   shared frame cache and the answer-summary cache, with per-uid
//!   invalidation when archives change or vanish.
//! * [`serve`](mod@serve) — the daemon: a [`twpp::daemon::Handler`]
//!   with admission control (`Busy`), per-request budgets and the
//!   fleet's `/status` section and gauges, run on the skeleton it
//!   shares with `twpp serve-ingest` (accept loop, per-connection
//!   workers, quarantine of garbage connections, drain, and the
//!   `/metrics`–`/status`–`/healthz` admin plane); plus
//!   [`InProcServer`] for socket-free testing.
//! * [`client`] — the blocking client used by `twpp query --remote`,
//!   `twpp serve-bench` and the e2e drills; it connects through
//!   [`twpp::daemon::connect`].
//!
//! See DESIGN.md §19 for the wire grammar of the serve verbs and the
//! cache-invalidation rules.

pub mod answer;
pub mod client;
pub mod fleet;
pub mod serve;

pub use answer::{
    answer_currency_req, answer_query_req, answer_slice_req, currency_answer, degraded_message,
    query_answer, slice_answer, stop_code, stop_reason, AnswerError,
};
pub use client::{Client, ClientError};
pub use fleet::{Fleet, ScanDelta, Tenant, DEFAULT_SUMMARY_CACHE_BYTES};
pub use serve::{
    serve, InProcServer, ServeError, ServeOptions, ServeReport,
};
