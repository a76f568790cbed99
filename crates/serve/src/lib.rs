//! `rat serve` — a resident analysis service for the RAT model pipeline.
//!
//! Every CLI invocation is a cold process: it re-parses TOML, rebuilds the
//! platform catalog, and starts with an empty simulator cache. This crate
//! keeps all of that warm in a long-running daemon and serves the five
//! analysis modes (`solve`, `sweep`, `uncertainty`, `explore`,
//! `sensitivity`) plus cached case-study simulation over a deliberately
//! tiny, hand-rolled HTTP/1.1 + JSON protocol on `std::net::TcpListener` —
//! no framework, no async runtime, no new dependencies.
//!
//! The architecture is a stack of small layers:
//!
//! * [`http`] — request framing: a strict HTTP/1.1 reader (request line,
//!   headers, `Content-Length` body) and response writer over a persistent
//!   [`http::Connection`] that loops requests per socket (keep-alive by
//!   default under HTTP/1.1, honoring `Connection:` overrides) and carries
//!   pipelined bytes between them.
//! * [`api`] — the analysis surface: request JSON in, the **same rendered
//!   report text the CLI prints** out, wrapped in JSON. Both the CLI and the
//!   server call the same `*_report` functions here, which is what makes the
//!   differential parity suite's byte-identity contract hold by
//!   construction rather than by luck. The [`RatError`] taxonomy maps onto
//!   HTTP status codes exactly the way it maps onto CLI exit codes; see
//!   [`api::http_status`].
//! * [`keys`] — content-addressed digests of requests: a byte-exact raw
//!   tier and a canonicalized parsed tier, both 128-bit FNV via the
//!   `fpga-sim` digest scheme.
//! * [`respcache`] — the rendered-response cache those keys index, 16-way
//!   sharded with an LRU byte budget and single-flight dedup: a thundering
//!   herd of identical requests computes once.
//! * [`coalesce`] — cross-request solve batching: concurrent `/v1/solve`
//!   computations drain into one batched evaluation whose per-request
//!   answers are bit-identical to the solo path.
//! * [`server`] — the daemon: an acceptor thread feeding a bounded
//!   connection queue (backpressure → `503`), N worker threads each owning
//!   a warm [`rat_core::engine::Engine`] and looping requests on kept-alive
//!   connections, graceful drain on `POST /shutdown` or SIGINT/SIGTERM
//!   (in-flight requests complete, the write-behind simulator cache is
//!   flushed to disk), and a plaintext `GET /metrics` endpoint with
//!   per-request latency histograms.
//! * [`loadgen`] — the `rat bench --serve` load generator: fires mixed
//!   keep-alive load (with duplicate phases) at an in-process server plus a
//!   close-per-request baseline, records RPS, tail latency, connection
//!   reuse, and the warm-vs-cold CLI ratio checked into `BENCH_10.json`.
//!
//! [`RatError`]: rat_core::RatError

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod api;
pub mod coalesce;
pub mod http;
pub mod keys;
pub mod loadgen;
pub mod metrics;
mod queue;
pub mod respcache;
pub mod server;

pub use server::{ServeConfig, ServeSummary, Server, ServerHandle};
