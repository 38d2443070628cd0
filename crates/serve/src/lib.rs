//! Persistent synthesis service.
//!
//! A long-running server that accepts synthesis jobs over a Unix or TCP
//! socket, speaking line-delimited JSON: one request object per line in,
//! one response object per line out. Each response body is the report
//! `sisyn OP --json` prints — both surfaces build it with [`report`] —
//! inside a volatile envelope: `cache_hit`, `job_ms`, per-run artifact
//! counters and the current store/queue statistics.
//!
//! What makes the server worth keeping alive is the **content-addressed
//! artifact store** ([`ArtifactStore`]): specs are canonicalized
//! ([`si_stg::canonical_g`]) and hashed, and every expensive intermediate
//! — the reachability summary, each signal's derived cover clusters, the
//! finished response — is stored under a content/fingerprint key, in
//! memory up to a byte budget and spilled to disk beyond it. A repeated
//! request is answered without building anything; an edit to one signal
//! of a spec re-derives only the covers whose fingerprints changed, with
//! [`si_core::revalidate_clusters`] re-checking every reused artifact
//! against the current context so reuse stays sound whatever the cache
//! says. Jobs run on a bounded worker pool ([`JobQueue`]) with
//! panic-isolated execution, and SIGINT drains in-flight work before the
//! server exits.
//!
//! Layering: [`json`] (wire values) → [`report`] (options, pipelines and
//! reports, shared with the `sisyn` CLI) → [`store`] (artifacts) →
//! [`queue`] (execution) → [`service`] (request semantics) → [`server`] /
//! [`client`] (sockets) → [`cli`] (the `sisyn serve` / `sisyn submit`
//! subcommands).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod client;
pub mod json;
pub mod queue;
pub mod report;
pub mod server;
pub mod service;
pub mod store;

pub use client::submit_lines;
pub use queue::{JobQueue, QueueStats};
pub use server::{serve, ServerConfig};
pub use service::{envelope, Request, Response, Service};
pub use store::{ArtifactStore, StoreStats};
