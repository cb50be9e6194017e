//! ANN-as-a-service: a zero-dependency HTTP front-end over the
//! all-nearest-neighbor toolkit (ROADMAP item 1).
//!
//! The crate turns the in-process query API into a long-running network
//! service, hand-rolling the two protocol layers it needs — HTTP/1.1
//! framing ([`http`]) and JSON ([`ann_core::wire`]) — instead of adding
//! dependencies, in keeping with the rest of the repo.
//!
//! * [`registry`] — named on-disk collections (MBRQT or R*-tree over
//!   `D = 2` points), created/opened/dropped behind a process-wide map;
//! * [`server`] — the acceptor / connection-thread / bounded-worker-pool
//!   service with admission control (429 on overflow) and
//!   cancellation-on-disconnect;
//! * [`metrics`] — lock-free request counters and a log-scaled latency
//!   histogram served at `/metrics`;
//! * [`client`] — a minimal blocking client for tests, CI smoke checks,
//!   and the closed-loop serving benchmark.
//!
//! # Quickstart
//!
//! ```no_run
//! use ann_serve::server::{Server, ServerConfig};
//! use ann_serve::client::Client;
//! use ann_core::wire::QuerySpec;
//!
//! let server = Server::start(ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     data_dir: "ann-data".into(),
//!     ..ServerConfig::default()
//! })?;
//! let client = Client::new(server.addr().to_string());
//! client.create_collection("demo", "mbrqt", &[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])?;
//! let spec = QuerySpec { exclude_self: true, ..QuerySpec::default() };
//! let outcome = client.query("demo", &spec)?.outcome().expect("valid outcome");
//! assert_eq!(outcome.results.len(), 3);
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! The HTTP surface (all bodies JSON):
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /health` | liveness |
//! | `GET /metrics` | server counters + latency quantiles |
//! | `GET /collections` | list collection names |
//! | `POST /collections` | create + bulk-build (`{"id", "kind", "points"}`) |
//! | `GET /collections/{id}` | describe |
//! | `DELETE /collections/{id}` | drop (files deleted) |
//! | `POST /collections/{id}/insert` | append points (`{"points": [[x,y],...]}`), returns the new version |
//! | `POST /collections/{id}/query[?trace=1][&target=other][&version=N][&threads=T]` | run a [`QuerySpec`], optionally against pinned snapshot `N`, with up to `T` intra-query threads (compute-token capped) |
//! | `POST /admin/shutdown` | graceful shutdown |

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod client;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod server;

pub use client::{Client, Conn, HttpResponse};
pub use metrics::Metrics;
pub use registry::{ApiError, Collection, IndexKind, Registry, SERVE_DIMS};
pub use server::{ComputeTokenStats, Server, ServerConfig};

// The wire types the service speaks, re-exported so client code can
// depend on `ann_serve` alone.
pub use ann_core::wire::{
    CollectionId, ErrorCode, QueryOutcome, QuerySpec, WireError, WIRE_SCHEMA_VERSION,
};
