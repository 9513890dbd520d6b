//! `sapla-serve` — a std-only, long-lived TCP similarity-search daemon
//! over the sharded [`sapla_index::Engine`].
//!
//! # Architecture
//!
//! ```text
//!  clients ──TCP──► accept thread ──► per-connection threads
//!                                         │  (decode frame, prepare
//!                                         │   queries, enqueue job)
//!                                         ▼
//!                        admission queue (Mutex<VecDeque> + Condvar)
//!                               │                     │
//!                               ▼                     ▼
//!                          executor 0       …    executor E−1
//!                   E = max(1, cores / threads) of them; each takes
//!                   ⌈pending / E⌉ jobs (FIFO), groups them by k, makes
//!                   one Engine::knn call per group (the engine fans
//!                   (query, shard) pairs over `threads` workers of its
//!                   work-stealing pool) and splits the replies
//! ```
//!
//! One queue, `E` executors: as many as fit the hardware when every
//! engine call uses [`ServerConfig::threads`] workers, so engine
//! concurrency is bounded by the cores, not by the connection count. A
//! lone request starts at once on an idle executor; cohorts form only
//! under a backlog, when queries that happen to be waiting together ride
//! one [`sapla_index::Engine::knn`] call. Because per-query kNN answers
//! are independent of which cohort they ride in (the engine merges per
//! query, deterministically), the server is **bit-identical** to the
//! single-process `Engine::knn` path at any `E` — the loopback tests pin
//! this.
//!
//! Reloads swap an `Arc<Engine>` inside an `RwLock`: in-flight queries
//! keep the `Arc` they started with, so a snapshot reload never drops
//! or blocks running work.
//!
//! # Wire protocol
//!
//! Little-endian, length-prefixed frames on a plain TCP stream:
//!
//! ```text
//! frame    := len:u32 payload[len]                  (len ≤ max_frame ≤ 256 MiB)
//! request  := opcode:u8 body
//!   KNN      (0x01) := k:u32 nq:u32 series{nq}      series := n:u32 f64{n}
//!   RANGE    (0x02) := epsilon:f64 series
//!   STATS    (0x03) := —
//!   SNAPSHOT (0x04) := —
//!   RELOAD   (0x05) := blen:u32 blob[blen]          (a sapla-store image;
//!                                                    blen = 0 ⇒ re-read the
//!                                                    configured index file)
//!   SHUTDOWN (0x06) := —
//!   METRICS  (0x07) := format:u8                    (0 = JSON, 1 = text)
//! response := status:u8 body
//!   status 1 (error) := mlen:u32 utf8[mlen]
//!   KNN ok   := nq:u32 { n:u32 (id:u64 dist:f64){n} measured:u64 }{nq}
//!               batch_measured:u64 batch_candidates:u64
//!   RANGE ok := n:u32 (id:u64 dist:f64){n} measured:u64
//!   STATS ok := jlen:u32 utf8[jlen]                 (JSON document)
//!   SNAPSHOT ok := blen:u32 blob[blen]              (sapla-store image)
//!   RELOAD ok   := records:u64
//!   SHUTDOWN ok := —
//!   METRICS ok  := tlen:u32 utf8[tlen]              (JSON or Prometheus-
//!                                                    style text document)
//! ```
//!
//! Malformed frames, non-finite samples, engine failures, a refused
//! reload image, or a response larger than [`ServerConfig::max_frame`]
//! produce an error *response* on that request; the connection stays
//! usable. Only a frame the peer never completes (socket death) or a
//! request over the cap ends a connection.

mod client;
mod metrics;
mod server;
mod wire;

pub use client::Client;
pub use server::{Server, ServerConfig};
pub use wire::{KnnResponse, KnnResult, MetricsFormat, RangeResponse, MAX_FRAME};

/// Failures surfaced to embedders and clients of the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, connect, read, write).
    Io(std::io::Error),
    /// Engine or codec failure while building the served index.
    Core(sapla_core::Error),
    /// A protocol violation, or an error response from the server
    /// (carrying the server's message).
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Core(e) => write!(f, "engine error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Core(e) => Some(e),
            ServeError::Protocol(_) => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<sapla_core::Error> for ServeError {
    fn from(e: sapla_core::Error) -> Self {
        ServeError::Core(e)
    }
}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
