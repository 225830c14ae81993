//! Core types shared by every crate of the `nodb` engine.
//!
//! This crate is the dependency root of the workspace. It defines:
//!
//! * [`Value`] / [`DataType`] — the scalar value model (64-bit ints, 64-bit
//!   floats, UTF-8 strings, SQL-style nulls),
//! * [`Schema`] / [`Field`] — table schemas,
//! * [`Error`] / [`Result`] — the error type used across the engine,
//! * [`predicate`] — column predicates and conjunctions, the currency in
//!   which queries communicate their needs to the adaptive loader,
//! * [`interval`] — interval algebra used by the adaptive store's
//!   table-of-contents to describe which value ranges of a column have been
//!   loaded (paper §3.1.3, "a tree structure that organizes the data parts of
//!   each column based on values"),
//! * [`counters`] — work counters (bytes read, fields tokenized, ...) that
//!   make the benchmark "shape" claims auditable,
//! * [`morsel`] — the shared morsel-stealing driver ([`drive_morsels`],
//!   ordered form [`run_morsels`]) every row-parallel loop (tokenizer
//!   morsels, file splitting, post-load operator morsels) schedules
//!   through, and the [`MorselBatch`] unit of work the fused
//!   cold pipeline passes from the tokenizer (`nodb-rawcsv`) to the
//!   operators (`nodb-exec`),
//! * [`cancel`] — cooperative query cancellation: a [`CancelToken`]
//!   installed ambiently per thread via [`CancelScope`], polled by the
//!   morsel driver at every steal and by serial loops via
//!   [`CancelCheck`],
//! * [`failpoints`] — a std-only fault-injection registry (zero-cost
//!   when disarmed) used by robustness tests to inject errors, delays,
//!   and panics mid-pipeline,
//! * [`resource`] — per-query memory governance: a [`MemoryGuard`]
//!   allocation meter installed ambiently via [`MemoryScope`] (like
//!   [`CancelScope`]), reserving from an engine-wide [`MemoryPool`]
//!   whose degradation ladder runs before any query is shed with
//!   [`Error::ResourceExhausted`],
//! * [`profile`] — query-level observability: a [`ProfileSink`] phase
//!   timer installed ambiently via [`ProfileScope`] (one thread-local
//!   read when off), folding per-worker morsel aggregates into a
//!   [`QueryProfile`], plus the [`LatencyHistogram`] the wire server
//!   uses for per-opcode latency percentiles.

pub mod cancel;
pub mod column;
pub mod counters;
pub mod error;
pub mod failpoints;
pub mod interval;
pub mod morsel;
pub mod predicate;
pub mod profile;
pub mod resource;
pub mod schema;
pub mod value;

pub use cancel::{CancelCheck, CancelScope, CancelToken};
pub use column::ColumnData;
pub use counters::{CountersSnapshot, WorkCounters};
pub use error::{Error, Result};
pub use interval::{Bound, Interval, IntervalSet};
pub use morsel::{
    drive_morsels, morsel_count, run_morsels, run_morsels_with, MorselBatch, MorselRange,
    DEFAULT_MORSEL_ROWS,
};
pub use predicate::{CmpOp, ColPred, Conjunction, SelectionBox};
pub use profile::{
    CacheOutcome, LatencyHistogram, Phase, ProfileHandle, ProfileScope, ProfileSink, QueryProfile,
};
pub use resource::{MemoryGuard, MemoryPool, MemoryScope};
pub use schema::{Field, Schema};
pub use value::{DataType, Value};
