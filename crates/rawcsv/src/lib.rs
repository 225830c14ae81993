//! # nodb-rawcsv — the raw-file substrate
//!
//! Everything the NoDB vision needs from flat files, built from scratch:
//!
//! * [`tokenizer`] — the two-phase, predicate-pushing, positional-map-aware
//!   CSV tokenizer (the paper's adaptive loading operator, §3.2), in two
//!   shapes: the morsel-driven scan ([`scan_morsels`]) that feeds
//!   [`nodb_types::MorselBatch`]es to per-worker consumers (the fused
//!   cold pipeline in `nodb-exec` / `nodb-core`), and merged scans
//!   ([`scan_bytes`]) that collect its morsels in row order;
//! * [`posmap`] — the adaptive positional map accumulating row/field byte
//!   offsets as a side effect of every scan (§4.1.5);
//! * [`split`] — dynamic file splitting, a.k.a. "file cracking" (§4):
//!   per-column segment files produced while tokenizing, tracked in a
//!   [`split::SegmentCatalog`];
//! * [`schema`] — automatic schema discovery on first touch (§5.6);
//! * [`gen`] — workload generators reproducing the paper's unique-integer
//!   tables without materialising permutations in memory.

pub mod bytes;
pub mod gen;
pub mod posmap;
pub mod schema;
pub mod split;
pub mod tokenizer;

pub use posmap::PositionalMap;
pub use schema::{infer_file, infer_from_bytes, InferredSchema};
pub use split::{Segment, SegmentCatalog};
pub use tokenizer::{
    read_file, scan_bytes, scan_file, scan_morsels, CsvOptions, Morsel, ScanOutput, ScanSpec,
};
