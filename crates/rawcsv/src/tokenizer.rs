//! Two-phase, predicate-pushing, positional-map-aware CSV tokenizer.
//!
//! This is the paper's adaptive loading operator (§3.2) as a library. It
//! reads a [`Source`] — bytes in memory or the raw file itself — one byte
//! range at a time, never the whole file at once:
//!
//! * **Phase 1** locates row boundaries in one block-parallel pass. Each
//!   fixed-size block records its newlines split by the quote parity seen
//!   since its first byte; a prefix XOR of the block parities gives every
//!   block its exact entry state, so quoted and unquoted files take the
//!   same parallel path. The result is cached in the [`PositionalMap`] so
//!   newline scanning happens at most once per file.
//! * **Phase 2** reads each morsel's rows on its worker and walks each row
//!   only as far as the *maximum referenced column* ("once all required
//!   columns are found the tokenization for this row can stop"), starts
//!   from the best positional-map hint instead of column 0 when one
//!   exists, evaluates pushed-down predicates the moment their column is
//!   parsed, and abandons the row on the first failing predicate ("we
//!   abandon the tokenization of a row as soon as a predicate fails").
//!
//! Everything the scan learns about row/field positions is recorded back
//! into the positional map as a side effect — the paper's "file cracking"
//! learning loop (§4.1.5).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Mutex;

use nodb_types::profile::{self, Phase};
use nodb_types::{
    ColumnData, Conjunction, DataType, Error, Result, Schema, Value, WorkCounters,
    DEFAULT_MORSEL_ROWS,
};

use crate::bytes::{find_byte, find_byte2, find_byte3, parse_f64_bytes, parse_i64_bytes};
use crate::posmap::{PositionalMap, UNKNOWN};
use crate::source::{ReadBuf, Source, BLOCK_LOOKAHEAD};

/// CSV dialect and scan-execution options.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: u8,
    /// Quote character enabling RFC-4180-style quoting, or `None` for the
    /// fast unquoted path (the paper's numeric workloads).
    pub quote: Option<u8>,
    /// Worker threads for tokenization (1 = serial). Both phases run
    /// on this many workers, quoted or not. When these
    /// options live inside an `EngineConfig`, `Engine::new` overwrites
    /// this field with the engine-wide `threads` knob — set that instead.
    pub threads: usize,
    /// When true, rows with fewer fields than referenced columns yield
    /// NULLs; when false they are a parse error.
    pub lenient: bool,
    /// Skip blank lines entirely (default). Single-column split files set
    /// this to `false` so an empty line reads back as a NULL row, keeping
    /// rowids aligned with the original file.
    pub skip_blank_rows: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: b',',
            quote: None,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            lenient: false,
            skip_blank_rows: true,
        }
    }
}

/// What a scan should produce.
#[derive(Debug, Clone)]
pub struct ScanSpec<'a> {
    /// Table schema (typing for parsed columns).
    pub schema: &'a Schema,
    /// Column ordinals to parse and return.
    pub needed: Vec<usize>,
    /// Predicates pushed down into tokenization. Their columns are
    /// tokenized/parsed even if not in `needed`.
    pub pushdown: Option<&'a Conjunction>,
}

/// Result of a scan: per-column data for qualifying rows, plus their rowids.
#[derive(Debug)]
pub struct ScanOutput {
    /// Parsed columns, keyed by ordinal, rows aligned with `rowids`.
    pub columns: BTreeMap<usize, ColumnData>,
    /// Qualifying row ids (all rows when no pushdown), ascending.
    pub rowids: Vec<u64>,
    /// Total data rows in the file.
    pub rows_scanned: u64,
}

impl ScanOutput {
    /// Number of qualifying rows.
    pub fn num_rows(&self) -> usize {
        self.rowids.len()
    }
}

/// Read a whole file, counting the bytes and the trip. Scans never need
/// this (they read a [`Source`] range by range); it feeds split-file
/// cracking, which rewrites a whole segment.
pub fn read_file(path: &Path, counters: &WorkCounters) -> Result<Vec<u8>> {
    nodb_types::failpoints::trip("rawcsv.read_file")?;
    let mut f = File::open(path)?;
    let mut buf = Vec::with_capacity(f.metadata().map(|m| m.len() as usize).unwrap_or(0));
    f.read_to_end(&mut buf)?;
    counters.add_bytes_read(buf.len() as u64);
    counters.add_file_trip();
    Ok(buf)
}

/// Scan a file on disk, reading it range by range. See [`scan_source`].
pub fn scan_file(
    path: &Path,
    opts: &CsvOptions,
    spec: &ScanSpec<'_>,
    posmap: Option<&mut PositionalMap>,
    counters: &WorkCounters,
) -> Result<ScanOutput> {
    let source = Source::open(path, 0, counters)?;
    scan_source(&source, opts, spec, posmap, counters)
}

/// Scan in-memory CSV bytes. See [`scan_source`].
pub fn scan_bytes(
    bytes: &[u8],
    opts: &CsvOptions,
    spec: &ScanSpec<'_>,
    posmap: Option<&mut PositionalMap>,
    counters: &WorkCounters,
) -> Result<ScanOutput> {
    scan_source(&Source::bytes(bytes), opts, spec, posmap, counters)
}

/// Scan a source, producing qualifying rows for the requested columns and
/// recording structural knowledge into `posmap` (if given). This is
/// [`scan_morsels`] at [`DEFAULT_MORSEL_ROWS`] with the morsels merged in
/// row order.
pub fn scan_source(
    source: &Source<'_>,
    opts: &CsvOptions,
    spec: &ScanSpec<'_>,
    posmap: Option<&mut PositionalMap>,
    counters: &WorkCounters,
) -> Result<ScanOutput> {
    // Phase-2 wall time on the coordinating thread: the morsels run
    // strictly inside this region, and the merge below belongs to it too
    // (phase 1 nests inside and keeps its own, exclusive time).
    let _p2 = profile::phase(Phase::Tokenize2);
    let morsels = Mutex::new(Vec::new());
    let rows_scanned = scan_morsels(
        source,
        opts,
        spec,
        posmap,
        counters,
        DEFAULT_MORSEL_ROWS,
        &|_worker, m| {
            morsels.lock().expect("morsels mutex").push(m);
            Ok(())
        },
    )?;
    let mut morsels = morsels.into_inner().expect("morsels mutex");
    morsels.sort_by_key(|m| m.index);

    let n_out = morsels.iter().map(|m| m.rowids.len()).sum();
    let mut rowids: Vec<u64> = Vec::with_capacity(n_out);
    let mut columns: Vec<ColumnData> = spec
        .needed
        .iter()
        .map(|&c| {
            ColumnData::with_capacity(spec.schema.field(c).expect("validated").data_type, n_out)
        })
        .collect();
    for m in morsels {
        rowids.extend(m.rowids);
        for (dst, src) in columns.iter_mut().zip(m.columns) {
            dst.append(src)?;
        }
    }
    Ok(ScanOutput {
        columns: spec.needed.iter().copied().zip(columns).collect(),
        rowids,
        rows_scanned,
    })
}

/// Validate every referenced column ordinal against the schema.
fn validate_spec(spec: &ScanSpec<'_>) -> Result<()> {
    let ncols = spec.schema.len();
    for &c in &spec.needed {
        if c >= ncols {
            return Err(Error::schema(format!(
                "scan references column ordinal {c} but schema has {ncols} columns"
            )));
        }
    }
    if let Some(p) = spec.pushdown {
        for c in p.columns() {
            if c >= ncols {
                return Err(Error::schema(format!(
                    "pushdown references column ordinal {c} but schema has {ncols} columns"
                )));
            }
        }
    }
    Ok(())
}

/// Phase-1 row boundaries, served from the positional map when still valid
/// for this source and recorded back into it otherwise.
fn phase1_row_starts(
    source: &Source<'_>,
    opts: &CsvOptions,
    posmap: &mut Option<&mut PositionalMap>,
) -> Result<std::sync::Arc<Vec<u64>>> {
    // Phase-1 time (one thread-local read when profiling is off). A
    // posmap-served call still counts a hit — its near-zero duration is
    // the observation.
    let _p = profile::phase(Phase::Tokenize1);
    let len = source.len() as u64;
    match posmap
        .as_ref()
        .and_then(|m| (m.file_len() == len).then(|| m.row_starts()).flatten())
    {
        Some(cached) => Ok(cached),
        None => {
            let starts = row_starts(source, opts)?;
            if let Some(m) = posmap.as_deref_mut() {
                m.set_row_starts(starts, len);
                Ok(m.row_starts().expect("just set"))
            } else {
                Ok(std::sync::Arc::new(starts))
            }
        }
    }
}

/// Touch plan: every column the scan must locate, ascending, deduplicated.
fn touch_plan(spec: &ScanSpec<'_>) -> Vec<usize> {
    let mut touch: Vec<usize> = spec.needed.clone();
    if let Some(p) = spec.pushdown {
        touch.extend(p.columns());
    }
    touch.sort_unstable();
    touch.dedup();
    touch
}

/// Pre-group pushdown predicates by column, in file order.
fn group_pushdown<'a>(spec: &ScanSpec<'a>) -> BTreeMap<usize, Vec<&'a nodb_types::ColPred>> {
    match spec.pushdown {
        Some(p) if !p.preds.is_empty() => {
            let mut m: BTreeMap<usize, Vec<&nodb_types::ColPred>> = BTreeMap::new();
            for pred in &p.preds {
                m.entry(pred.col).or_default().push(pred);
            }
            m
        }
        _ => BTreeMap::new(),
    }
}

/// Which columns should have offsets recorded into the posmap: every
/// column the scan may walk past that is not already fully covered.
fn record_columns(posmap: Option<&PositionalMap>, max_touch: usize) -> Vec<usize> {
    match posmap {
        Some(m) => (0..=max_touch).filter(|&c| m.coverage(c) < 1.0).collect(),
        None => Vec::new(),
    }
}

/// Shared read-only context for phase-2 workers.
struct ScanCtx<'a> {
    row_starts: &'a [u64],
    opts: &'a CsvOptions,
    schema: &'a Schema,
    needed: &'a [usize],
    touch: &'a [usize],
    max_touch: usize,
    preds_by_col: &'a BTreeMap<usize, Vec<&'a nodb_types::ColPred>>,
    record_cols: &'a [usize],
    posmap: Option<&'a PositionalMap>,
    /// The query's cancel token and memory guard, captured on the entry
    /// thread: phase-2 workers run on scope threads where the ambient
    /// scopes are invisible. The guard is charged for each worker's read
    /// buffer.
    cancel: Option<nodb_types::CancelToken>,
    memory: Option<nodb_types::MemoryGuard>,
}

/// Per-chunk output buffers.
struct ChunkOut {
    first_row: usize,
    builders: Vec<ColumnData>, // parallel to ctx.needed
    rowids: Vec<u64>,
    recordings: Vec<(usize, Vec<u32>)>,
    counters: LocalCounters,
}

/// Unsynchronised counters, flushed to the shared atomics once per chunk.
#[derive(Default)]
struct LocalCounters {
    rows_tokenized: u64,
    fields_tokenized: u64,
    values_parsed: u64,
    rows_abandoned: u64,
}

impl LocalCounters {
    fn absorb(&mut self, o: &LocalCounters) {
        self.rows_tokenized += o.rows_tokenized;
        self.fields_tokenized += o.fields_tokenized;
        self.values_parsed += o.values_parsed;
        self.rows_abandoned += o.rows_abandoned;
    }

    fn flush(&self, c: &WorkCounters) {
        c.add_rows_tokenized(self.rows_tokenized);
        c.add_fields_tokenized(self.fields_tokenized);
        c.add_values_parsed(self.values_parsed);
        c.add_rows_abandoned(self.rows_abandoned);
    }
}

/// Phase-2 kernel: walk rows `[lo, hi)`, whose bytes `rows` start at
/// source offset `row_starts[lo]` and run to the next row start (or the end
/// of the source).
fn scan_row_range(ctx: &ScanCtx<'_>, rows: &[u8], lo: usize, hi: usize) -> Result<ChunkOut> {
    nodb_types::failpoints::trip("rawcsv.morsel")?;
    let mut cancel_check = nodb_types::CancelCheck::with_token(ctx.cancel.clone());
    let n = hi - lo;
    // Without pushdown every row qualifies — size builders exactly.
    let cap = if ctx.preds_by_col.is_empty() {
        n
    } else {
        n / 4
    };
    let mut out = ChunkOut {
        first_row: lo,
        builders: ctx
            .needed
            .iter()
            .map(|&c| {
                ColumnData::with_capacity(ctx.schema.field(c).expect("validated").data_type, cap)
            })
            .collect(),
        rowids: Vec::new(),
        recordings: ctx
            .record_cols
            .iter()
            .map(|&c| (c, vec![UNKNOWN; n]))
            .collect(),
        counters: LocalCounters::default(),
    };
    // Map column ordinal -> slot in recordings, for O(1) recording.
    let mut record_slot = vec![usize::MAX; ctx.max_touch + 1];
    for (slot, &(c, _)) in out.recordings.iter().enumerate() {
        record_slot[c] = slot;
    }
    // Map column ordinal -> slot in needed.
    let mut needed_slot = vec![usize::MAX; ctx.max_touch + 1];
    for (slot, &c) in ctx.needed.iter().enumerate() {
        needed_slot[c] = slot;
    }
    let touch_mask = {
        let mut m = vec![false; ctx.max_touch + 1];
        for &c in ctx.touch {
            m[c] = true;
        }
        m
    };
    let first_touch = *ctx.touch.first().expect("nonempty");
    // Resolve positional-map candidates once per chunk instead of running a
    // BTreeMap range query per row: columns ≤ first_touch with recorded
    // offsets, best (largest) first.
    let hint_candidates: Vec<(usize, &[u32])> = match ctx.posmap {
        Some(m) => m
            .known_columns()
            .into_iter()
            .filter(|&c| c <= first_touch)
            .rev()
            .filter_map(|c| m.col_offsets(c).map(|offs| (c, offs)))
            .collect(),
        None => Vec::new(),
    };

    let mut stash: Vec<Value> = vec![Value::Null; ctx.needed.len()];
    let base = ctx.row_starts[lo];

    'rows: for row in lo..hi {
        cancel_check.tick(1)?;
        let start = (ctx.row_starts[row] - base) as usize;
        // The row's bytes run to the next row start (or the end of the
        // range); the field walker treats '\n'/'\r' as terminators, so
        // embedded trailing newlines (and any skipped empty lines) never
        // need trimming here.
        let next = if row + 1 < hi {
            (ctx.row_starts[row + 1] - base) as usize
        } else {
            rows.len()
        };
        let rowb = &rows[start..next];
        out.counters.rows_tokenized += 1;

        // Start from the best positional-map hint.
        let (mut col, mut pos) = hint_candidates
            .iter()
            .find_map(|&(c, offs)| match offs.get(row) {
                Some(&o) if o != UNKNOWN => Some((c, (o as usize).min(rowb.len()))),
                _ => None,
            })
            .unwrap_or((0, 0));
        for v in stash.iter_mut() {
            *v = Value::Null;
        }
        let mut qualified = true;
        let mut short_row = false;

        loop {
            if col <= ctx.max_touch {
                let slot = record_slot.get(col).copied().unwrap_or(usize::MAX);
                if slot != usize::MAX {
                    out.recordings[slot].1[row - lo] = pos as u32;
                }
            }
            let fe = field_end(rowb, pos, ctx.opts.delimiter, ctx.opts.quote);
            out.counters.fields_tokenized += 1;

            if touch_mask.get(col).copied().unwrap_or(false) {
                let raw = &rowb[pos..fe];
                let ty = ctx.schema.field(col).expect("validated").data_type;
                let needs_value = needed_slot[col] != usize::MAX;
                let preds = ctx.preds_by_col.get(&col);
                if needs_value || preds.is_some() {
                    out.counters.values_parsed += 1;
                    // Typed fast paths: numeric fields go straight from
                    // bytes to i64/f64 and predicates are checked on the
                    // scalar — no UTF-8 validation, no `String`, and no
                    // `Value` boxing for pushdown-only columns.
                    let q = ctx.opts.quote;
                    let row_col_err =
                        |e: Error| Error::parse(format!("row {row}, column {col}: {e}"));
                    match ty {
                        DataType::Int64 => match parse_i64_field(raw, q).map_err(row_col_err)? {
                            Some(x) => {
                                if let Some(preds) = preds {
                                    if !preds.iter().all(|p| p.matches_i64(x)) {
                                        out.counters.rows_abandoned += 1;
                                        qualified = false;
                                        break;
                                    }
                                }
                                if needs_value {
                                    stash[needed_slot[col]] = Value::Int(x);
                                }
                            }
                            None => {
                                // NULL never satisfies a predicate.
                                if preds.is_some() {
                                    out.counters.rows_abandoned += 1;
                                    qualified = false;
                                    break;
                                }
                            }
                        },
                        DataType::Float64 => match parse_f64_field(raw, q).map_err(row_col_err)? {
                            Some(x) => {
                                if let Some(preds) = preds {
                                    if !preds.iter().all(|p| p.matches_f64(x)) {
                                        out.counters.rows_abandoned += 1;
                                        qualified = false;
                                        break;
                                    }
                                }
                                if needs_value {
                                    stash[needed_slot[col]] = Value::Float(x);
                                }
                            }
                            None => {
                                if preds.is_some() {
                                    out.counters.rows_abandoned += 1;
                                    qualified = false;
                                    break;
                                }
                            }
                        },
                        DataType::Str => {
                            let v = parse_field(raw, ty, q).map_err(row_col_err)?;
                            if let Some(preds) = preds {
                                if !preds.iter().all(|p| p.matches(&v)) {
                                    out.counters.rows_abandoned += 1;
                                    qualified = false;
                                    break;
                                }
                            }
                            if needs_value {
                                stash[needed_slot[col]] = v;
                            }
                        }
                    }
                }
            }

            if col >= ctx.max_touch {
                break;
            }
            if rowb.get(fe) != Some(&ctx.opts.delimiter) {
                // Row ended (newline/EOF) before we reached max_touch.
                short_row = true;
                break;
            }
            pos = fe + 1;
            col += 1;
        }

        if short_row && !ctx.opts.lenient {
            return Err(Error::parse(format!(
                "row {row} has only {} fields but column {} was referenced \
                 (enable lenient mode to read short rows as NULLs)",
                col + 1,
                ctx.max_touch
            )));
        }
        if short_row {
            // NULLs cannot satisfy predicates on the missing columns.
            if let Some(p) = ctx.preds_by_col.keys().find(|&&c| c > col) {
                let _ = p;
                out.counters.rows_abandoned += 1;
                continue 'rows;
            }
        }
        if qualified {
            for (slot, v) in stash.iter_mut().enumerate() {
                let v = std::mem::replace(v, Value::Null);
                out.builders[slot].push(v).expect("typed parse");
            }
            out.rowids.push(row as u64);
        }
    }
    Ok(out)
}

/// One unit of work in the morsel-driven pipeline: the phase-2 output of a
/// contiguous run of rows, handed to a per-worker operator chain *instead*
/// of being merged into one giant [`ScanOutput`] first. This is the shared
/// [`nodb_types::MorselBatch`] — the fused cold operators in `nodb-exec`
/// consume it directly.
pub type Morsel = nodb_types::MorselBatch;

/// Morsel-driven parallel scan: tokenize `source` in row morsels of
/// `morsel_rows` and feed each finished morsel straight into `consume`
/// (called concurrently from worker threads as `consume(worker, morsel)`),
/// so downstream operators — predicate evaluation, partial aggregation,
/// join builds — overlap with tokenization instead of waiting for a merged
/// [`ScanOutput`]. Workers *steal* morsels from a shared counter, so skew
/// (selective pushdown regions, short rows) balances automatically. Each
/// worker reads its morsel's byte range into its own reused buffer, so
/// reading overlaps tokenizing and raw bytes held at once stay bounded by
/// workers × the largest morsel span.
///
/// Structural knowledge flows into `posmap`: recordings are collected per
/// morsel and written back once the workers have joined (the map is not
/// shared mutably across threads). Returns the total rows scanned.
pub fn scan_morsels<F>(
    source: &Source<'_>,
    opts: &CsvOptions,
    spec: &ScanSpec<'_>,
    mut posmap: Option<&mut PositionalMap>,
    counters: &WorkCounters,
    morsel_rows: usize,
    consume: &F,
) -> Result<u64>
where
    F: Fn(usize, Morsel) -> Result<()> + Sync,
{
    validate_spec(spec)?;
    let row_starts = phase1_row_starts(source, opts, &mut posmap)?;
    let nrows = row_starts.len();
    let morsel_rows = morsel_rows.max(1);
    let n_morsels = nrows.div_ceil(morsel_rows);

    let touch = touch_plan(spec);
    if touch.is_empty() {
        // Pure row-count morsels: every row qualifies, nothing to parse.
        for index in 0..n_morsels {
            let lo = index * morsel_rows;
            let hi = ((index + 1) * morsel_rows).min(nrows);
            counters.add_morsels_dispatched(1);
            consume(
                0,
                Morsel {
                    index,
                    first_row: lo,
                    n_rows: hi - lo,
                    rowids: (lo as u64..hi as u64).collect(),
                    columns: Vec::new(),
                },
            )?;
        }
        return Ok(nrows as u64);
    }
    let max_touch = *touch.last().expect("nonempty");
    let preds_by_col = group_pushdown(spec);
    let record_cols = record_columns(posmap.as_deref(), max_touch);

    let ctx = ScanCtx {
        row_starts: &row_starts,
        opts,
        schema: spec.schema,
        needed: &spec.needed,
        touch: &touch,
        max_touch,
        preds_by_col: &preds_by_col,
        record_cols: &record_cols,
        posmap: posmap.as_deref(),
        cancel: nodb_types::cancel::current(),
        memory: nodb_types::resource::current(),
    };

    /// Posmap recordings of one morsel: `(first_row, per-column offsets)`.
    type MorselRecordings = (usize, Vec<(usize, Vec<u32>)>);

    // Recordings are tiny relative to morsel payloads; a mutex-guarded
    // collection keeps the write-back single-threaded and race-free.
    let recordings: std::sync::Mutex<Vec<MorselRecordings>> = std::sync::Mutex::new(Vec::new());

    // Ambient profile, captured here because the step hook runs on worker
    // threads where the thread-local scope is not installed. Workers
    // record their morsel's byte span only — timers stay on the
    // coordinating thread.
    let prof = profile::current();

    // Scheduling (steal counter, error flag, thread scope) comes from the
    // shared `nodb-types` driver; the tokenizer contributes its per-worker
    // counter batch and read buffer as the init/flush hooks and the
    // range read, posmap collection plus `consume` as the step hook.
    nodb_types::drive_morsels(
        nrows,
        morsel_rows,
        opts.threads,
        |_worker| (LocalCounters::default(), ReadBuf::new(ctx.memory.clone())),
        |(local, buf), worker, r| {
            let lo = ctx.row_starts[r.lo] as usize;
            let hi = ctx
                .row_starts
                .get(r.hi)
                .map_or(source.len(), |&s| s as usize);
            if let Some(p) = &prof {
                p.add_bytes((hi - lo) as u64);
            }
            let rows = source.range(lo, hi, buf)?;
            let mut chunk = scan_row_range(&ctx, rows, r.lo, r.hi)?;
            local.absorb(&chunk.counters);
            if !chunk.recordings.is_empty() {
                recordings
                    .lock()
                    .expect("recordings mutex")
                    .push((chunk.first_row, std::mem::take(&mut chunk.recordings)));
            }
            counters.add_morsels_dispatched(1);
            consume(
                worker,
                Morsel {
                    index: r.index,
                    first_row: chunk.first_row,
                    n_rows: r.hi - r.lo,
                    rowids: chunk.rowids,
                    columns: chunk.builders,
                },
            )
        },
        |(local, _buf)| local.flush(counters),
    )?;
    #[allow(clippy::needless_option_as_deref)]
    if let Some(m) = posmap.as_deref_mut() {
        for (first_row, recs) in recordings.into_inner().expect("recordings mutex") {
            for (col, offs) in recs {
                m.record_range(col, first_row, &offs);
            }
        }
    }
    Ok(nrows as u64)
}

/// Find the end (exclusive) of the field starting at `pos` within a row
/// buffer. A field ends at the delimiter, `\n`, `\r` or end of buffer;
/// callers inspect `row.get(end)` to distinguish a delimiter from a row
/// terminator. Quote-aware when `quote` is set (`""` escapes handled,
/// newlines inside quotes do not terminate the field).
#[inline]
pub fn field_end(row: &[u8], pos: usize, delim: u8, quote: Option<u8>) -> usize {
    if let Some(q) = quote {
        if row.get(pos) == Some(&q) {
            let mut i = pos + 1;
            let mut closed = false;
            while let Some(off) = find_byte(&row[i..], q) {
                i += off;
                if row.get(i + 1) == Some(&q) {
                    i += 2; // escaped "" pair, keep scanning
                } else {
                    i += 1; // closing quote
                    closed = true;
                    break;
                }
            }
            if !closed {
                return row.len(); // unterminated quote runs to end of row
            }
            match find_byte3(&row[i..], delim, b'\n', b'\r') {
                Some(off) => return i + off,
                None => return row.len(),
            }
        }
    }
    match find_byte3(&row[pos..], delim, b'\n', b'\r') {
        Some(off) => pos + off,
        None => row.len(),
    }
}

/// Parse one raw field into a typed value. Empty unquoted fields are NULL;
/// a quoted empty string is the empty string for `Str` columns.
pub fn parse_field(raw: &[u8], ty: DataType, quote: Option<u8>) -> Result<Value> {
    match ty {
        DataType::Int64 => Ok(parse_i64_field(raw, quote)?
            .map(Value::Int)
            .unwrap_or(Value::Null)),
        DataType::Float64 => Ok(parse_f64_field(raw, quote)?
            .map(Value::Float)
            .unwrap_or(Value::Null)),
        DataType::Str => {
            if raw.is_empty() {
                return Ok(Value::Null);
            }
            Ok(Value::Str(decode_field(raw, quote)?.into_owned()))
        }
    }
}

/// Typed `Int64` field parse straight from raw bytes: no UTF-8 validation,
/// no `String`, no `Value` until the caller wants one. `Ok(None)` is NULL
/// (empty or all-whitespace field). Quoted or non-ASCII-whitespace-padded
/// fields take the decoding slow path so semantics match [`parse_field`]'s
/// historical behaviour exactly.
#[inline]
pub fn parse_i64_field(raw: &[u8], quote: Option<u8>) -> Result<Option<i64>> {
    let slow = |raw| {
        parse_numeric_slow(raw, DataType::Int64, quote).map(|v| match v {
            Some(Value::Int(x)) => Some(x),
            _ => None,
        })
    };
    if raw.is_empty() {
        return Ok(None);
    }
    if quote.is_some_and(|q| raw.first() == Some(&q)) {
        return slow(raw);
    }
    let t = raw.trim_ascii();
    if t.is_empty() {
        // All-ASCII-whitespace is NULL; exotic unicode whitespace decides
        // on the slow path.
        if raw.is_ascii() {
            return Ok(None);
        }
        return slow(raw);
    }
    match parse_i64_bytes(t) {
        Some(x) => Ok(Some(x)),
        None => slow(raw),
    }
}

/// Typed `Float64` field parse from raw bytes; see [`parse_i64_field`].
#[inline]
pub fn parse_f64_field(raw: &[u8], quote: Option<u8>) -> Result<Option<f64>> {
    let slow = |raw| {
        parse_numeric_slow(raw, DataType::Float64, quote).map(|v| match v {
            Some(Value::Float(x)) => Some(x),
            _ => None,
        })
    };
    if raw.is_empty() {
        return Ok(None);
    }
    if quote.is_some_and(|q| raw.first() == Some(&q)) {
        return slow(raw);
    }
    let t = raw.trim_ascii();
    if t.is_empty() {
        if raw.is_ascii() {
            return Ok(None);
        }
        return slow(raw);
    }
    match parse_f64_bytes(t) {
        Some(x) => Ok(Some(x)),
        None => slow(raw),
    }
}

/// Slow path shared by the typed parsers: full quote stripping, UTF-8
/// validation and unicode-aware trimming — the pre-fast-path semantics.
fn parse_numeric_slow(raw: &[u8], ty: DataType, quote: Option<u8>) -> Result<Option<Value>> {
    let decoded = decode_field(raw, quote)?;
    let s = decoded.trim();
    if s.is_empty() {
        return Ok(None);
    }
    match ty {
        DataType::Int64 => parse_i64_bytes(s.as_bytes())
            .map(|x| Some(Value::Int(x)))
            .ok_or_else(|| Error::parse(format!("invalid int64 {s:?}"))),
        DataType::Float64 => s
            .parse::<f64>()
            .map(|x| Some(Value::Float(x)))
            .map_err(|e| Error::parse(format!("invalid float64 {s:?}: {e}"))),
        DataType::Str => unreachable!("numeric slow path"),
    }
}

/// Strip quotes and unescape `""` pairs; validates UTF-8.
fn decode_field(raw: &[u8], quote: Option<u8>) -> Result<Cow<'_, str>> {
    let unquoted: Cow<'_, [u8]> = match quote {
        Some(q) if raw.first() == Some(&q) => {
            let inner_end = if raw.last() == Some(&q) && raw.len() >= 2 {
                raw.len() - 1
            } else {
                raw.len()
            };
            let inner = &raw[1..inner_end];
            if inner.windows(2).any(|w| w[0] == q && w[1] == q) {
                let mut out = Vec::with_capacity(inner.len());
                let mut i = 0;
                while i < inner.len() {
                    out.push(inner[i]);
                    if inner[i] == q && inner.get(i + 1) == Some(&q) {
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                Cow::Owned(out)
            } else {
                Cow::Borrowed(inner)
            }
        }
        _ => Cow::Borrowed(raw),
    };
    match unquoted {
        Cow::Borrowed(b) => std::str::from_utf8(b)
            .map(Cow::Borrowed)
            .map_err(|e| Error::parse(format!("invalid utf-8: {e}"))),
        Cow::Owned(b) => String::from_utf8(b)
            .map(Cow::Owned)
            .map_err(|e| Error::parse(format!("invalid utf-8: {e}"))),
    }
}

/// Phase 1: locate the start offset of every non-empty row of `bytes`, in
/// one block-parallel pass (see the module docs). Fails only on an
/// injected fault ("rawcsv.phase1") or cooperative cancellation.
pub fn find_row_starts(
    bytes: &[u8],
    opts: &CsvOptions,
    _counters: &WorkCounters,
) -> Result<Vec<u64>> {
    row_starts(&Source::bytes(bytes), opts)
}

/// Phase 1 over a source: the start offset of every row, blank rows
/// dropped unless `opts.skip_blank_rows` is off.
///
/// One block-parallel pass through `run_morsels_with`. Each block (read
/// on its worker with [`BLOCK_LOOKAHEAD`] bytes past its end) records the
/// row starts after its newlines, split by the quote parity seen since the
/// block's first byte, plus its total quote parity. A quote byte always
/// toggles the serial quote state, so a prefix XOR of the block parities
/// gives every block its exact entry state — not a guess — and that picks
/// which of its two lists holds the real row starts. Unquoted files never
/// toggle and use one list.
///
/// Fails only on an injected fault ("rawcsv.phase1"), a read error or
/// cooperative cancellation, polled before every block.
pub(crate) fn row_starts(source: &Source<'_>, opts: &CsvOptions) -> Result<Vec<u64>> {
    nodb_types::failpoints::trip("rawcsv.phase1")?;
    let len = source.len();
    let memory = nodb_types::resource::current();
    // Profile worker aggregates count row morsels; byte blocks would
    // inflate them. Phase 1's time is still timed by its caller.
    let blocks = {
        let _rows_only = profile::suspend();
        nodb_types::run_morsels_with(
            len,
            source.phase1_block(),
            opts.threads,
            |_worker| (ReadBuf::new(memory.clone()), Default::default()),
            |(buf, lists), _index, lo, hi| {
                let bytes = source.range(lo, (hi + BLOCK_LOOKAHEAD).min(len), buf)?;
                Ok(scan_block(bytes, lo, hi - lo, len, opts, lists))
            },
        )?
    };
    let mut entry = 0;
    let mut total = 0;
    for b in &blocks {
        total += b.starts[entry].len();
        entry ^= b.parity;
    }
    let mut starts = Vec::with_capacity(total);
    entry = 0;
    for b in &blocks {
        starts.extend(b.starts[entry].iter().map(|&s| b.lo + u64::from(s)));
        entry ^= b.parity;
    }
    Ok(starts)
}

/// One phase-1 block's findings: `starts[p]` holds the kept row starts,
/// relative to the block's first byte `lo` (blocks are far below 4 GiB),
/// after newlines seen with quote parity `p` since that byte; `parity` is
/// the block's total quote parity.
struct Block1 {
    lo: u64,
    starts: [Vec<u32>; 2],
    parity: usize,
}

/// Scan one phase-1 block: `bytes` holds source bytes `[lo, lo + n)` plus
/// up to [`BLOCK_LOOKAHEAD`] more; `len` is the source length. A row start
/// is every newline's next byte (and offset 0), except at the end of the
/// source and, when skipping them, blank rows. The starts collect in the
/// worker's reused `lists` and leave them as exact-size copies.
fn scan_block(
    bytes: &[u8],
    lo: usize,
    n: usize,
    len: usize,
    opts: &CsvOptions,
    lists: &mut [Vec<u32>; 2],
) -> Block1 {
    let mut push = |parity: usize, s: usize| {
        let tail = &bytes[s..(s + BLOCK_LOOKAHEAD).min(bytes.len())];
        if lo + s < len && !(opts.skip_blank_rows && blank_row(tail, opts.quote)) {
            lists[parity].push(s as u32);
        }
    };
    if lo == 0 {
        push(0, 0);
    }
    let mut parity = 0;
    let mut i = 0;
    match opts.quote {
        Some(q) => {
            while let Some(off) = find_byte2(&bytes[i..n], q, b'\n') {
                i += off;
                if bytes[i] == q {
                    parity ^= 1;
                } else {
                    push(parity, i + 1);
                }
                i += 1;
            }
        }
        None => {
            while let Some(off) = find_byte(&bytes[i..n], b'\n') {
                i += off + 1;
                push(0, i);
            }
        }
    }
    let starts = [lists[0].clone(), lists[1].clone()];
    lists.iter_mut().for_each(Vec::clear);
    Block1 {
        lo: lo as u64,
        starts,
        parity,
    }
}

/// Is the row starting at a row boundary blank — nothing but a line
/// terminator? `tail` is the source from the row start, cut to at most
/// [`BLOCK_LOOKAHEAD`] bytes; a shorter tail ends at the end of the source.
/// The state at a row start is outside quotes, so a newline there ends
/// the row unless the quote byte is itself a line-terminator byte.
fn blank_row(tail: &[u8], quote: Option<u8>) -> bool {
    match tail {
        // The last line of the source.
        [b'\n' | b'\r'] | [b'\r', b'\n'] => true,
        [b'\n', ..] => quote != Some(b'\n'),
        [b'\r', b'\n', _] => !matches!(quote, Some(b'\r' | b'\n')),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_types::{CmpOp, ColPred};

    fn opts() -> CsvOptions {
        CsvOptions {
            threads: 1,
            ..CsvOptions::default()
        }
    }

    fn counters() -> WorkCounters {
        WorkCounters::new()
    }

    fn scan_simple(
        data: &str,
        schema: &Schema,
        needed: Vec<usize>,
        pushdown: Option<&Conjunction>,
    ) -> ScanOutput {
        let c = counters();
        scan_bytes(
            data.as_bytes(),
            &opts(),
            &ScanSpec {
                schema,
                needed,
                pushdown,
            },
            None,
            &c,
        )
        .unwrap()
    }

    #[test]
    fn basic_full_scan() {
        let schema = Schema::ints(3);
        let out = scan_simple("1,2,3\n4,5,6\n7,8,9\n", &schema, vec![0, 2], None);
        assert_eq!(out.rows_scanned, 3);
        assert_eq!(out.rowids, vec![0, 1, 2]);
        assert_eq!(out.columns[&0].as_i64_slice().unwrap(), &[1, 4, 7]);
        assert_eq!(out.columns[&2].as_i64_slice().unwrap(), &[3, 6, 9]);
    }

    #[test]
    fn last_line_without_newline() {
        let schema = Schema::ints(2);
        let out = scan_simple("1,2\n3,4", &schema, vec![1], None);
        assert_eq!(out.columns[&1].as_i64_slice().unwrap(), &[2, 4]);
    }

    #[test]
    fn crlf_line_endings() {
        let schema = Schema::ints(2);
        let out = scan_simple("1,2\r\n3,4\r\n", &schema, vec![0, 1], None);
        assert_eq!(out.columns[&1].as_i64_slice().unwrap(), &[2, 4]);
    }

    #[test]
    fn empty_lines_skipped() {
        let schema = Schema::ints(2);
        let out = scan_simple("1,2\n\n3,4\n\r\n5,6\n", &schema, vec![0], None);
        assert_eq!(out.rows_scanned, 3);
        assert_eq!(out.columns[&0].as_i64_slice().unwrap(), &[1, 3, 5]);
    }

    #[test]
    fn empty_file_and_newline_only() {
        let schema = Schema::ints(1);
        assert_eq!(scan_simple("", &schema, vec![0], None).rows_scanned, 0);
        assert_eq!(scan_simple("\n\n", &schema, vec![0], None).rows_scanned, 0);
    }

    #[test]
    fn pushdown_filters_and_counts_abandoned() {
        let schema = Schema::ints(2);
        let conj = Conjunction::new(vec![ColPred::new(0, CmpOp::Gt, 2i64)]);
        let c = counters();
        let out = scan_bytes(
            b"1,10\n2,20\n3,30\n4,40\n",
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![1],
                pushdown: Some(&conj),
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.rowids, vec![2, 3]);
        assert_eq!(out.columns[&1].as_i64_slice().unwrap(), &[30, 40]);
        let snap = c.snapshot();
        assert_eq!(snap.rows_abandoned, 2);
        // Abandoned rows never parse column 1: 4 parses of col0 + 2 of col1.
        assert_eq!(snap.values_parsed, 6);
    }

    #[test]
    fn early_stop_at_max_touch_column() {
        // Only columns 0 and 1 are referenced out of 4 — fields 2/3 of each
        // row must not be tokenized.
        let schema = Schema::ints(4);
        let c = counters();
        let out = scan_bytes(
            b"1,2,3,4\n5,6,7,8\n",
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![0, 1],
                pushdown: None,
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(c.snapshot().fields_tokenized, 4); // 2 rows × 2 fields
    }

    #[test]
    fn predicate_on_later_column_tokenizes_intermediates() {
        let schema = Schema::ints(4);
        let conj = Conjunction::new(vec![ColPred::new(3, CmpOp::Eq, 8i64)]);
        let c = counters();
        let out = scan_bytes(
            b"1,2,3,4\n5,6,7,8\n",
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![0],
                pushdown: Some(&conj),
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.rowids, vec![1]);
        assert_eq!(out.columns[&0].as_i64_slice().unwrap(), &[5]);
        // All 4 fields tokenized per row (target col is last).
        assert_eq!(c.snapshot().fields_tokenized, 8);
        // But only cols 0 and 3 parsed.
        assert_eq!(c.snapshot().values_parsed, 4);
    }

    #[test]
    fn strict_mode_rejects_short_rows() {
        let schema = Schema::ints(3);
        let c = counters();
        let err = scan_bytes(
            b"1,2,3\n4,5\n",
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![2],
                pushdown: None,
            },
            None,
            &c,
        );
        assert!(err.is_err());
    }

    #[test]
    fn lenient_mode_pads_short_rows_with_nulls() {
        let schema = Schema::ints(3);
        let mut o = opts();
        o.lenient = true;
        let c = counters();
        let out = scan_bytes(
            b"1,2,3\n4,5\n",
            &o,
            &ScanSpec {
                schema: &schema,
                needed: vec![2],
                pushdown: None,
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.columns[&2].get(0), Value::Int(3));
        assert_eq!(out.columns[&2].get(1), Value::Null);
    }

    #[test]
    fn lenient_short_row_fails_predicates_on_missing_cols() {
        let schema = Schema::ints(3);
        let mut o = opts();
        o.lenient = true;
        let conj = Conjunction::new(vec![ColPred::new(2, CmpOp::Gt, 0i64)]);
        let c = counters();
        let out = scan_bytes(
            b"1,2,3\n4,5\n",
            &o,
            &ScanSpec {
                schema: &schema,
                needed: vec![0],
                pushdown: Some(&conj),
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.rowids, vec![0]);
    }

    #[test]
    fn empty_fields_are_null() {
        let schema = Schema::ints(3);
        let out = scan_simple("1,,3\n", &schema, vec![0, 1, 2], None);
        assert_eq!(out.columns[&1].get(0), Value::Null);
        assert_eq!(out.columns[&2].get(0), Value::Int(3));
    }

    #[test]
    fn trailing_delimiter_is_trailing_empty_field() {
        let schema = Schema::new(vec![
            nodb_types::Field::new("a", DataType::Int64),
            nodb_types::Field::new("b", DataType::Str),
        ])
        .unwrap();
        let out = scan_simple("1,\n2,x\n", &schema, vec![1], None);
        assert_eq!(out.columns[&1].get(0), Value::Null);
        assert_eq!(out.columns[&1].get(1), Value::Str("x".into()));
    }

    #[test]
    fn float_and_str_columns() {
        let schema = Schema::new(vec![
            nodb_types::Field::new("x", DataType::Float64),
            nodb_types::Field::new("s", DataType::Str),
        ])
        .unwrap();
        let out = scan_simple("1.5,hello\n-2.25,world\n", &schema, vec![0, 1], None);
        assert_eq!(out.columns[&0].as_f64_slice().unwrap(), &[1.5, -2.25]);
        assert_eq!(
            out.columns[&1].as_str_slice().unwrap(),
            &["hello".to_string(), "world".to_string()]
        );
    }

    #[test]
    fn parse_error_mentions_row_and_column() {
        let schema = Schema::ints(2);
        let c = counters();
        let err = scan_bytes(
            b"1,2\nx,4\n",
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![0],
                pushdown: None,
            },
            None,
            &c,
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("row 1") && msg.contains("column 0"), "{msg}");
    }

    #[test]
    fn quoted_fields_with_embedded_delimiters_and_newlines() {
        let schema = Schema::new(vec![
            nodb_types::Field::new("a", DataType::Str),
            nodb_types::Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let mut o = opts();
        o.quote = Some(b'"');
        let c = counters();
        let out = scan_bytes(
            b"\"x,y\",1\n\"line1\nline2\",2\n\"he said \"\"hi\"\"\",3\n",
            &o,
            &ScanSpec {
                schema: &schema,
                needed: vec![0, 1],
                pushdown: None,
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.rows_scanned, 3);
        assert_eq!(
            out.columns[&0].as_str_slice().unwrap(),
            &[
                "x,y".to_string(),
                "line1\nline2".to_string(),
                "he said \"hi\"".to_string()
            ]
        );
        assert_eq!(out.columns[&1].as_i64_slice().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn quoted_empty_string_is_not_null() {
        let schema = Schema::new(vec![nodb_types::Field::new("s", DataType::Str)]).unwrap();
        let mut o = opts();
        o.quote = Some(b'"');
        let c = counters();
        let out = scan_bytes(
            b"\"\"\n",
            &o,
            &ScanSpec {
                schema: &schema,
                needed: vec![0],
                pushdown: None,
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.columns[&0].get(0), Value::Str(String::new()));
    }

    #[test]
    fn posmap_learns_and_accelerates() {
        let schema = Schema::ints(4);
        let mut pm = PositionalMap::new();
        let data = b"10,20,30,40\n11,21,31,41\n";
        let c = counters();
        // First scan touches columns 0..=1.
        scan_bytes(
            data,
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![1],
                pushdown: None,
            },
            Some(&mut pm),
            &c,
        )
        .unwrap();
        assert_eq!(pm.row_count(), Some(2));
        assert_eq!(pm.coverage(0), 1.0);
        assert_eq!(pm.coverage(1), 1.0);
        assert_eq!(pm.coverage(3), 0.0);
        // Second scan needs col 3; it should start from col 1's offsets,
        // so col 0 fields are never re-tokenized.
        let c2 = counters();
        let out = scan_bytes(
            data,
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![3],
                pushdown: None,
            },
            Some(&mut pm),
            &c2,
        )
        .unwrap();
        assert_eq!(out.columns[&3].as_i64_slice().unwrap(), &[40, 41]);
        // Fields walked per row: cols 1,2,3 = 3 fields (not 4).
        assert_eq!(c2.snapshot().fields_tokenized, 6);
        assert_eq!(pm.coverage(3), 1.0);
        // Third scan of col 3 jumps straight there: 1 field per row.
        let c3 = counters();
        scan_bytes(
            data,
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![3],
                pushdown: None,
            },
            Some(&mut pm),
            &c3,
        )
        .unwrap();
        assert_eq!(c3.snapshot().fields_tokenized, 2);
    }

    #[test]
    fn empty_touch_set_returns_all_rowids() {
        let schema = Schema::ints(2);
        let out = scan_simple("1,2\n3,4\n", &schema, vec![], None);
        assert_eq!(out.rowids, vec![0, 1]);
        assert!(out.columns.is_empty());
    }

    #[test]
    fn out_of_range_column_rejected() {
        let schema = Schema::ints(2);
        let c = counters();
        let err = scan_bytes(
            b"1,2\n",
            &opts(),
            &ScanSpec {
                schema: &schema,
                needed: vec![5],
                pushdown: None,
            },
            None,
            &c,
        );
        assert!(err.is_err());
    }

    #[test]
    fn parallel_scan_matches_serial() {
        let schema = Schema::ints(3);
        let mut data = String::new();
        for i in 0..10_000i64 {
            data.push_str(&format!("{},{},{}\n", i, i * 2, i % 7));
        }
        let conj = Conjunction::new(vec![ColPred::new(2, CmpOp::Eq, 3i64)]);
        let serial = scan_simple(&data, &schema, vec![0, 1], Some(&conj));
        let mut par_opts = CsvOptions {
            threads: 4,
            ..CsvOptions::default()
        };
        par_opts.lenient = false;
        let c = counters();
        let par = scan_bytes(
            data.as_bytes(),
            &par_opts,
            &ScanSpec {
                schema: &schema,
                needed: vec![0, 1],
                pushdown: Some(&conj),
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(serial.rowids, par.rowids);
        assert_eq!(
            serial.columns[&0].as_i64_slice().unwrap(),
            par.columns[&0].as_i64_slice().unwrap()
        );
        assert_eq!(
            serial.columns[&1].as_i64_slice().unwrap(),
            par.columns[&1].as_i64_slice().unwrap()
        );
    }

    #[test]
    fn morsel_scan_matches_merged_scan_and_learns_positions() {
        let schema = Schema::ints(3);
        let mut data = String::new();
        for i in 0..1000i64 {
            data.push_str(&format!("{},{},{}\n", i, i * 2, i % 5));
        }
        let conj = Conjunction::new(vec![ColPred::new(2, CmpOp::Eq, 3i64)]);
        let spec = ScanSpec {
            schema: &schema,
            needed: vec![0, 1],
            pushdown: Some(&conj),
        };
        let serial = {
            let c = counters();
            scan_bytes(data.as_bytes(), &opts(), &spec, None, &c).unwrap()
        };
        for threads in [1, 4] {
            let o = CsvOptions {
                threads,
                ..CsvOptions::default()
            };
            let c = counters();
            let mut pm = PositionalMap::new();
            let collected: std::sync::Mutex<Vec<Morsel>> = std::sync::Mutex::new(Vec::new());
            let rows = scan_morsels(
                &Source::bytes(data.as_bytes()),
                &o,
                &spec,
                Some(&mut pm),
                &c,
                37,
                &|_w, m| {
                    collected.lock().unwrap().push(m);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(rows, 1000);
            let mut morsels = collected.into_inner().unwrap();
            morsels.sort_by_key(|m| m.index);
            // Morsels tile the row space: 1000 rows / 37 per morsel.
            assert_eq!(morsels.len(), 1000usize.div_ceil(37));
            assert_eq!(c.snapshot().morsels_dispatched, morsels.len() as u64);
            let mut rowids = Vec::new();
            let mut col0 = ColumnData::empty(DataType::Int64);
            let mut col1 = ColumnData::empty(DataType::Int64);
            for mut m in morsels {
                rowids.append(&mut m.rowids);
                let mut it = m.columns.into_iter();
                col0.append(it.next().unwrap()).unwrap();
                col1.append(it.next().unwrap()).unwrap();
            }
            assert_eq!(rowids, serial.rowids, "threads={threads}");
            assert_eq!(
                col0.as_i64_slice().unwrap(),
                serial.columns[&0].as_i64_slice().unwrap()
            );
            assert_eq!(
                col1.as_i64_slice().unwrap(),
                serial.columns[&1].as_i64_slice().unwrap()
            );
            // Positional-map learning still happened under the morsel scan.
            assert_eq!(pm.row_count(), Some(1000));
            assert_eq!(pm.coverage(0), 1.0);
            assert_eq!(pm.coverage(1), 1.0);
        }
    }

    #[test]
    fn morsel_scan_propagates_worker_errors() {
        let schema = Schema::ints(2);
        let data = "1,2\nx,4\n".repeat(100);
        let spec = ScanSpec {
            schema: &schema,
            needed: vec![0],
            pushdown: None,
        };
        let o = CsvOptions {
            threads: 2,
            ..CsvOptions::default()
        };
        let c = counters();
        let err = scan_morsels(
            &Source::bytes(data.as_bytes()),
            &o,
            &spec,
            None,
            &c,
            16,
            &|_w, _m| Ok(()),
        );
        assert!(err.is_err());
    }

    #[test]
    fn typed_field_parsers_edge_cases() {
        assert_eq!(parse_i64_field(b"0", None).unwrap(), Some(0));
        assert_eq!(parse_i64_field(b" -42\t", None).unwrap(), Some(-42));
        assert_eq!(parse_i64_field(b"+7", None).unwrap(), Some(7));
        assert_eq!(parse_i64_field(b"", None).unwrap(), None);
        assert_eq!(parse_i64_field(b"  ", None).unwrap(), None);
        assert!(parse_i64_field(b"-", None).is_err());
        assert!(parse_i64_field(b"12x", None).is_err());
        assert_eq!(
            parse_i64_field(b"9223372036854775807", None).unwrap(),
            Some(i64::MAX)
        );
        assert!(parse_i64_field(b"9223372036854775808", None).is_err()); // overflow
        assert_eq!(parse_f64_field(b"1.5", None).unwrap(), Some(1.5));
        assert_eq!(parse_f64_field(b" 2e3 ", None).unwrap(), Some(2000.0));
        assert_eq!(parse_f64_field(b"", None).unwrap(), None);
        assert!(parse_f64_field(b"abc", None).is_err());
        // Quoted numerics take the decode path.
        assert_eq!(parse_i64_field(b"\"11\"", Some(b'"')).unwrap(), Some(11));
        assert_eq!(parse_f64_field(b"\"1.5\"", Some(b'"')).unwrap(), Some(1.5));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Reference implementation: plain split on the delimiter.
        fn naive_rows(data: &str) -> Vec<Vec<Option<i64>>> {
            data.lines()
                .filter(|l| !l.trim_end_matches('\r').is_empty())
                .map(|l| {
                    l.trim_end_matches('\r')
                        .split(',')
                        .map(|f| f.parse::<i64>().ok())
                        .collect()
                })
                .collect()
        }

        proptest! {
            /// The tokenizer agrees with a naive line/field splitter on
            /// arbitrary integer tables.
            #[test]
            fn agrees_with_naive_split(
                rows in proptest::collection::vec(
                    proptest::collection::vec(-1000i64..1000, 3), 0..60),
                trailing_newline in proptest::bool::ANY) {
                let mut data = String::new();
                for r in &rows {
                    data.push_str(&format!("{},{},{}", r[0], r[1], r[2]));
                    data.push('\n');
                }
                if !trailing_newline {
                    data.pop();
                }
                let schema = Schema::ints(3);
                let c = WorkCounters::new();
                let out = scan_bytes(
                    data.as_bytes(),
                    &CsvOptions { threads: 1, ..CsvOptions::default() },
                    &ScanSpec { schema: &schema, needed: vec![0, 1, 2], pushdown: None },
                    None,
                    &c,
                ).unwrap();
                let naive = naive_rows(&data);
                prop_assert_eq!(out.rows_scanned as usize, naive.len());
                for (i, r) in naive.iter().enumerate() {
                    for (col, want) in r.iter().enumerate() {
                        let got = out.columns[&col].get(i);
                        let want = want.map(Value::Int).unwrap_or(Value::Null);
                        prop_assert_eq!(got, want);
                    }
                }
            }

            /// Pushdown produces exactly the rows a post-filter would.
            #[test]
            fn pushdown_equals_post_filter(
                rows in proptest::collection::vec(
                    proptest::collection::vec(-50i64..50, 2), 0..80),
                lo in -60i64..60, width in 0i64..60) {
                let mut data = String::new();
                for r in &rows {
                    data.push_str(&format!("{},{}\n", r[0], r[1]));
                }
                let schema = Schema::ints(2);
                let conj = Conjunction::new(vec![
                    ColPred::new(0, CmpOp::Gt, lo),
                    ColPred::new(0, CmpOp::Lt, lo + width),
                ]);
                let c = WorkCounters::new();
                let out = scan_bytes(
                    data.as_bytes(),
                    &CsvOptions { threads: 1, ..CsvOptions::default() },
                    &ScanSpec { schema: &schema, needed: vec![1], pushdown: Some(&conj) },
                    None,
                    &c,
                ).unwrap();
                let expect: Vec<(u64, i64)> = rows.iter().enumerate()
                    .filter(|(_, r)| r[0] > lo && r[0] < lo + width)
                    .map(|(i, r)| (i as u64, r[1]))
                    .collect();
                let got: Vec<(u64, i64)> = out.rowids.iter().copied()
                    .zip(out.columns[&1].as_i64_slice().unwrap().iter().copied())
                    .collect();
                prop_assert_eq!(got, expect);
            }

            /// Quoted CSV round-trip: arbitrary strings (commas, quotes,
            /// newlines, unicode) written with RFC-4180 quoting parse back
            /// exactly.
            #[test]
            fn quoted_round_trip(
                rows in proptest::collection::vec(
                    (any::<String>(), -100i64..100), 1..30)) {
                // Encode.
                let mut data = Vec::new();
                for (s, n) in &rows {
                    let quoted = format!("\"{}\"", s.replace('"', "\"\""));
                    data.extend_from_slice(quoted.as_bytes());
                    data.push(b',');
                    data.extend_from_slice(n.to_string().as_bytes());
                    data.push(b'\n');
                }
                let schema = Schema::new(vec![
                    nodb_types::Field::new("s", DataType::Str),
                    nodb_types::Field::new("n", DataType::Int64),
                ]).unwrap();
                let opts = CsvOptions {
                    threads: 1,
                    quote: Some(b'"'),
                    ..CsvOptions::default()
                };
                let c = WorkCounters::new();
                let out = scan_bytes(
                    &data,
                    &opts,
                    &ScanSpec { schema: &schema, needed: vec![0, 1], pushdown: None },
                    None,
                    &c,
                ).unwrap();
                prop_assert_eq!(out.rows_scanned as usize, rows.len());
                for (i, (s, n)) in rows.iter().enumerate() {
                    prop_assert_eq!(out.columns[&0].get(i), Value::Str(s.clone()));
                    prop_assert_eq!(out.columns[&1].get(i), Value::Int(*n));
                }
            }

            /// Parallel (morsel-driven) and serial tokenization parity:
            /// same rowids, same column data, same work counters — across
            /// quoted/unquoted dialects, blank rows, trailing newlines,
            /// pushdown, thread counts and morsel-boundary edge cases
            /// (morsels of 1..8 rows against tables of 0..50 rows).
            #[test]
            fn parallel_tokenization_matches_serial(
                rows in proptest::collection::vec(
                    proptest::collection::vec(-999i64..999, 3), 0..50),
                blank_after in proptest::collection::vec(proptest::bool::ANY, 0..50),
                quoted in proptest::bool::ANY,
                trailing_newline in proptest::bool::ANY,
                with_pushdown in proptest::bool::ANY,
                threads in 1usize..5,
                morsel_rows in 1usize..8) {
                // Encode, optionally quoting every field and sprinkling
                // blank rows between data rows.
                let mut data = String::new();
                for (i, r) in rows.iter().enumerate() {
                    let cells: Vec<String> = r.iter()
                        .map(|v| if quoted { format!("\"{v}\"") } else { v.to_string() })
                        .collect();
                    data.push_str(&cells.join(","));
                    data.push('\n');
                    if blank_after.get(i).copied().unwrap_or(false) {
                        data.push('\n');
                    }
                }
                if trailing_newline {
                    data.push('\n');
                } else {
                    data.pop();
                }
                let schema = Schema::ints(3);
                let conj = Conjunction::new(vec![ColPred::new(1, CmpOp::Gt, -100i64)]);
                let spec = ScanSpec {
                    schema: &schema,
                    needed: vec![0, 2],
                    pushdown: with_pushdown.then_some(&conj),
                };
                let base_opts = CsvOptions {
                    threads: 1,
                    quote: quoted.then_some(b'"'),
                    ..CsvOptions::default()
                };

                let c_serial = WorkCounters::new();
                let serial = scan_bytes(data.as_bytes(), &base_opts, &spec, None, &c_serial).unwrap();

                let par_opts = CsvOptions { threads, ..base_opts.clone() };
                let c_par = WorkCounters::new();
                let collected: std::sync::Mutex<Vec<Morsel>> = std::sync::Mutex::new(Vec::new());
                let rows_scanned = scan_morsels(
                    &Source::bytes(data.as_bytes()), &par_opts, &spec, None, &c_par, morsel_rows,
                    &|_w, m| { collected.lock().unwrap().push(m); Ok(()) },
                ).unwrap();
                prop_assert_eq!(rows_scanned, serial.rows_scanned);

                let mut morsels = collected.into_inner().unwrap();
                morsels.sort_by_key(|m| m.index);
                let mut rowids = Vec::new();
                let mut col0 = ColumnData::empty(DataType::Int64);
                let mut col2 = ColumnData::empty(DataType::Int64);
                for mut m in morsels {
                    rowids.append(&mut m.rowids);
                    let mut it = m.columns.into_iter();
                    col0.append(it.next().unwrap()).unwrap();
                    col2.append(it.next().unwrap()).unwrap();
                }
                prop_assert_eq!(&rowids, &serial.rowids);
                prop_assert_eq!(col0.as_i64_slice().unwrap(),
                                serial.columns[&0].as_i64_slice().unwrap());
                prop_assert_eq!(col2.as_i64_slice().unwrap(),
                                serial.columns[&2].as_i64_slice().unwrap());

                // Work-counter parity: the parallel scan does exactly the
                // same tokenization and parsing work, just distributed.
                let (s, p) = (c_serial.snapshot(), c_par.snapshot());
                prop_assert_eq!(s.rows_tokenized, p.rows_tokenized);
                prop_assert_eq!(s.fields_tokenized, p.fields_tokenized);
                prop_assert_eq!(s.values_parsed, p.values_parsed);
                prop_assert_eq!(s.rows_abandoned, p.rows_abandoned);
            }

            /// Scanning with a positional map never changes results, no
            /// matter which scan order built the map.
            #[test]
            fn posmap_is_transparent(
                rows in proptest::collection::vec(
                    proptest::collection::vec(0i64..100, 5), 1..40),
                order in proptest::collection::vec(0usize..5, 1..6)) {
                let mut data = String::new();
                for r in &rows {
                    let strs: Vec<String> = r.iter().map(|v| v.to_string()).collect();
                    data.push_str(&strs.join(","));
                    data.push('\n');
                }
                let schema = Schema::ints(5);
                let c = WorkCounters::new();
                let o = CsvOptions { threads: 1, ..CsvOptions::default() };
                let mut pm = PositionalMap::new();
                for &col in &order {
                    let with_map = scan_bytes(
                        data.as_bytes(), &o,
                        &ScanSpec { schema: &schema, needed: vec![col], pushdown: None },
                        Some(&mut pm), &c,
                    ).unwrap();
                    let without = scan_bytes(
                        data.as_bytes(), &o,
                        &ScanSpec { schema: &schema, needed: vec![col], pushdown: None },
                        None, &c,
                    ).unwrap();
                    prop_assert_eq!(
                        with_map.columns[&col].as_i64_slice().unwrap(),
                        without.columns[&col].as_i64_slice().unwrap()
                    );
                }
            }
        }
    }

    /// File sources against slice sources, and parallel phase 1 against
    /// the serial quote machine it replaced.
    mod sources {
        use super::*;
        use proptest::prelude::*;
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// The serial phase-1 state machine, kept as the oracle for the
        /// block-parallel phase 1: one pass, toggling on every quote byte,
        /// then the blank-row filter over each row's content.
        fn serial_row_starts(bytes: &[u8], opts: &CsvOptions) -> Vec<u64> {
            let mut starts = vec![0u64];
            let mut in_quotes = false;
            for (i, &b) in bytes.iter().enumerate() {
                if Some(b) == opts.quote {
                    in_quotes = !in_quotes;
                } else if b == b'\n' && !in_quotes {
                    starts.push(i as u64 + 1);
                }
            }
            let len = bytes.len() as u64;
            let mut kept = Vec::new();
            for (i, &s) in starts.iter().enumerate() {
                if s >= len {
                    continue;
                }
                let end = starts.get(i + 1).copied().unwrap_or(len);
                let mut content = &bytes[s as usize..end as usize];
                if content.last() == Some(&b'\n') {
                    content = &content[..content.len() - 1];
                }
                if content.last() == Some(&b'\r') {
                    content = &content[..content.len() - 1];
                }
                if !content.is_empty() || !opts.skip_blank_rows {
                    kept.push(s);
                }
            }
            kept
        }

        /// A file in the temp directory, deleted on drop.
        struct TempFile(std::path::PathBuf);

        impl TempFile {
            fn new(bytes: &[u8]) -> TempFile {
                static NEXT: AtomicUsize = AtomicUsize::new(0);
                let path = std::env::temp_dir().join(format!(
                    "nodb_rawcsv_source_{}_{}.csv",
                    std::process::id(),
                    NEXT.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::write(&path, bytes).unwrap();
                TempFile(path)
            }
        }

        impl Drop for TempFile {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }

        fn text_schema() -> Schema {
            Schema::new(vec![
                nodb_types::Field::new("s", DataType::Str),
                nodb_types::Field::new("a", DataType::Int64),
                nodb_types::Field::new("b", DataType::Int64),
            ])
            .unwrap()
        }

        /// Run `scan_morsels` and merge its morsels in row order.
        fn morsel_scan(
            source: &Source<'_>,
            opts: &CsvOptions,
            spec: &ScanSpec<'_>,
            posmap: &mut PositionalMap,
            morsel_rows: usize,
        ) -> Result<(Vec<u64>, Vec<Vec<Value>>, u64)> {
            let c = WorkCounters::new();
            let collected = std::sync::Mutex::new(Vec::new());
            let rows = scan_morsels(
                source,
                opts,
                spec,
                Some(posmap),
                &c,
                morsel_rows,
                &|_w, m| {
                    collected.lock().unwrap().push(m);
                    Ok(())
                },
            )?;
            let mut morsels = collected.into_inner().unwrap();
            morsels.sort_by_key(|m| m.index);
            let mut rowids = Vec::new();
            let mut cols = vec![Vec::new(); spec.needed.len()];
            for m in morsels {
                for (dst, col) in cols.iter_mut().zip(&m.columns) {
                    dst.extend((0..col.len()).map(|i| col.get(i)));
                }
                rowids.extend(m.rowids);
            }
            Ok((rowids, cols, rows))
        }

        /// Positional-map contents: row starts and every recorded column.
        type PosmapState = (Option<Vec<u64>>, Vec<(usize, Vec<u32>)>);

        fn posmap_state(m: &PositionalMap) -> PosmapState {
            (
                m.row_starts().map(|s| s.to_vec()),
                m.known_columns()
                    .into_iter()
                    .map(|c| (c, m.col_offsets(c).unwrap().to_vec()))
                    .collect(),
            )
        }

        #[test]
        fn file_that_shrinks_after_open_is_a_typed_io_error() {
            let f = TempFile::new("1,2\n3,4\n5,6\n".repeat(100).as_bytes());
            let c = WorkCounters::new();
            let source = Source::open(&f.0, 0, &c).unwrap();
            std::fs::write(&f.0, b"1,2\n").unwrap();
            let schema = Schema::ints(2);
            let spec = ScanSpec {
                schema: &schema,
                needed: vec![1],
                pushdown: None,
            };
            let err = scan_source(&source, &opts(), &spec, None, &c).unwrap_err();
            match err {
                Error::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
                other => panic!("expected an I/O error, got {other:?}"),
            }
        }

        #[test]
        fn read_buffers_are_charged_and_released() {
            let data = "10,20\n".repeat(100_000);
            let f = TempFile::new(data.as_bytes());
            let schema = Schema::ints(2);
            let spec = ScanSpec {
                schema: &schema,
                needed: vec![1],
                pushdown: None,
            };
            let c = WorkCounters::new();
            // 20 000-row morsels span 120 000 bytes; phase-1 blocks 32 KiB.
            let scan = |guard: nodb_types::MemoryGuard| {
                let _scope = nodb_types::MemoryScope::enter(guard);
                let source = Source::open(&f.0, 0, &c)?.with_phase1_block(32 << 10);
                morsel_scan(&source, &opts(), &spec, &mut PositionalMap::new(), 20_000)
            };
            let pool = nodb_types::MemoryPool::new(None);
            let guard = nodb_types::MemoryGuard::new(None, Some(pool.clone()));
            assert_eq!(scan(guard.clone()).unwrap().2, 100_000);
            assert_eq!(guard.used(), 0, "charges end with the scan");
            // One worker's largest range, less the unmetered floor.
            assert_eq!(pool.peak(), 120_000 - (64 << 10) - BLOCK_LOOKAHEAD);
            // Phase 1 reads the file once (plus block lookahead), phase 2
            // once more, on one file trip.
            let s = c.snapshot();
            assert_eq!(s.file_trips, 1);
            let len = data.len() as u64;
            assert!(
                s.bytes_read >= 2 * len && s.bytes_read < 2 * len + 64,
                "{}",
                s.bytes_read
            );

            let err = scan(nodb_types::MemoryGuard::new(Some(20_000), None)).unwrap_err();
            assert!(matches!(err, Error::ResourceExhausted(_)), "{err:?}");
        }

        proptest! {
            /// Block-parallel phase 1 finds exactly the serial machine's
            /// row starts, for any block size and worker count, on bytes
            /// dense in quotes, delimiters, CR and LF — including quote
            /// bytes that are themselves line terminators.
            #[test]
            fn parallel_phase1_matches_serial_machine(
                raw in proptest::collection::vec(0usize..6, 0..80),
                quote in 0usize..4,
                skip_blank_rows in proptest::bool::ANY,
                block in 1usize..10,
                threads in 1usize..4) {
                let bytes: Vec<u8> = raw.iter().map(|&i| b"a,\"\n\r\n"[i]).collect();
                let opts = CsvOptions {
                    threads,
                    quote: [None, Some(b'"'), Some(b'\r'), Some(b'\n')][quote],
                    skip_blank_rows,
                    ..CsvOptions::default()
                };
                let got = row_starts(&Source::bytes(&bytes).with_phase1_block(block), &opts).unwrap();
                prop_assert_eq!(got, serial_row_starts(&bytes, &opts));
            }

            /// A file-source scan equals a slice scan: columns, rowids,
            /// rows scanned, positional-map recordings and phase-1 output,
            /// on quoted text with embedded `,`, `\n` and `""`, CRLF
            /// endings, blank rows and headers, with tiny phase-1 blocks
            /// and morsels so both edges land everywhere.
            #[test]
            fn file_source_scan_equals_slice_scan(
                rows in proptest::collection::vec(
                    (proptest::collection::vec(0usize..5, 0..6), -99i64..99, -99i64..99), 0..30),
                blank_after in proptest::collection::vec(proptest::bool::ANY, 0..30),
                quoted in proptest::bool::ANY,
                crlf in proptest::bool::ANY,
                header in proptest::bool::ANY,
                trailing_newline in proptest::bool::ANY,
                with_pushdown in proptest::bool::ANY,
                threads in 0usize..3,
                morsel_rows in 0usize..3,
                block in 1usize..24) {
                let threads = [1, 2, 3][threads];
                let morsel_rows = [1, 7, 64][morsel_rows];
                let eol = if crlf { "\r\n" } else { "\n" };
                let mut data = String::new();
                if header {
                    data.push_str("s,a,b");
                    data.push_str(eol);
                }
                let data_start = data.len();
                for (i, (text, a, b)) in rows.iter().enumerate() {
                    let cell: String = if quoted {
                        let t: String = text.iter().map(|&k| ['x', ',', '\n', '"', ' '][k]).collect();
                        format!("\"{}\"", t.replace('"', "\"\""))
                    } else {
                        text.iter().map(|&k| ['x', 'y', 'z', 'w', ' '][k]).collect()
                    };
                    data.push_str(&format!("{cell},{a},{b}{eol}"));
                    if blank_after.get(i).copied().unwrap_or(false) {
                        data.push_str(eol);
                    }
                }
                if !trailing_newline {
                    data.truncate(data.len() - data.len().min(eol.len()).min(data.len() - data_start));
                }
                let bytes = data.as_bytes();
                let f = TempFile::new(bytes);
                let opts = CsvOptions {
                    threads,
                    quote: quoted.then_some(b'"'),
                    ..CsvOptions::default()
                };
                let schema = text_schema();
                let conj = Conjunction::new(vec![ColPred::new(1, CmpOp::Gt, -50i64)]);
                let counters = WorkCounters::new();
                let slice = &bytes[data_start..];

                // Phase 1 alone: file source, slice and the serial oracle.
                let oracle = serial_row_starts(slice, &opts);
                let file_src = Source::open(&f.0, data_start as u64, &counters)
                    .unwrap()
                    .with_phase1_block(block);
                prop_assert_eq!(&row_starts(&file_src, &opts).unwrap(), &oracle);
                prop_assert_eq!(&find_row_starts(slice, &opts, &counters).unwrap(), &oracle);

                // Two scans each, the second served by the first's
                // positional map: needed columns 0 and 2, then 2 alone.
                let mut pm_file = PositionalMap::new();
                let mut pm_slice = PositionalMap::new();
                for needed in [vec![0, 2], vec![2]] {
                    let spec = ScanSpec {
                        schema: &schema,
                        needed: needed.clone(),
                        pushdown: with_pushdown.then_some(&conj),
                    };
                    let got = morsel_scan(&file_src, &opts, &spec, &mut pm_file, morsel_rows).unwrap();
                    let want = scan_bytes(
                        slice,
                        &CsvOptions { threads: 1, ..opts.clone() },
                        &spec,
                        Some(&mut pm_slice),
                        &counters,
                    ).unwrap();
                    prop_assert_eq!(&got.0, &want.rowids);
                    prop_assert_eq!(got.2, want.rows_scanned);
                    for (k, c) in needed.iter().enumerate() {
                        let col = &want.columns[c];
                        let want_vals: Vec<Value> = (0..col.len()).map(|i| col.get(i)).collect();
                        prop_assert_eq!(&got.1[k], &want_vals);
                    }
                    prop_assert_eq!(posmap_state(&pm_file), posmap_state(&pm_slice));
                }
            }
        }
    }
}
