//! Where a scan's bytes come from: a borrowed slice or an opened raw file.
//!
//! The raw file *is* the database, and most queries that reach it touch
//! it once and leave. A [`Source`] lets the tokenizer read exactly the
//! byte range each unit of work needs — a phase-1 block, a phase-2
//! morsel's rows — instead of holding the whole file in memory. Each
//! worker owns one read buffer that is reused and grown across its ranges,
//! so raw bytes held at once are bounded by workers × the largest range,
//! and growth past a small unmetered floor is charged to the query's
//! [`MemoryGuard`].

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use nodb_types::{MemoryGuard, Result, WorkCounters};

/// Default phase-1 block: big enough that one `read_at` and one block's
/// bookkeeping are noise, small enough to stay cache-resident while it is
/// scanned right after the read.
const PHASE1_BLOCK_BYTES: usize = 64 << 10;

/// Bytes each phase-1 block reads past its end: enough to tell whether a
/// row starting right at the block's end is blank.
pub(crate) const BLOCK_LOOKAHEAD: usize = 3;

/// The bytes a scan reads: a borrowed slice, or an opened file windowed to
/// `[start, file length)` (the length is fixed when the file is opened).
/// Offsets passed to a source are relative to the window.
#[derive(Debug)]
pub struct Source<'a> {
    kind: Kind<'a>,
    /// Phase-1 block size in bytes (see [`Source::phase1_block`]).
    block: usize,
}

#[derive(Debug)]
enum Kind<'a> {
    Bytes(&'a [u8]),
    File {
        file: File,
        path: PathBuf,
        start: u64,
        len: usize,
        counters: &'a WorkCounters,
    },
}

impl<'a> Source<'a> {
    /// A source over bytes already in memory.
    pub fn bytes(bytes: &'a [u8]) -> Source<'a> {
        Source {
            kind: Kind::Bytes(bytes),
            block: PHASE1_BLOCK_BYTES,
        }
    }

    /// Open the raw file at `path`, windowed to start at byte `start` (the
    /// first data row after a header). Counts one file trip; every range
    /// read later counts its bytes. Fails on the `rawcsv.read_file`
    /// failpoint, so every raw-file open can be faulted.
    pub fn open(path: &Path, start: u64, counters: &'a WorkCounters) -> Result<Source<'a>> {
        nodb_types::failpoints::trip("rawcsv.read_file")?;
        let file = File::open(path)?;
        let len = file.metadata()?.len().saturating_sub(start) as usize;
        counters.add_file_trip();
        Ok(Source {
            kind: Kind::File {
                file,
                path: path.to_path_buf(),
                start,
                len,
                counters,
            },
            block: PHASE1_BLOCK_BYTES,
        })
    }

    /// Bytes in the source (the window, for a file).
    pub fn len(&self) -> usize {
        match &self.kind {
            Kind::Bytes(b) => b.len(),
            Kind::File { len, .. } => *len,
        }
    }

    /// True when the source holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per phase-1 block.
    pub(crate) fn phase1_block(&self) -> usize {
        self.block
    }

    /// The same source with `block`-byte phase-1 blocks, so tests can put
    /// block edges anywhere in a small input.
    #[cfg(test)]
    pub(crate) fn with_phase1_block(mut self, block: usize) -> Source<'a> {
        self.block = block.max(1);
        self
    }

    /// Bytes `[lo, hi)` of the source. A slice source lends a subslice; a
    /// file source does one positioned read into `buf` (grown and charged
    /// as needed) and lends that. A file that shrank since it was opened
    /// is a typed I/O error, never a short result.
    pub(crate) fn range<'b>(
        &'b self,
        lo: usize,
        hi: usize,
        buf: &'b mut ReadBuf,
    ) -> Result<&'b [u8]> {
        debug_assert!(lo <= hi && hi <= self.len());
        match &self.kind {
            Kind::Bytes(b) => Ok(&b[lo..hi]),
            Kind::File {
                file,
                path,
                start,
                counters,
                ..
            } => {
                let dst = buf.take(hi - lo)?;
                file.read_exact_at(dst, start + lo as u64).map_err(|e| {
                    std::io::Error::new(
                        e.kind(),
                        format!(
                            "reading bytes {}..{} of {}: {e}",
                            start + lo as u64,
                            start + hi as u64,
                            path.display()
                        ),
                    )
                })?;
                counters.add_bytes_read(dst.len() as u64);
                Ok(dst)
            }
        }
    }
}

/// Bytes of each read buffer left unmetered: one default phase-1 block
/// with its lookahead. Every scan needs some buffer; metering its first
/// pages would shed even a `COUNT(*)` over a small file under a tight
/// per-query budget. Phase 1 therefore never charges (it holds at most
/// workers × this much), and phase 2 charges what its morsel spans need
/// beyond it.
const UNMETERED_BYTES: usize = PHASE1_BLOCK_BYTES + BLOCK_LOOKAHEAD;

/// The metered part of a `len`-byte read buffer.
fn metered(len: usize) -> usize {
    len.saturating_sub(UNMETERED_BYTES)
}

/// One worker's reusable read buffer. Growth beyond [`UNMETERED_BYTES`]
/// is charged to the query's memory guard (captured on the scan's entry
/// thread); the whole charge is released when the buffer drops at the
/// end of the scan.
#[derive(Debug)]
pub(crate) struct ReadBuf {
    bytes: Vec<u8>,
    guard: Option<MemoryGuard>,
}

impl ReadBuf {
    /// An empty buffer charging `guard` (if any) as it grows.
    pub(crate) fn new(guard: Option<MemoryGuard>) -> ReadBuf {
        ReadBuf {
            bytes: Vec::new(),
            guard,
        }
    }

    /// The first `n` bytes of the buffer, growing it (and its charge)
    /// first when it is shorter. Contents are whatever the last read left.
    fn take(&mut self, n: usize) -> Result<&mut [u8]> {
        let have = self.bytes.len();
        if n > have {
            if let Some(g) = &self.guard {
                g.charge(metered(n) - metered(have))?;
            }
            self.bytes.reserve_exact(n - have);
            self.bytes.resize(n, 0);
        }
        Ok(&mut self.bytes[..n])
    }
}

impl Drop for ReadBuf {
    fn drop(&mut self) {
        if let Some(g) = &self.guard {
            g.release(metered(self.bytes.len()));
        }
    }
}
