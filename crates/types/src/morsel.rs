//! The shared morsel-stealing driver.
//!
//! Morsel-driven parallelism (Leis et al., SIGMOD 2014) splits an input
//! into fixed-size ranges that worker threads *steal* from a shared atomic
//! counter. Every row-parallel loop of the engine runs on this one driver
//! — the tokenizer's `scan_morsels` and merged scans (nodb-rawcsv), file
//! splitting, and the post-load operators (nodb-exec) — so the scheduling
//! semantics (steal order, first-error-wins cancellation, worker clamping)
//! cannot drift apart. One worker is simply the serial case: the loop runs
//! inline on the calling thread, in morsel order.
//!
//! Call-site-specific behaviour stays at the call site, passed in as
//! closures:
//!
//! * `init(worker)` builds per-worker state (e.g. the tokenizer's local
//!   counter batch) before the worker steals its first morsel;
//! * `step(state, worker, range)` processes one stolen morsel — this is
//!   where callers tokenize, filter, aggregate, record positional-map
//!   entries, or stash per-morsel results;
//! * `flush(state)` runs once per worker after its last steal (e.g. the
//!   counter-flush hook that batches atomic counter updates).
//!
//! [`run_morsels`] is the ordered form most callers want: one result per
//! morsel, returned in morsel index order.
//!
//! Error semantics: the first `step` error wins; every other worker stops
//! at its next steal, `flush` still runs for each started worker, and the
//! winning error is returned.
//!
//! Cancellation: the driver captures the *calling thread's* ambient
//! [`CancelToken`](crate::cancel::CancelToken) (installed by
//! `CancelScope` at a query entry point) and polls it before every steal
//! through the same first-error-wins machinery, so a CANCEL, an expired
//! deadline or a detected client disconnect stops every worker within one
//! morsel and surfaces as `Error::Cancelled` / `Error::Timeout`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cancel;
use crate::column::ColumnData;
use crate::error::{Error, Result};
use crate::{profile, resource};

/// One unit of work flowing through the fused cold pipeline: the parsed
/// output of a contiguous run of raw-file rows, handed to a per-worker
/// operator chain *instead* of being merged into one monolithic scan
/// result first.
///
/// Producers (the tokenizer's `scan_morsels` in `nodb-rawcsv`) emit one
/// batch per stolen [`MorselRange`]; consumers (the fused cold operators
/// in `nodb-exec`, wired up by `nodb-core`) filter, project, aggregate or
/// build join tables from it on the worker thread that parsed it. The
/// type lives here, in the dependency root, so both sides of the pipeline
/// speak it without depending on each other.
#[derive(Debug)]
pub struct MorselBatch {
    /// Morsel ordinal (0-based, ascending by row range) — gives consumers
    /// a deterministic merge order regardless of worker scheduling.
    pub index: usize,
    /// First row id covered by this morsel.
    pub first_row: usize,
    /// Rows scanned (before pushdown filtering).
    pub n_rows: usize,
    /// Qualifying row ids, ascending.
    pub rowids: Vec<u64>,
    /// Parsed columns, parallel to the producing scan's `needed` list,
    /// rows aligned with `rowids`.
    pub columns: Vec<ColumnData>,
}

/// One stolen unit of work: morsel `index` covers items `[lo, hi)` of the
/// driven input. Indexes ascend with the range, giving consumers a
/// deterministic merge order regardless of worker scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorselRange {
    /// Morsel ordinal (0-based, ascending by range).
    pub index: usize,
    /// First item (inclusive).
    pub lo: usize,
    /// Last item (exclusive).
    pub hi: usize,
}

/// Default rows per morsel: big enough to amortise dispatch, small enough
/// to balance skew and stay cache-resident.
pub const DEFAULT_MORSEL_ROWS: usize = 32_768;

/// Number of morsels needed to cover `n_items` at `per_morsel` each.
pub fn morsel_count(n_items: usize, per_morsel: usize) -> usize {
    n_items.div_ceil(per_morsel.max(1))
}

/// Run `step` over every morsel of `n_items` (`per_morsel` items each) on
/// up to `threads` stealing workers. Workers are clamped to the morsel
/// count; zero or one worker runs the loop inline on the calling thread
/// (no scope, no spawn). See the module docs for the hook contract.
pub fn drive_morsels<S, I, F, D>(
    n_items: usize,
    per_morsel: usize,
    threads: usize,
    init: I,
    step: F,
    flush: D,
) -> Result<()>
where
    S: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, MorselRange) -> Result<()> + Sync,
    D: Fn(S) + Sync,
{
    let per_morsel = per_morsel.max(1);
    let n_morsels = morsel_count(n_items, per_morsel);
    let workers = threads.max(1).min(n_morsels.max(1));

    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let failure: Mutex<Option<Error>> = Mutex::new(None);
    // Capture the caller's ambient token and memory guard here, on the
    // installing thread: stealing workers run on scope threads with no
    // thread-local scope of their own. The guard is re-installed per
    // worker so deep allocation sites can `charge_current` from any
    // thread of the pool.
    let token = cancel::current();
    let memory = resource::current();
    // Ambient query profile, likewise captured on the installing thread:
    // workers fold per-worker morsel aggregates (morsels, steals, items)
    // into it once per worker, after their last steal.
    let prof = profile::current();

    // First error wins; a poisoned lock (a step panicked on another
    // worker while storing its error) must not turn into a second panic
    // here — recover the inner value and keep the earliest error.
    let record_failure = |e: Error| {
        let mut slot = failure.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(e);
        }
        failed.store(true, Ordering::Relaxed);
    };

    let run_worker = |worker: usize| {
        let _mem = memory.clone().map(resource::MemoryScope::enter);
        let mut state = init(worker);
        // Per-worker aggregates, folded into the shared profile sink in
        // one batch after the loop (no per-morsel atomics).
        let (mut p_morsels, mut p_items, mut p_steals) = (0u64, 0u64, 0u64);
        loop {
            if failed.load(Ordering::Relaxed) {
                break;
            }
            if let Some(t) = &token {
                if let Err(e) = t.check() {
                    record_failure(e);
                    break;
                }
            }
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= n_morsels {
                break;
            }
            let range = MorselRange {
                index,
                lo: index * per_morsel,
                hi: ((index + 1) * per_morsel).min(n_items),
            };
            if prof.is_some() {
                p_morsels += 1;
                p_items += (range.hi - range.lo) as u64;
                // A morsel is "stolen" when it lands outside the worker's
                // round-robin share — a worker that fell behind had its
                // share taken by a faster sibling.
                if workers > 1 && index % workers != worker {
                    p_steals += 1;
                }
            }
            if let Err(e) = step(&mut state, worker, range) {
                record_failure(e);
                break;
            }
        }
        if let Some(p) = &prof {
            if p_morsels > 0 {
                p.add_morsels(p_morsels, p_items, 0);
                p.add_steals(p_steals);
            }
        }
        flush(state);
    };

    if workers <= 1 {
        run_worker(0);
    } else {
        // A panicking worker must not take the process (or this pool)
        // down: catch the unwind on the worker thread itself, convert it
        // to a typed internal error through the same first-error-wins
        // slot, and let every sibling stop at its next steal. `join`
        // therefore never observes a panic; its unreachable fallback
        // keeps us honest if one slips through anyway.
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let run_worker = &run_worker;
                    let record_failure = &record_failure;
                    s.spawn(move || {
                        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            run_worker(w)
                        }));
                        if let Err(payload) = caught {
                            record_failure(Error::from_panic("morsel worker", payload));
                        }
                    })
                })
                .collect();
            for h in handles {
                if let Err(payload) = h.join() {
                    record_failure(Error::from_panic("morsel worker", payload));
                }
            }
        });
    }

    match failure.into_inner().unwrap_or_else(|p| p.into_inner()) {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Run `f(index, lo, hi)` for every morsel of `n` items, `per_morsel` per
/// morsel, on up to `threads` stealing workers (see [`drive_morsels`]).
/// Results come back in morsel index order regardless of scheduling.
pub fn run_morsels<T, F>(n: usize, per_morsel: usize, threads: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize, usize, usize) -> Result<T> + Sync,
{
    run_morsels_with(
        n,
        per_morsel,
        threads,
        |_worker| (),
        |_state, i, lo, hi| f(i, lo, hi),
    )
}

/// [`run_morsels`] with per-worker state: `init(worker)` builds it before
/// the worker's first morsel, `f(state, index, lo, hi)` uses it (say, a
/// buffer reused across morsels), and it drops after the worker's last.
pub fn run_morsels_with<S, T, I, F>(
    n: usize,
    per_morsel: usize,
    threads: usize,
    init: I,
    f: F,
) -> Result<Vec<T>>
where
    S: Send,
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, usize, usize) -> Result<T> + Sync,
{
    let mut slots: Vec<Mutex<Option<T>>> = Vec::new();
    slots.resize_with(morsel_count(n, per_morsel), || Mutex::new(None));
    drive_morsels(
        n,
        per_morsel,
        threads,
        init,
        |state, _worker, r| {
            let v = f(state, r.index, r.lo, r.hi)?;
            *slots[r.index].lock().unwrap_or_else(|p| p.into_inner()) = Some(v);
            Ok(())
        },
        |_state| {},
    )?;
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .ok_or_else(|| Error::exec("morsel result missing"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_item_exactly_once() {
        for (n, per, threads) in [
            (0, 10, 4),
            (1, 1, 1),
            (100, 7, 3),
            (64, 64, 8),
            (1000, 1, 4),
        ] {
            let seen = Mutex::new(vec![0u32; n]);
            drive_morsels(
                n,
                per,
                threads,
                |_w| (),
                |_s, _w, r| {
                    assert_eq!(r.lo, r.index * per);
                    assert!(r.hi <= n && r.lo < r.hi || n == 0);
                    let mut seen = seen.lock().unwrap();
                    for i in r.lo..r.hi {
                        seen[i] += 1;
                    }
                    Ok(())
                },
                |_s| {},
            )
            .unwrap();
            assert!(
                seen.into_inner().unwrap().iter().all(|&c| c == 1),
                "n={n} per={per} threads={threads}"
            );
        }
    }

    #[test]
    fn first_error_wins_and_flush_runs_per_worker() {
        let flushed = AtomicU64::new(0);
        let err = drive_morsels(
            100,
            10,
            4,
            |_w| 0u64,
            |state, _w, r| {
                *state += 1;
                if r.index == 5 {
                    Err(Error::exec("boom"))
                } else {
                    Ok(())
                }
            },
            |state| {
                // Every started worker flushes, even after a failure.
                let _ = state;
                flushed.fetch_add(1, Ordering::Relaxed);
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("boom"));
        assert!(flushed.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn single_thread_runs_in_index_order() {
        let order = Mutex::new(Vec::new());
        drive_morsels(
            30,
            10,
            1,
            |_w| (),
            |_s, w, r| {
                assert_eq!(w, 0);
                order.lock().unwrap().push(r.index);
                Ok(())
            },
            |_s| {},
        )
        .unwrap();
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn ambient_cancel_stops_all_workers_within_a_morsel() {
        use crate::cancel::{CancelScope, CancelToken};
        let token = CancelToken::new();
        let _guard = CancelScope::enter(token.clone());
        let processed = AtomicU64::new(0);
        let err = drive_morsels(
            10_000,
            10,
            4,
            |_w| (),
            |_s, _w, r| {
                processed.fetch_add(1, Ordering::Relaxed);
                if r.index == 3 {
                    token.cancel();
                }
                Ok(())
            },
            |_s| {},
        )
        .unwrap_err();
        assert!(matches!(err, Error::Cancelled(_)), "got {err:?}");
        // Each of the 4 workers finishes at most the morsel it was on
        // when the flag flipped — nowhere near the 1000-morsel total.
        assert!(
            processed.load(Ordering::Relaxed) < 100,
            "workers kept stealing after cancel: {} morsels",
            processed.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn expired_deadline_surfaces_timeout_from_driver() {
        use crate::cancel::{CancelScope, CancelToken};
        use std::time::{Duration, Instant};
        let token = CancelToken::new();
        token.set_deadline(Instant::now() - Duration::from_millis(1));
        let _guard = CancelScope::enter(token);
        let err = drive_morsels(100, 10, 2, |_w| (), |_s, _w, _r| Ok(()), |_s| {}).unwrap_err();
        assert!(matches!(err, Error::Timeout(_)), "got {err:?}");
    }

    #[test]
    fn no_ambient_token_runs_to_completion() {
        // Sanity for the common path: nothing installed, nothing cancels.
        let n = AtomicU64::new(0);
        drive_morsels(
            100,
            10,
            4,
            |_w| (),
            |_s, _w, _r| {
                n.fetch_add(1, Ordering::Relaxed);
                Ok(())
            },
            |_s| {},
        )
        .unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn worker_panic_surfaces_as_typed_internal_error() {
        let err = drive_morsels(
            1000,
            10,
            4,
            |_w| (),
            |_s, _w, r| {
                if r.index == 7 {
                    panic!("injected worker crash");
                }
                Ok(())
            },
            |_s| {},
        )
        .unwrap_err();
        assert!(
            matches!(&err, Error::Internal(m) if m.contains("injected worker crash")),
            "got {err:?}"
        );
        // The pool is not wedged: the same driver runs again cleanly.
        drive_morsels(100, 10, 4, |_w| (), |_s, _w, _r| Ok(()), |_s| {}).unwrap();
    }

    #[test]
    fn typed_error_beats_competing_panic() {
        // A typed step error and a worker panic race; whichever records
        // first wins, and either way the result is a typed error — never
        // an abort.
        let err = drive_morsels(
            1000,
            10,
            4,
            |_w| (),
            |_s, _w, r| {
                if r.index == 3 {
                    return Err(Error::exec("typed failure"));
                }
                if r.index == 4 {
                    panic!("racing panic");
                }
                Ok(())
            },
            |_s| {},
        )
        .unwrap_err();
        assert!(
            matches!(err, Error::Exec(_) | Error::Internal(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn ambient_memory_guard_reaches_workers() {
        use crate::resource::{self, MemoryGuard, MemoryScope};
        let guard = MemoryGuard::new(None, None);
        let _scope = MemoryScope::enter(guard.clone());
        drive_morsels(
            1000,
            10,
            4,
            |_w| (),
            |_s, _w, r| {
                // Workers see the installing thread's guard ambiently.
                resource::charge_current(r.hi - r.lo)?;
                Ok(())
            },
            |_s| {},
        )
        .unwrap();
        assert_eq!(guard.used(), 1000);

        // And a capped guard sheds from inside the pool as a typed error.
        let small = MemoryGuard::new(Some(100), None);
        let _scope2 = MemoryScope::enter(small);
        let err = drive_morsels(
            1000,
            10,
            4,
            |_w| (),
            |_s, _w, r| {
                resource::charge_current(r.hi - r.lo)?;
                Ok(())
            },
            |_s| {},
        )
        .unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "got {err:?}");
    }

    #[test]
    fn ambient_profile_collects_morsel_aggregates() {
        use crate::profile::{self, ProfileScope, ProfileSink};
        let sink = ProfileSink::handle();
        let _scope = ProfileScope::enter(std::sync::Arc::clone(&sink));
        drive_morsels(1000, 10, 4, |_w| (), |_s, _w, _r| Ok(()), |_s| {}).unwrap();
        let p = sink.snapshot();
        assert_eq!(p.morsels, 100);
        assert_eq!(p.rows, 1000);
        drop(_scope);
        assert!(profile::current().is_none());
        // Without a scope the driver records nothing new.
        drive_morsels(100, 10, 4, |_w| (), |_s, _w, _r| Ok(()), |_s| {}).unwrap();
        assert_eq!(sink.snapshot().morsels, 100);
    }

    #[test]
    fn run_morsels_orders_results_and_propagates_errors() {
        let got = run_morsels(100, 7, 4, |index, lo, hi| Ok((index, lo, hi))).unwrap();
        assert_eq!(got.len(), 15);
        for (i, &(index, lo, hi)) in got.iter().enumerate() {
            assert_eq!((index, lo, hi), (i, i * 7, (i * 7 + 7).min(100)));
        }
        let r: Result<Vec<()>> = run_morsels(100, 10, 4, |index, _lo, _hi| {
            if index == 7 {
                Err(Error::exec("boom"))
            } else {
                Ok(())
            }
        });
        assert!(r.is_err());
    }

    #[test]
    fn worker_state_is_private() {
        // Each worker's state accumulates only its own steals; the total
        // across flushes equals the morsel count.
        let total = AtomicU64::new(0);
        drive_morsels(
            1000,
            10,
            8,
            |_w| 0u64,
            |state, _w, _r| {
                *state += 1;
                Ok(())
            },
            |state| {
                total.fetch_add(state, Ordering::Relaxed);
            },
        )
        .unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }
}
