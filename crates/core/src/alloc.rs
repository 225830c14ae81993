//! Heap settings for the engine's column-sized arrays.
//!
//! Every cold query allocates arrays of megabytes — row offsets,
//! positional-map columns, store columns, join tables — and frees them
//! when their query or engine ends. glibc's malloc serves a block above its
//! mmap threshold with a fresh mapping, and returns freed heap above its
//! trim threshold to the kernel. Both start low (128 KiB) and rise only
//! when a large mapped block is freed, so the next query faults every page
//! of its arrays back in: 0.67 ms per MB on a 2-vCPU VM, 13 000 faults for
//! one cold two-table join of 500 000-row files. Pinning the two
//! thresholds at the ceiling of glibc's own dynamic range keeps freed
//! arrays in the heap for the next query instead.

/// Raise glibc's mmap and trim thresholds once per process (a no-op on
/// other platforms).
pub(crate) fn reuse_freed_arrays() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        /// glibc's ceiling for its dynamic mmap threshold on 64-bit.
        const MMAP_THRESHOLD_MAX: c_int = 32 << 20;
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            // SAFETY: `mallopt` only sets malloc tuning parameters, under
            // malloc's own lock; any thread may call it at any time.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX);
                mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_MAX);
            }
        });
    }
}
