//! Chunked scoped-thread fan-out shared by the parallel engines.
//!
//! The build environment has no rayon, and the passes that want
//! parallelism — the store's record framing, the follower's frame scan
//! and the service's worker pool — need exactly one pattern:
//! split an index range into contiguous chunks, run one scoped `std`
//! thread per chunk, and merge the per-chunk results in chunk order. Merging in chunk order (never in completion order)
//! makes every caller deterministic by construction: the assembled output
//! is identical to what a single-threaded pass over the same chunks would
//! produce, bit for bit, for any thread count.
//!
//! Callers pick a thread count with [`auto_threads`] (1 below a per-call
//! work threshold, so small inputs never pay spawn/join overhead) and
//! keep an explicit-thread-count entry point so tests can force the
//! multi-threaded path on small inputs.

/// Hard cap on worker threads; beyond this the memory-bound passes in
/// this workspace stop scaling.
pub const MAX_THREADS: usize = 16;

/// Pick a worker count for `items` units of work: 1 below `threshold`
/// (thread spawn/join would dominate), otherwise the machine's available
/// parallelism, capped at [`MAX_THREADS`] and at the work count.
pub fn auto_threads(items: usize, threshold: usize) -> usize {
    if items < threshold {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
        .min(items.max(1))
}

/// Cut `0..n` into `chunks` contiguous near-equal ranges: `chunks + 1`
/// ascending cut points, starting at 0 and ending at `n`. Some ranges are
/// empty when `chunks > n`.
pub fn even_cuts(n: usize, chunks: usize) -> Vec<usize> {
    let chunks = chunks.max(1);
    (0..=chunks).map(|t| t * n / chunks).collect()
}

/// Run `f(chunk_index, start, end)` over each cut range and return the
/// results **in chunk order**. A single chunk runs inline on the calling
/// thread; otherwise each chunk gets its own scoped thread.
pub fn map_ranges<R, F>(cuts: &[usize], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize, usize) -> R + Sync,
{
    let chunks = cuts.len().saturating_sub(1);
    if chunks <= 1 {
        return (0..chunks).map(|t| f(t, cuts[t], cuts[t + 1])).collect();
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(chunks);
    out.resize_with(chunks, || None);
    std::thread::scope(|scope| {
        for (t, slot) in out.iter_mut().enumerate() {
            let f = &f;
            scope.spawn(move || {
                *slot = Some(f(t, cuts[t], cuts[t + 1]));
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("fan-out worker completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_cuts_cover_range_exactly() {
        for n in [0usize, 1, 7, 100, 101] {
            for chunks in [1usize, 2, 3, 8, 200] {
                let cuts = even_cuts(n, chunks);
                assert_eq!(cuts.len(), chunks + 1);
                assert_eq!(cuts[0], 0);
                assert_eq!(*cuts.last().unwrap(), n);
                assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "monotone: {cuts:?}");
            }
        }
    }

    #[test]
    fn auto_threads_respects_threshold() {
        assert_eq!(auto_threads(10, 100), 1);
        assert!(auto_threads(100, 100) >= 1);
        assert!(auto_threads(1_000_000, 100) <= MAX_THREADS);
    }

    #[test]
    fn map_ranges_merges_in_chunk_order() {
        let n = 103usize;
        for chunks in [1usize, 2, 5, 16] {
            let cuts = even_cuts(n, chunks);
            let parts = map_ranges(&cuts, |_t, lo, hi| (lo..hi).collect::<Vec<usize>>());
            let flat: Vec<usize> = parts.into_iter().flatten().collect();
            assert_eq!(flat, (0..n).collect::<Vec<usize>>(), "chunks={chunks}");
        }
    }
}
