//! The deterministic parallel executor used by SLiMFast's training and evaluation
//! paths.
//!
//! This module is the canonical entry point for multi-threading in the repo; the
//! primitives live in [`slimfast_optim::exec`] (so the optimizer's gradient
//! accumulation can use them without a dependency cycle) and are re-exported here.
//!
//! # Contract
//!
//! Every primitive obeys one invariant: **the thread count changes wall-clock time,
//! never results.** Work is partitioned into a fixed chunk grid that does not depend on
//! the worker count, every chunk's computation and output slot depend only on the chunk
//! index, and floating-point reductions happen on the calling thread in chunk-index
//! order. A model fitted with `SLIMFAST_THREADS=32` is bitwise-identical to one fitted
//! with `SLIMFAST_THREADS=1`.
//!
//! # Execution
//!
//! A parallel region runs on the caller plus scoped threads spawned for that region
//! (`std::thread::scope`), which claim chunks from a shared counter and are joined
//! before it returns. Three regions use it: the E-step posterior pass
//! ([`crate::compile::CompiledProblem::e_step`]), batched snapshot posteriors
//! ([`crate::serve::ModelSnapshot::posteriors`]) and the evaluation grid. Requested
//! thread counts are a logical knob; the lanes actually run are capped at the
//! machine's parallelism ([`max_lanes`]) — oversubscription can only add context
//! switches, never change results — and sliced regions under [`INLINE_MIN_ITEMS`]
//! items run inline on the caller, so small fits never pay a spawn. Every lane of a
//! region is marked so that a region nested inside it (a grid cell's fit) runs
//! inline.
//!
//! # Configuration
//!
//! The worker count defaults to the `SLIMFAST_THREADS` environment variable, falling
//! back to [`std::thread::available_parallelism`]. Call sites that need an explicit
//! override (the determinism tests, benchmark sweeps) pass a non-zero count through
//! [`resolve_threads`] or the `threads` field of
//! [`SlimFastConfig`](crate::config::SlimFastConfig).

pub use slimfast_optim::exec::{
    execution_lanes, for_each_slice_mut, map_parts, max_lanes, num_threads, resolve_threads,
    INLINE_MIN_ITEMS, THREADS_ENV,
};

/// Maximum number of objects per E-step/posterior shard. Constant (never derived from
/// the thread count) so shard boundaries are identical in every configuration.
pub const OBJECT_CHUNK: usize = 1024;

/// Target number of claims per E-step shard. Chunks close early once they accumulate
/// this many claims, so a handful of heavy objects (skewed domains, hot objects) cannot
/// serialize a whole [`OBJECT_CHUNK`]-object range on one lane. Constant for the same
/// determinism reason as [`OBJECT_CHUNK`].
pub const CLAIM_CHUNK: usize = 8192;

/// A fixed partition of an object range into chunks, balanced by cumulative claim count.
///
/// The grid depends only on the data (the object count and the claim-offset array),
/// never on the thread count: each chunk spans at most [`OBJECT_CHUNK`] objects and
/// closes as soon as it has accumulated [`CLAIM_CHUNK`] claims. On uniform datasets
/// this degenerates to the old fixed `OBJECT_CHUNK` grid; on skewed datasets hot
/// objects get isolated into small chunks so the E-step's lanes stay balanced.
#[derive(Debug, Clone)]
pub struct ChunkGrid {
    /// Object-index boundaries: chunk `p` covers objects `bounds[p]..bounds[p + 1]`.
    bounds: Vec<usize>,
}

impl ChunkGrid {
    /// Builds the grid for `len` objects with `cumulative(i)` the number of claims in
    /// objects `0..i` (a CSR offset lookup). `cumulative` must be monotone.
    pub fn claim_balanced(len: usize, cumulative: impl Fn(usize) -> usize) -> Self {
        if len == 0 {
            return Self { bounds: vec![0, 0] };
        }
        let mut bounds = Vec::with_capacity(len.div_ceil(OBJECT_CHUNK) + 1);
        bounds.push(0);
        let mut start = 0usize;
        while start < len {
            let cap = (start + OBJECT_CHUNK).min(len);
            let target = cumulative(start) + CLAIM_CHUNK;
            // Smallest end in (start, cap] reaching the claim target, else cap.
            let mut end = cap;
            if cumulative(cap) > target {
                let (mut lo, mut hi) = (start + 1, cap);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if cumulative(mid) >= target {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                end = lo;
            }
            bounds.push(end);
            start = end;
        }
        Self { bounds }
    }

    /// Number of chunks in the grid (at least 1, even for an empty range).
    pub fn num_parts(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The object range of chunk `part`.
    pub fn objects(&self, part: usize) -> std::ops::Range<usize> {
        self.bounds[part]..self.bounds[part + 1]
    }

    /// Maps the grid through a CSR offset lookup, producing the cumulative slice
    /// boundaries [`for_each_slice_mut`] expects for a buffer indexed by `offset_of`.
    pub fn slice_boundaries(&self, offset_of: impl Fn(usize) -> usize) -> Vec<usize> {
        self.bounds.iter().map(|&i| offset_of(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_grid_covers_the_range_and_respects_the_object_cap() {
        // Dense uniform: 10 claims per object — chunks close at the claim target,
        // well before the object cap.
        let offsets: Vec<usize> = (0..=50_000).map(|i| i * 10).collect();
        let grid = ChunkGrid::claim_balanced(50_000, |i| offsets[i]);
        assert_eq!(grid.objects(0).start, 0);
        assert_eq!(grid.objects(grid.num_parts() - 1).end, 50_000);
        for p in 0..grid.num_parts() {
            let r = grid.objects(p);
            assert!(!r.is_empty());
            assert!(r.len() <= OBJECT_CHUNK);
            // Every chunk except possibly the last carries roughly CLAIM_CHUNK claims.
            let claims = offsets[r.end] - offsets[r.start];
            if p + 1 < grid.num_parts() {
                assert!(claims >= CLAIM_CHUNK);
                assert!(claims < CLAIM_CHUNK + 10);
            }
        }
        let b = grid.slice_boundaries(|i| offsets[i]);
        assert_eq!(b.first(), Some(&0));
        assert_eq!(b.last(), Some(&500_000));
        assert!(b.windows(2).all(|w| w[0] <= w[1]));

        // Sparse uniform: 3 claims per object never reaches the claim target, so the
        // grid degenerates to pure OBJECT_CHUNK ranges.
        let grid = ChunkGrid::claim_balanced(5000, |i| i * 3);
        for p in 0..grid.num_parts() - 1 {
            assert_eq!(grid.objects(p).len(), OBJECT_CHUNK);
        }
    }

    #[test]
    fn skewed_objects_are_isolated_into_small_chunks() {
        // Object 100 carries 100k claims; everything else carries one.
        let cumulative = |i: usize| i + if i > 100 { 100_000 } else { 0 };
        let grid = ChunkGrid::claim_balanced(5000, cumulative);
        assert_eq!(grid.objects(grid.num_parts() - 1).end, 5000);
        // The chunk containing the hot object ends right after it instead of dragging
        // OBJECT_CHUNK cold objects along.
        let hot = (0..grid.num_parts())
            .find(|&p| grid.objects(p).contains(&100))
            .unwrap();
        assert_eq!(grid.objects(hot).end, 101);
    }

    #[test]
    fn sparse_objects_fall_back_to_the_object_cap() {
        // No claims at all: chunks are pure OBJECT_CHUNK ranges.
        let grid = ChunkGrid::claim_balanced(3000, |_| 0);
        assert_eq!(grid.num_parts(), 3);
        assert_eq!(grid.objects(0), 0..OBJECT_CHUNK);
    }

    #[test]
    fn empty_range_still_produces_a_valid_grid() {
        let grid = ChunkGrid::claim_balanced(0, |_| 0);
        assert_eq!(grid.num_parts(), 1);
        assert_eq!(grid.objects(0), 0..0);
        assert_eq!(grid.slice_boundaries(|_| 0), vec![0, 0]);
    }
}
