//! A fixed reference computation, timed between repetitions, that
//! measures how fast the machine runs at that moment.
//!
//! On a shared host the same repetition runs up to ~2x slower while
//! other load shares the cores, in phases from seconds to minutes long,
//! so even the fastest of a run's repetitions moves by a quarter from one
//! run to the next. Dividing each repetition's host time by the
//! reference time measured right before and after it cancels most of
//! that drift, provided the reference slows down as the workload does.
//! The reference is the benchmark's own code, so a change to the program
//! never changes it.
//!
//! Which kernel tracks which workload was measured, not guessed. Four
//! candidates were timed between repetitions of each workload over
//! several minutes of slow and quiet phases: integer hashing alone,
//! random read-modify-writes on a 256 KiB table (the L2 cache) and on a
//! 64 MiB one (main memory), and 48 KiB copies between two 64 MiB
//! buffers. Spreads below are quartiles over median across windows of
//! ten repetitions.
//!
//! - `tpcc-local` and `append-replicated` slow down with the core: raw
//!   run time spread 34% and 42%; divided by [`Kind::Core`] (hashing
//!   weighted at half the L2-table time) it spread 6% and 10%, against
//!   21–27% for the memory-bound kernels on `append-replicated`.
//! - `ycsb-lifecycle` spends most of its host time copying a ~40 MiB
//!   checkpoint image out and back in, and slows down about half as much
//!   as the core kernel does: raw run and recovery time spread 16% and
//!   9%; divided by [`Kind::Copy`] 8% and 4%, by [`Kind::Core`] 11% and
//!   8%.

use std::hint::black_box;
use std::time::Instant;

/// Table size, in `u64` words: 256 KiB, which stays in the L2 cache.
const TABLE_WORDS: usize = 32 << 10;
/// Hash-only iterations per core-kernel run.
const HASH_ITERS: u64 = 4_500_000;
/// Table read-modify-write iterations per core-kernel run.
const TABLE_ITERS: u64 = 6_000_000;
/// Bytes of each copy buffer: 64 MiB, larger than the last-level cache.
const COPY_BYTES: usize = 64 << 20;
/// Bytes per copy: the largest append.
const COPY_CHUNK: usize = 48 << 10;
/// Copies per copy-kernel run.
const COPIES: u64 = 3_000;

/// Kernel runs per reference second. A reference second is about one
/// wall second on the quiet 2-vCPU Xeon VM the benchmark was built on,
/// where one run of either kernel takes ~21 ms.
pub const RUNS_PER_REF_S: f64 = 48.0;

/// After each repetition the kernel runs for at least this fraction of
/// the repetition's wall time (and at least once), so long repetitions
/// get as well-sampled a reference as short ones.
pub const REF_SHARE: f64 = 0.05;

/// Which reference kernel a workload's host times are divided by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Integer hashing plus random read-modify-writes on a 256 KiB table.
    Core,
    /// 48 KiB copies at random offsets between two 64 MiB buffers.
    Copy,
}

impl Kind {
    /// The kernel that tracks `workload` best.
    pub fn for_workload(workload: &str) -> Self {
        if workload == "ycsb-lifecycle" {
            Kind::Copy
        } else {
            Kind::Core
        }
    }
}

/// A reference kernel with its working memory, allocated once so that
/// page faults are paid before timing starts.
pub struct Reference {
    kind: Kind,
    table: Vec<u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Reference {
    /// Allocate and touch the working memory, then run the kernel once.
    pub fn new(kind: Kind) -> Self {
        let mut r = match kind {
            Kind::Core => Reference {
                kind,
                table: (0..TABLE_WORDS as u64).collect(),
                src: Vec::new(),
                dst: Vec::new(),
            },
            Kind::Copy => Reference {
                kind,
                table: Vec::new(),
                src: (0..COPY_BYTES).map(|i| i as u8).collect(),
                dst: vec![1; COPY_BYTES],
            },
        };
        r.time_ns();
        r
    }

    /// Host ns one run of the kernel takes now. Every call does the same
    /// work.
    pub fn time_ns(&mut self) -> u64 {
        let start = Instant::now();
        let mut x = 0x5EED_u64;
        let mut acc = 0u64;
        match self.kind {
            Kind::Core => {
                let mask = TABLE_WORDS as u64 - 1;
                for _ in 0..HASH_ITERS {
                    acc = acc.wrapping_add(splitmix(&mut x));
                }
                for i in 0..TABLE_ITERS {
                    let h = splitmix(&mut x);
                    let a = (h & mask) as usize;
                    self.table[a] = self.table[a].wrapping_mul(31) ^ i;
                    acc = acc.wrapping_add(self.table[((h >> 32) & mask) as usize]);
                }
            }
            Kind::Copy => {
                let slots = (COPY_BYTES / COPY_CHUNK) as u64;
                for _ in 0..COPIES {
                    let h = splitmix(&mut x);
                    let from = (h % slots) as usize * COPY_CHUNK;
                    let to = ((h >> 32) % slots) as usize * COPY_CHUNK;
                    self.dst[to..to + COPY_CHUNK]
                        .copy_from_slice(&self.src[from..from + COPY_CHUNK]);
                    acc = acc.wrapping_add(self.dst[to + (h as usize % COPY_CHUNK)] as u64);
                }
            }
        }
        black_box(acc);
        start.elapsed().as_nanos() as u64
    }

    /// Mean host ns per kernel run, over runs that take at least
    /// `min_ns` together, and at least one run.
    pub fn mean_ns(&mut self, min_ns: f64) -> f64 {
        let (mut total, mut runs) = (0u64, 0u64);
        while runs == 0 || (total as f64) < min_ns {
            total += self.time_ns();
            runs += 1;
        }
        total as f64 / runs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_workload_has_a_kernel_that_runs() {
        assert_eq!(Kind::for_workload("ycsb-lifecycle"), Kind::Copy);
        assert_eq!(Kind::for_workload("tpcc-local"), Kind::Core);
        assert_eq!(Kind::for_workload("append-replicated"), Kind::Core);
        for kind in [Kind::Core, Kind::Copy] {
            let mut r = Reference::new(kind);
            assert!(r.mean_ns(0.0) > 0.0);
        }
    }
}
