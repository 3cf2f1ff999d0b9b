//! The benchmark's own seeded generator, the heap meter, and the facts
//! that make a result attributable to a build and a machine.

use std::process::Command;
use voltprop_bench::alloc;

/// SplitMix64: the benchmark's inputs depend only on `--seed`, never on
/// a generator inside the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// An independent stream for one purpose of one seed.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ purpose);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` values in `[lo, hi)`, one uniform draw from each of `n` equal
    /// strata, in a seeded order: every seed gets the same spread of
    /// values, so seeds change the inputs but not how much work they are.
    pub fn strata(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut out: Vec<f64> = (0..n)
            .map(|k| lo + (hi - lo) * (k as f64 + self.unit()) / n as f64)
            .collect();
        self.shuffle(&mut out);
        out
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Heap high-water mark since process start, in MiB.
pub fn heap_peak_mb() -> f64 {
    alloc::peak_bytes() as f64 / MIB
}

/// `git rev-parse HEAD` of the working directory, or `unknown` outside
/// a repository.
pub fn git_rev() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// Last-level (L3) cache size in bytes, read with CPUID (cache
/// topology leaf 0x8000_001D on AMD, leaf 4 elsewhere).
#[cfg(target_arch = "x86_64")]
pub fn l3_bytes() -> Option<usize> {
    use std::arch::x86_64::__cpuid_count;
    // SAFETY: CPUID exists on every x86_64 processor; the leaves read
    // here are guarded by the maximum-leaf queries before them.
    #[allow(unused_unsafe)]
    let query = |leaf: u32, sub: u32| unsafe { __cpuid_count(leaf, sub) };
    let max_ext = query(0x8000_0000, 0).eax;
    let leaf = if max_ext >= 0x8000_001D {
        0x8000_001D
    } else if query(0, 0).eax >= 4 {
        4
    } else {
        return None;
    };
    for sub in 0..16 {
        let r = query(leaf, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        if (r.eax >> 5) & 0x7 == 3 {
            let line = (r.ebx & 0xfff) as usize + 1;
            let partitions = ((r.ebx >> 12) & 0x3ff) as usize + 1;
            let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
            let sets = r.ecx as usize + 1;
            return Some(line * partitions * ways * sets);
        }
    }
    None
}

#[cfg(not(target_arch = "x86_64"))]
pub fn l3_bytes() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(7, 2).next_u64());
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(8, 1).next_u64());
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(5) < 5);
        }
        let mut s = r.strata(8, 2.0, 4.0);
        s.sort_by(f64::total_cmp);
        for (k, v) in s.iter().enumerate() {
            let lo = 2.0 + 0.25 * k as f64;
            assert!((lo..lo + 0.25).contains(v), "one value per stratum");
        }
    }
}
