//! Sample statistics, per-layer accumulators and process memory.

use simcore::SplitMix64;
use std::collections::{BTreeMap, BTreeSet};

/// Quantile `q` in `[0, 1]` of `samples` by linear interpolation
/// between closest ranks; 0 when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub const MIB: f64 = (1u64 << 20) as f64;

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Seed of block `block` of a workload schedule drawn from `seed`.
pub fn block_seed(seed: u64, block: usize) -> u64 {
    let mut rng = SplitMix64::new(seed ^ (block as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    rng.next_u64()
}

/// What one pass accumulates beside its op timings: per-layer
/// counters, per-call host-time samples, and the bytes the pass
/// produced (kept for the layer replay).
#[derive(Default)]
pub struct Acc {
    /// Counters summed over the pass, e.g. `checl.forwarded_calls`.
    pub counts: BTreeMap<&'static str, f64>,
    /// Host-time samples in ms, e.g. `ckpt` and `restart`.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// The largest committed generation-2 dump per policy label.
    pub dumps: BTreeMap<&'static str, Vec<u8>>,
    /// Corpus programs the pass's apps built from source.
    pub sources: BTreeSet<String>,
}

impl Acc {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Add a session's forwarding counters.
    pub fn add_checl_stats(&mut self, s: checl::CheclStats) {
        self.add("checl.forwarded_calls", s.forwarded_calls as f64);
        self.add("checl.ipc_bytes", s.ipc_bytes as f64);
        self.add("checl.handle_translations", s.handle_translations as f64);
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn sample(&mut self, name: &'static str, ms: f64) {
        self.samples.entry(name).or_default().push(ms);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Peak resident set size of this process in MiB (`ru_maxrss`, the
/// same high-water mark as `VmHWM`).
pub fn peak_rss_mib() -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the layout of `struct rusage` on 64-bit
    // Linux (two `timeval`s followed by fourteen `long`s), and the
    // pointer refers to a live, writable value of that size.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss as f64 / 1024.0
}

/// Fix glibc's allocator thresholds so every run allocates the same way.
///
/// Left dynamic, glibc raises its mmap threshold the first time a large
/// mapped block is freed, after which large buffers come from the heap
/// instead of fresh, page-faulting mappings. When that happens depends
/// on the order of allocations, so runs of one seed came out bimodal (8
/// or 16 cycles/s on `cpr_cycle`). This fixes the threshold at 32 MiB,
/// the most the dynamic rule would raise it to on 64-bit, and keeps
/// freed heap memory instead of trimming it, so every run measures the
/// layers' own work from the same allocator state. Call it first thing
/// in `main`, before any other thread exists.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only changes allocator tunables; it takes
        // two plain integers and touches no memory the caller owns.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, 256 << 20);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
