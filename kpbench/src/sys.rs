//! Process clocks, host provenance and the small statistics the report uses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`), which is
/// 100 on every mainstream Linux architecture.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process (every thread, live
/// or exited), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name is parenthesised and may contain spaces; the fields
    // after it start at field 3 (`state`), so utime (14) and stime (15) sit
    // at offsets 11 and 12.
    let after = &stat[stat.rfind(')').expect("stat line names the command") + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse().expect("numeric tick count") };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident memory of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM present");
    kb / 1024.0
}

/// Counter shards of [`CountingAlloc`], one cache line each, so threads
/// allocating at once do not contend on one counter.
const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard(AtomicIsize);

/// Live heap bytes, split over shards; only their sum is meaningful, since
/// a block freed by another thread than the one that allocated it lands in
/// another shard.
static LIVE: [Shard; SHARDS] = [const { Shard(AtomicIsize::new(0)) }; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's shard (shard 0 while its thread-local storage is
/// being torn down).
fn shard() -> &'static AtomicIsize {
    let i = MY_SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                // ordering: a plain ticket; it orders nothing else.
                s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        })
        .unwrap_or(0);
    &LIVE[i].0
}

/// The system allocator, counting live bytes. The benchmark binary
/// installs it as its global allocator so [`live_heap_bytes`] can be
/// sampled: unlike the resident size, the live heap does not depend on how
/// much freed memory the allocator keeps mapped, which moved the resident
/// peak by 25% between identical runs.
pub struct CountingAlloc;

fn grew(by: usize) {
    // ordering: statistics only; the counters publish no other data.
    shard().fetch_add(by as isize, Ordering::Relaxed);
}

fn shrank(by: usize) {
    // ordering: statistics only.
    shard().fetch_sub(by as isize, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract the caller already upholds, and only updates counters besides.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, as our caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and `new_size` is valid per our caller.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Live heap bytes now; 0 unless [`CountingAlloc`] is the global allocator.
pub fn live_heap_bytes() -> usize {
    // ordering: a statistic read; shards may be mid-update, which only
    // blurs the sample by the blocks in flight.
    let sum: isize = LIVE.iter().map(|s| s.0.load(Ordering::Relaxed)).sum();
    sum.max(0) as usize
}

/// Samples [`live_heap_bytes`] every millisecond on its own thread until
/// stopped, keeping the highest sample.
pub struct HeapPeak {
    stop: Arc<AtomicBool>,
    sampler: std::thread::JoinHandle<usize>,
}

impl HeapPeak {
    /// Starts sampling.
    pub fn start() -> HeapPeak {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let sampler = std::thread::spawn(move || {
            let mut peak = live_heap_bytes();
            // ordering: Acquire pairs with the Release in `finish`; the flag
            // guards no data, so this is for promptness only.
            while !flag.load(Ordering::Acquire) {
                peak = peak.max(live_heap_bytes());
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            peak.max(live_heap_bytes())
        });
        HeapPeak { stop, sampler }
    }

    /// Stops sampling; returns the peak in MiB.
    pub fn finish(self) -> f64 {
        // ordering: see `start`.
        self.stop.store(true, Ordering::Release);
        let peak = self.sampler.join().expect("heap sampler panicked");
        peak as f64 / (1024.0 * 1024.0)
    }
}

/// Worker threads the benchmark uses: every core the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the current directory, read from `.git`
/// without leaving the directory; `unknown` for a plain source tree.
pub fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One provenance line for the report and the span file.
pub fn provenance() -> String {
    format!(
        "nproc={} cpu=\"{}\" commit={}",
        nproc(),
        cpu_model(),
        commit()
    )
}

/// The `q`-quantile of `values` with linear interpolation between ranks.
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// SplitMix64: the benchmark's only source of pseudo-randomness (job
/// order), so a seed fixes every choice the benchmark makes.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn proc_clocks_read() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
