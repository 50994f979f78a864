//! What the benchmark reads from the host: hypervisor steal, peak
//! resident memory, cache and memory sizes, and a measured bandwidth
//! ceiling.

use std::hint::black_box;
use std::time::Instant;

/// `/proc/stat` counts in ticks of `USER_HZ`, which Linux fixes at 100
/// for every architecture it exports the file on.
const TICKS_PER_S: f64 = 100.0;

/// Steal ticks of the aggregate `cpu` line of a `/proc/stat` text: the
/// eighth counter. `None` when the line or the column is missing
/// (kernels before 2.6.11, non-Linux `/proc`).
pub fn parse_steal_ticks(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Seconds of hypervisor steal since boot, summed over all CPUs.
pub fn steal_seconds() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    parse_steal_ticks(&text).map(|t| t as f64 / TICKS_PER_S)
}

/// Share of `busy_threads` CPUs' time stolen over an interval. Zero
/// when the host reports no steal column, so every interval is clean.
pub fn steal_frac(before: Option<f64>, after: Option<f64>, wall_s: f64, busy_threads: usize) -> f64 {
    match (before, after) {
        (Some(b), Some(a)) if wall_s > 0.0 => (a - b).max(0.0) / (wall_s * busy_threads as f64),
        _ => 0.0,
    }
}

/// A `kB` field of a `/proc` status text (`VmHWM`, `MemTotal`), in KiB.
pub fn parse_kib_field(text: &str, field: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].trim_start_matches(':').split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_kib_field(&t, "VmHWM"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A sysfs cache size such as `2048K` or `8M`, in bytes.
pub fn parse_cache_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

/// Largest cache sysfs reports for cpu0 (the last level), bytes.
/// Falls back to 32 MiB where sysfs has no cache directory.
pub fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size")).ok())
        .filter_map(|s| parse_cache_size(&s))
        .max()
        .unwrap_or(32 << 20)
}

fn mem_total_bytes() -> u64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|t| parse_kib_field(&t, "MemTotal"))
        .map_or(4 << 30, |kib| kib << 10)
}

/// What the two probe loops typically take on the 2-vCPU hosts this
/// benchmark was sized on: the host speed every timing is reported at.
pub const NOMINAL_CORE_S: f64 = 0.80e-3;
pub const NOMINAL_MEMORY_S: f64 = 4.0e-3;

/// Two fixed loops that nothing in the repo can change; how long they
/// take says how fast the host is right now. One is bound by the core
/// (a dependent multiply-add chain over 32 KiB), one by memory (a
/// sparse-product-like pass streaming 12 MiB and gathering from 2 MiB).
///
/// Why: on a shared host the same code runs up to 1.7x slower for
/// seconds or minutes at a time with no steal reported, because a
/// neighbour takes the core's other hardware thread or the memory
/// bandwidth. The two loops see both, so a timing divided by their
/// slowdown repeats where the raw timing does not.
pub struct SpeedProbe {
    idx: Vec<u32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    small: Vec<f64>,
}

/// `(core, memory)` seconds of one probe.
pub type ProbeTime = (f64, f64);

impl SpeedProbe {
    pub fn new() -> SpeedProbe {
        let (nnz, n) = (1usize << 20, 1usize << 18);
        let mut state = 0x2545f4914f6cdd1du64;
        let idx = (0..nnz)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n as u64) as u32
            })
            .collect();
        let small = (0..4096).map(|i| 1.0 + i as f64 * 1e-6).collect();
        SpeedProbe { idx, vals: vec![1.000001; nnz], x: vec![0.5; n], small }
    }

    pub fn run(&self) -> ProbeTime {
        let t0 = Instant::now();
        let mut a = 0.0f64;
        for r in 0..100 {
            for (k, v) in self.small.iter().enumerate() {
                a = a * 0.999 + v * (k + r) as f64;
            }
        }
        black_box(a);
        let core_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut acc = [0.0f64; 4];
        for (k, (&i, &v)) in self.idx.iter().zip(&self.vals).enumerate() {
            acc[k & 3] += v * self.x[i as usize];
        }
        black_box(acc);
        (core_s, t1.elapsed().as_secs_f64())
    }
}

/// How much slower than nominal the host ran between two probes, for
/// work that at nominal speed spends `memory_share` of its time bound
/// by memory and the rest by the core.
pub fn slowdown(before: ProbeTime, after: ProbeTime, memory_share: f64) -> f64 {
    let core = (before.0 + after.0) / 2.0 / NOMINAL_CORE_S;
    let memory = (before.1 + after.1) / 2.0 / NOMINAL_MEMORY_S;
    (1.0 - memory_share) * core + memory_share * memory
}

pub struct Triad {
    pub gbs: f64,
    pub array_bytes: u64,
    pub llc_bytes: u64,
}

/// Single-thread STREAM triad `a = b + s*c`. Each array is four times
/// the last-level cache, capped at an eighth of RAM so three of them
/// always fit; best of two passes after a first-touch pass, counting
/// 24 bytes per element (two loads and a store).
pub fn triad() -> Triad {
    let llc = llc_bytes();
    let array_bytes = (4 * llc).min(mem_total_bytes() / 8);
    let n = (array_bytes / 8) as usize;
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let mut a = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    for pass in 0..3 {
        let t0 = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + 3.0 * ci;
        }
        black_box(&mut a);
        if pass > 0 {
            best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    Triad { gbs: 24.0 * n as f64 / best / 1e9, array_bytes: n as u64 * 8, llc_bytes: llc }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  1500669 66853 350409 3059656 17914 0 2940 84208 0 0\n\
                        cpu0 657945 33417 162522 1628376 11954 0 1683 42732 0 0\n\
                        intr 12345\n";

    #[test]
    fn steal_is_the_eighth_counter_of_the_aggregate_line() {
        assert_eq!(parse_steal_ticks(STAT), Some(84208));
    }

    #[test]
    fn missing_steal_column_is_none_and_reads_clean() {
        assert_eq!(parse_steal_ticks("cpu  1 2 3 4 5 6 7\n"), None);
        assert_eq!(parse_steal_ticks("intr 1 2 3\n"), None);
        assert_eq!(steal_frac(None, None, 1.0, 2), 0.0);
    }

    #[test]
    fn steal_frac_is_per_busy_thread() {
        // 60 ms stolen in 1 s: 6 % of one thread, 3 % of two.
        assert!((steal_frac(Some(10.0), Some(10.06), 1.0, 1) - 0.06).abs() < 1e-12);
        assert!((steal_frac(Some(10.0), Some(10.06), 1.0, 2) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn slowdown_weighs_the_two_probes_by_the_memory_share() {
        let nominal = (NOMINAL_CORE_S, NOMINAL_MEMORY_S);
        assert!((slowdown(nominal, nominal, 0.3) - 1.0).abs() < 1e-12);
        // Core 1.5x slower before and after, memory nominal.
        let slow_core = (1.5 * NOMINAL_CORE_S, NOMINAL_MEMORY_S);
        assert!((slowdown(slow_core, slow_core, 0.0) - 1.5).abs() < 1e-12);
        assert!((slowdown(slow_core, slow_core, 1.0) - 1.0).abs() < 1e-12);
        assert!((slowdown(slow_core, nominal, 0.5) - 1.125).abs() < 1e-12);
    }

    #[test]
    fn status_fields_and_cache_sizes_parse() {
        let status = "Name:\tx\nVmHWM:\t    1556 kB\nVmRSS:\t 900 kB\n";
        assert_eq!(parse_kib_field(status, "VmHWM"), Some(1556));
        assert_eq!(parse_kib_field(status, "VmSwap"), None);
        assert_eq!(parse_cache_size("2048K\n"), Some(2048 << 10));
        assert_eq!(parse_cache_size("8M"), Some(8 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
    }
}
