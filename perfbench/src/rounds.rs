//! The measurement protocol: calibrated rounds, steal gating,
//! host-speed normalisation, and median estimators.
//!
//! A run of this benchmark on a shared 2-vCPU host meets two kinds of
//! interference. Bursts of hypervisor *steal* slow single-thread work
//! by 1.3–1.7x and a two-thread lock-step solve by up to 7x; they show
//! in `/proc/stat`, so timing is taken in whole rounds with the steal
//! counter read around each, and rounds that lost more than 3 % of
//! their busy threads' time are left out. Neighbours on the same core
//! or memory controller slow the same code by up to 1.7x for seconds
//! to minutes and show nowhere; against those every round is cut into
//! slices between two runs of a fixed probe ([`host::SpeedProbe`]), and
//! each slice's timings are divided by how much slower than nominal
//! the probe ran.

use crate::host::{self, ProbeTime, SpeedProbe};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use std::time::Instant;

/// Steal above this share of a round's busy-thread time marks it dirty.
const CLEAN_STEAL: f64 = 0.03;
/// Rounds fitting in the nominal timed phase.
const ROUNDS_PER_RUN: f64 = 18.0;
/// The run extends (up to `CAP`) until this many rounds are clean.
const WANT_CLEAN: usize = 15;
/// Below this many clean rounds the estimators fall back to all rounds.
const MIN_CLEAN: usize = 8;
/// Slices a round is cut into, each between two host-speed probes.
const SLICES: usize = 8;
/// Hard cap on the timed phase, as a multiple of `--seconds`.
const CAP: f64 = 1.5;

/// One metric as reported: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// A workload after its set-up: closed loop, one client.
pub trait Workload {
    /// Threads the workload keeps runnable (steal is charged per
    /// busy thread).
    fn busy_threads(&self) -> usize {
        1
    }

    /// Requests come in indivisible passes of this many.
    fn unit(&self) -> usize {
        1
    }

    /// Share of a request's time, on a host at nominal speed, that
    /// scales with the memory-bound probe; the rest scales with the
    /// core-bound one. Fitted once per workload from rounds recorded
    /// across fast and slow host phases (README, "Noise protocol").
    fn memory_share(&self) -> f64;

    /// How fast the host is right now, on the threads the workload
    /// runs on: the calling thread unless overridden.
    fn host_probe(&self) -> ProbeTime {
        probe()
    }

    /// Check the outputs of the set-up's first (cold) requests against
    /// the oracle and build the references later rounds compare with.
    /// Returns `(attempted, failed)`. With `corrupt` the oracle's own
    /// reference is falsified, so a working check must report failures.
    fn verify_setup(&mut self, corrupt: bool) -> (u64, u64);

    /// Serve `n` requests one after another, pushing each one's latency
    /// in microseconds; outputs are checked between requests, outside
    /// the timed interval. Returns how many failed.
    fn round(&mut self, n: usize, lat_us: &mut Vec<f64>) -> u64;

    /// Traced requests for about `seconds`, then layer probes. Returns
    /// the workload's own per-layer metrics and the request rate the
    /// caller saw with tracing on, at nominal host speed (the host
    /// probed before and after the traced requests).
    fn trace(&mut self, seconds: f64, tracer: &mut Tracer) -> (Vec<Metric>, f64);
}

/// Runs the host-speed probe on this thread (built on first use).
pub fn probe() -> ProbeTime {
    thread_local!(static PROBE: SpeedProbe = SpeedProbe::new());
    PROBE.with(SpeedProbe::run)
}

/// Requests served back to back between two host-speed probes.
pub struct Slice {
    pub lat_us: Vec<f64>,
    /// How much slower than nominal the host ran (1 = nominal).
    pub slowdown: f64,
}

impl Slice {
    /// Requests per second of service time (checks excluded), as timed.
    pub fn raw_rate(&self) -> f64 {
        self.lat_us.len() as f64 / (self.lat_us.iter().sum::<f64>() / 1e6)
    }

    /// The same at nominal host speed.
    pub fn rate(&self) -> f64 {
        self.raw_rate() * self.slowdown
    }
}

pub struct Round {
    pub slices: Vec<Slice>,
    pub wall_s: f64,
    pub steal_frac: f64,
}

impl Round {
    pub fn clean(&self) -> bool {
        self.steal_frac <= CLEAN_STEAL
    }
}

#[derive(Default)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
}

/// One round: up to `SLICES` slices of whole passes with a probe
/// before, between and after them, and the steal counter read around
/// it all.
pub fn run_round<W: Workload>(w: &mut W, n: usize, counts: &mut Counts) -> Round {
    let passes = n / w.unit();
    let count = passes.min(SLICES);
    let steal0 = host::steal_seconds();
    let t0 = Instant::now();
    let mut slices = Vec::with_capacity(count);
    let mut before = w.host_probe();
    for s in 0..count {
        let requests = (passes * (s + 1) / count - passes * s / count) * w.unit();
        let mut lat_us = Vec::with_capacity(requests);
        counts.failed += w.round(requests, &mut lat_us);
        let after = w.host_probe();
        slices.push(Slice { lat_us, slowdown: host::slowdown(before, after, w.memory_share()) });
        before = after;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    counts.attempted += n as u64;
    let steal_frac = host::steal_frac(steal0, host::steal_seconds(), wall_s, w.busy_threads());
    Round { slices, wall_s, steal_frac }
}

/// Request count for a round of `target_s`, given that `n` requests
/// took `wall_s`: proportional, rounded to whole passes, at least one.
pub fn scale_count(n: usize, wall_s: f64, target_s: f64, unit: usize) -> usize {
    let want = n as f64 * target_s / wall_s.max(1e-9);
    ((want / unit as f64).round() as usize).max(1) * unit
}

/// Rounds spent sizing a round before settling for the last estimate.
const CALIBRATION_TRIES: usize = 10;

/// Warm up and size a round: double the count until a round is long
/// enough to extrapolate from, then rescale until a clean round of the
/// chosen size lands within a fifth of the target. One extrapolation
/// is not enough: the first rounds of a process run slow, and a stolen
/// round looks long, so either would undersize every later round.
pub fn calibrate<W: Workload>(w: &mut W, target_s: f64, counts: &mut Counts) -> usize {
    let mut n = w.unit();
    let mut tries = 0;
    loop {
        let r = run_round(w, n, counts);
        if r.wall_s < target_s / 4.0 {
            // Too short even if stolen from: doubling is safe.
            n *= 2;
            continue;
        }
        tries += 1;
        if !r.clean() && tries < CALIBRATION_TRIES {
            continue;
        }
        let scaled = scale_count(n, r.wall_s, target_s, w.unit());
        if (r.wall_s / target_s - 1.0).abs() <= 0.2 || scaled == n || tries >= CALIBRATION_TRIES {
            return scaled;
        }
        n = scaled;
    }
}

pub struct Timed {
    pub rounds: Vec<Round>,
    pub requests_per_round: usize,
}

/// The timed phase: whole rounds for `seconds`, extended up to
/// `CAP x seconds` while fewer than `WANT_CLEAN` rounds are clean.
pub fn measure<W: Workload>(w: &mut W, seconds: f64, counts: &mut Counts) -> Timed {
    let target_s = seconds / ROUNDS_PER_RUN;
    let n = calibrate(w, target_s, counts);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let clean = rounds.iter().filter(|r| r.clean()).count();
        let longest = rounds.iter().map(|r| r.wall_s).fold(target_s, f64::max);
        if elapsed >= seconds && (clean >= WANT_CLEAN || elapsed + longest > CAP * seconds) {
            break;
        }
        rounds.push(run_round(w, n, counts));
    }
    Timed { rounds, requests_per_round: n }
}

pub struct Summary {
    pub req_per_s: f64,
    /// The rate as timed, before host-speed normalisation.
    pub raw_req_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    /// Median slowdown of the slices used.
    pub slowdown: f64,
    pub samples: usize,
    pub rounds_total: usize,
    pub rounds_clean: usize,
    /// Too few clean rounds: the estimators used every round.
    pub contended: bool,
    /// Steal over the whole timed phase, as a share of busy-thread time.
    pub steal_frac: f64,
}

/// Median-of-slices rate and latency percentiles at nominal host
/// speed, over the clean rounds (all rounds when fewer than
/// `MIN_CLEAN` are clean).
pub fn summarize(rounds: &[Round]) -> Summary {
    let clean: Vec<&Round> = rounds.iter().filter(|r| r.clean()).collect();
    let contended = clean.len() < MIN_CLEAN;
    let used: Vec<&Round> = if contended { rounds.iter().collect() } else { clean.clone() };
    let slices: Vec<&Slice> = used.iter().flat_map(|r| &r.slices).collect();
    let over_slices = |f: fn(&Slice) -> f64| median(&slices.iter().map(|s| f(s)).collect::<Vec<_>>());
    let lat: Vec<f64> = slices.iter().flat_map(|s| s.lat_us.iter().map(|l| l / s.slowdown)).collect();
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    Summary {
        req_per_s: over_slices(Slice::rate),
        raw_req_per_s: over_slices(Slice::raw_rate),
        p50_us: median(&lat),
        p90_us: percentile(&lat, 90.0),
        p99_us: percentile(&lat, 99.0),
        slowdown: over_slices(|s| s.slowdown),
        samples: lat.len(),
        rounds_total: rounds.len(),
        rounds_clean: clean.len(),
        contended,
        steal_frac: rounds.iter().map(|r| r.steal_frac * r.wall_s).sum::<f64>() / wall.max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(lat_us: f64, n: usize, steal_frac: f64, slowdown: f64) -> Round {
        let slice = Slice { lat_us: vec![lat_us; n], slowdown };
        Round { slices: vec![slice], wall_s: lat_us * n as f64 / 1e6, steal_frac }
    }

    #[test]
    fn scale_count_is_proportional_in_whole_passes() {
        assert_eq!(scale_count(10, 0.5, 1.0, 1), 20);
        assert_eq!(scale_count(96, 0.012, 1.0, 96), 83 * 96);
        assert_eq!(scale_count(1, 5.0, 1.0, 1), 1);
        assert_eq!(scale_count(48, 1.0, 0.001, 48), 48);
    }

    #[test]
    fn dirty_rounds_are_left_out_of_the_estimators() {
        let mut rounds: Vec<Round> = (0..10).map(|_| round(100.0, 1000, 0.0, 1.0)).collect();
        rounds.push(round(700.0, 1000, 0.25, 1.0));
        let s = summarize(&rounds);
        assert!(!s.contended);
        assert_eq!((s.rounds_total, s.rounds_clean, s.samples), (11, 10, 10_000));
        assert!((s.req_per_s - 10_000.0).abs() < 1e-6);
        assert_eq!(s.p99_us, 100.0);
    }

    #[test]
    fn too_few_clean_rounds_fall_back_to_all() {
        let mut rounds: Vec<Round> = (0..3).map(|_| round(100.0, 10, 0.0, 1.0)).collect();
        rounds.extend((0..4).map(|_| round(200.0, 10, 0.2, 1.0)));
        let s = summarize(&rounds);
        assert!(s.contended);
        assert_eq!((s.rounds_clean, s.samples), (3, 70));
        assert_eq!(s.p50_us, 200.0);
    }

    #[test]
    fn a_slow_host_is_scaled_back_to_nominal() {
        // Half the slices ran on a host 1.25x slower and took 1.25x as long.
        let mut rounds: Vec<Round> = (0..8).map(|_| round(100.0, 100, 0.0, 1.0)).collect();
        rounds.extend((0..8).map(|_| round(125.0, 100, 0.0, 1.25)));
        let s = summarize(&rounds);
        assert!((s.req_per_s - 10_000.0).abs() < 1e-6);
        assert!((s.p50_us - 100.0).abs() < 1e-9 && (s.p99_us - 100.0).abs() < 1e-9);
        assert!((s.raw_req_per_s - 9_000.0).abs() < 1e-6);
    }

    struct Fixed {
        per_request: std::time::Duration,
    }

    impl Workload for Fixed {
        fn unit(&self) -> usize {
            4
        }
        fn memory_share(&self) -> f64 {
            0.5
        }
        fn host_probe(&self) -> ProbeTime {
            (host::NOMINAL_CORE_S, host::NOMINAL_MEMORY_S)
        }
        fn verify_setup(&mut self, _: bool) -> (u64, u64) {
            (0, 0)
        }
        fn round(&mut self, n: usize, lat_us: &mut Vec<f64>) -> u64 {
            for _ in 0..n {
                std::thread::sleep(self.per_request);
                lat_us.push(self.per_request.as_secs_f64() * 1e6);
            }
            0
        }
        fn trace(&mut self, _: f64, _: &mut Tracer) -> (Vec<Metric>, f64) {
            (Vec::new(), 0.0)
        }
    }

    #[test]
    fn calibration_sizes_a_round_near_its_target() {
        let mut w = Fixed { per_request: std::time::Duration::from_millis(2) };
        let mut counts = Counts::default();
        let n = calibrate(&mut w, 0.1, &mut counts);
        assert_eq!(n % 4, 0);
        // 2 ms sleeps overshoot by scheduler slack; allow a wide band.
        assert!((16..=52).contains(&n), "n = {n}");
        assert!(counts.attempted >= 4);
    }

    #[test]
    fn a_round_is_cut_into_slices_of_whole_passes() {
        let mut w = Fixed { per_request: std::time::Duration::from_micros(50) };
        let mut counts = Counts::default();
        let r = run_round(&mut w, 4 * 11, &mut counts);
        assert_eq!(r.slices.len(), SLICES);
        assert!(r.slices.iter().all(|s| s.lat_us.len() % 4 == 0 && s.slowdown == 1.0));
        assert_eq!(r.slices.iter().map(|s| s.lat_us.len()).sum::<usize>(), 44);
        assert_eq!(run_round(&mut w, 4 * 3, &mut counts).slices.len(), 3);
        assert_eq!(counts.attempted, 56);
    }
}
