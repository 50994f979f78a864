//! The unified execution context.
//!
//! [`ExecCtx`] lives here, at the bottom of the crate graph, so every
//! layer shares it without a dependency cycle: the one context object
//! threaded through the whole pipeline — the parallel-dispatch policy
//! (worker count, work threshold, oversubscription), checked mode, the
//! [`Obs`] telemetry handle, the fast-tier policy,
//! and the workspace's only two fork/join primitives
//! ([`ExecCtx::par_blocks`], [`ExecCtx::par_ranges`]). Compilers,
//! engines, kernels, the SPMD machine and the solvers all take
//! `&ExecCtx` instead of growing per-capability `_exec`/`_obs`
//! parameter variants.
//!
//! The dispatch policy:
//!
//! * **threads** — how many workers a parallel region may use
//!   (`0` = one per hardware thread, `1` = stay serial);
//! * **threshold** — the work size (stored nonzeros, or the
//!   equivalent flop count for vector ops) below which parallel
//!   dispatch is refused. Small operands lose more to fork/join and
//!   cache-line ping-pong than they gain, and — just as important for
//!   this reproduction — staying serial below the threshold keeps the
//!   specialized kernels *byte-identical* to the pre-parallel library,
//!   which the engine tests assert.

use std::sync::OnceLock;

use bernoulli_obs::Obs;

/// Default minimum stored-nonzero count before a kernel goes parallel.
///
/// ~32k multiply-adds is a few microseconds of serial work — roughly
/// where fork/join overhead (thread wake-up plus one pass of cache
/// warm-up per worker) stops dominating on commodity hardware.
pub const DEFAULT_PAR_THRESHOLD_NNZ: usize = 32_768;

/// The machine's hardware parallelism, queried once per process: the
/// size gates ask on every vector op.
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The workspace's one fork/join region: `f` on every task — the first
/// on the calling thread, each other on its own scoped thread — with
/// the results in task order. A panic in any task is re-raised on the
/// caller with its payload, after `thread::scope` has joined every
/// worker.
fn fork_join<T: Send, R: Send>(
    mut tasks: impl Iterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let Some(first) = tasks.next() else { return Vec::new() };
    let f = &f;
    std::thread::scope(|s| {
        let workers: Vec<_> = tasks.map(|task| s.spawn(move || f(task))).collect();
        let mut out = Vec::with_capacity(workers.len() + 1);
        out.push(f(first));
        for w in workers {
            out.push(w.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        out
    })
}

/// The unified execution context: everything the pipeline needs to
/// know about *how* to run, in one cloneable handle.
///
/// `ExecCtx::default()` is the zero-overhead baseline: serial,
/// observability disabled, never a thread spawned.
/// All the `compile(a)`-style convenience entry points are defined as
/// the ctx-taking form applied to this default.
#[derive(Clone, Debug)]
pub struct ExecCtx {
    /// Worker threads for parallel regions: `0` = one per hardware
    /// thread of this machine, `1` = serial, `n` = exactly `n`.
    threads: usize,
    /// Operations with less work (stored nonzeros) than this stay on
    /// the serial kernels.
    par_threshold_nnz: usize,
    checked: bool,
    oversubscribe: bool,
    obs: Obs,
    fast: bool,
}

impl Default for ExecCtx {
    /// Serial, observability disabled: the exact behavior of the
    /// historical no-argument entry points.
    fn default() -> ExecCtx {
        ExecCtx::serial()
    }
}

impl ExecCtx {
    fn new(threads: usize, par_threshold_nnz: usize) -> ExecCtx {
        ExecCtx {
            threads,
            par_threshold_nnz,
            checked: false,
            oversubscribe: false,
            obs: Obs::disabled(),
            fast: false,
        }
    }

    /// Serial context: serial kernels only, whatever the size;
    /// observability disabled. Identical to `ExecCtx::default()`.
    pub fn serial() -> ExecCtx {
        ExecCtx::new(1, usize::MAX)
    }

    /// Thresholded parallel dispatch on the machine's default worker
    /// count; small operations stay serial.
    pub fn parallel() -> ExecCtx {
        ExecCtx::new(0, DEFAULT_PAR_THRESHOLD_NNZ)
    }

    /// Thresholded parallel dispatch on exactly `threads` workers.
    pub fn with_threads(threads: usize) -> ExecCtx {
        ExecCtx::new(threads, DEFAULT_PAR_THRESHOLD_NNZ)
    }

    /// Replace the parallel-dispatch work threshold.
    pub fn threshold(mut self, nnz: usize) -> ExecCtx {
        self.par_threshold_nnz = nnz;
        self
    }

    /// Enable or disable checked mode: engines validate operand
    /// invariants (the `bernoulli-analysis` sanitizer) before compiling
    /// against them, refusing corrupt matrices instead of computing
    /// garbage.
    pub fn checked(mut self, yes: bool) -> ExecCtx {
        self.checked = yes;
        self
    }

    /// Attach a telemetry handle; every layer the ctx flows through
    /// (planner, engines, kernels, SPMD machine, solvers) reports to
    /// it.
    pub fn instrument(mut self, obs: Obs) -> ExecCtx {
        self.obs = obs;
        self
    }

    /// Arm the certified bounds-check-free microkernel tier
    /// ([`crate::fast`]). Off by default — the default path stays
    /// bitwise-pinned by the historical goldens. When on, engines
    /// certify the operand once at compile time (the full `Validate`
    /// sanitizer) and dispatch `Strategy::Specialized` onto the fast
    /// kernels; matrices the sanitizer rejects, and formats without a
    /// fast kernel, silently stay on the reference tier (the obs
    /// `strategies` stream records which tier ran).
    pub fn fast_kernels(mut self, yes: bool) -> ExecCtx {
        self.fast = yes;
        self
    }

    /// Allow more workers than the machine has hardware threads. Off by
    /// default: a requested count above the hardware parallelism is
    /// pure fork/join overhead, so engines downgrade such plans to the
    /// serial tier. Tests that pin the `Parallel` strategy on small
    /// hosts turn this on.
    pub fn oversubscribe(mut self, yes: bool) -> ExecCtx {
        self.oversubscribe = yes;
        self
    }

    /// The parallel-dispatch work threshold in force.
    pub fn par_threshold_nnz(&self) -> usize {
        self.par_threshold_nnz
    }

    /// Is checked mode on?
    pub fn is_checked(&self) -> bool {
        self.checked
    }

    /// The telemetry handle (disabled unless [`ExecCtx::instrument`]
    /// attached one).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Is the certified fast-kernel tier armed?
    pub fn fast(&self) -> bool {
        self.fast
    }

    /// The concrete worker count this context resolves to (`threads`,
    /// with `0` resolved to the machine's hardware parallelism).
    pub fn threads_hint(&self) -> usize {
        if self.threads == 0 {
            hardware_threads()
        } else {
            self.threads
        }
    }

    /// The worker count that can actually run concurrently:
    /// [`threads_hint`](ExecCtx::threads_hint) clamped to the machine's
    /// hardware parallelism unless oversubscription is allowed. A
    /// result of 1 means a parallel plan would be pure fork/join
    /// overhead, so engines downgrade it to the serial tier.
    pub fn effective_workers(&self) -> usize {
        let hint = self.threads_hint();
        if self.oversubscribe {
            hint
        } else {
            hint.min(hardware_threads())
        }
    }

    /// Should an operation of `work` stored nonzeros run parallel?
    pub fn should_parallelize(&self, work: usize) -> bool {
        self.threads_hint() > 1 && work >= self.par_threshold_nnz
    }

    /// Fork/join over an output: split `y` into one contiguous block
    /// per worker — a whole number of `unit`-element units; a length
    /// that is no multiple of `unit` leaves its remainder in a final,
    /// shorter block — and run `body(offset, block)` on each. Every
    /// element lies in exactly one block and the order inside a block
    /// is the body's own, so the chunking never shows in an
    /// element-wise result. On one worker the body runs inline over the
    /// whole of `y`: no thread, no allocation.
    pub fn par_blocks<T: Send>(
        &self,
        y: &mut [T],
        unit: usize,
        body: impl Fn(usize, &mut [T]) + Sync,
    ) {
        let t = self.threads_hint();
        if t <= 1 || y.is_empty() {
            return body(0, y);
        }
        let chunk = (y.len() / unit).div_ceil(t).max(1) * unit;
        fork_join(y.chunks_mut(chunk).enumerate(), |(ci, block)| body(ci * chunk, block));
    }

    /// Fork/join over an index space: cut `0..items` into one
    /// contiguous range per worker and return `f(lo, hi)` per range, in
    /// range order — a reduction over the result is deterministic for a
    /// given worker count. One range (the whole, inline) on one worker
    /// or for fewer than two items.
    pub fn par_ranges<R: Send>(
        &self,
        items: usize,
        f: impl Fn(usize, usize) -> R + Sync,
    ) -> Vec<R> {
        let nchunks = self.threads_hint().min(items);
        if nchunks <= 1 {
            return vec![f(0, items)];
        }
        let per = items.div_ceil(nchunks);
        let los = (0..nchunks).map(|c| (c * per).min(items));
        fork_join(los, |lo| f(lo, (lo + per).min(items)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_never_parallelizes() {
        let e = ExecCtx::serial();
        assert_eq!(e.threads_hint(), 1);
        assert!(!e.should_parallelize(usize::MAX - 1));
    }

    #[test]
    fn threshold_gates_dispatch() {
        let e = ExecCtx::with_threads(4).threshold(1000);
        assert!(!e.should_parallelize(999));
        assert!(e.should_parallelize(1000));
    }

    #[test]
    fn zero_resolves_to_the_hardware_parallelism() {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(ExecCtx::parallel().threads_hint(), hw);
        assert_eq!(ExecCtx::with_threads(3).threads_hint(), 3);
    }

    #[test]
    fn default_ctx_is_serial_uninstrumented() {
        let ctx = ExecCtx::default();
        assert_eq!(ctx.threads_hint(), 1);
        assert_eq!(ctx.par_threshold_nnz(), usize::MAX);
        assert!(!ctx.is_checked());
        assert!(!ctx.obs().is_enabled());
        assert!(!ctx.fast());
    }

    #[test]
    fn effective_workers_clamps_to_hardware_unless_oversubscribed() {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let e = ExecCtx::with_threads(hw + 7);
        assert_eq!(e.effective_workers(), hw);
        assert_eq!(e.oversubscribe(true).effective_workers(), hw + 7);
        assert_eq!(ExecCtx::serial().effective_workers(), 1);
    }

    #[test]
    fn fast_tier_is_opt_in() {
        assert!(!ExecCtx::serial().fast());
        assert!(ExecCtx::serial().fast_kernels(true).fast());
        assert!(!ExecCtx::serial().fast_kernels(true).fast_kernels(false).fast());
    }
}
