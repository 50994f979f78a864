//! Shared-memory execution configuration and the unified execution
//! context.
//!
//! Two types live here, at the bottom of the crate graph, so every
//! layer shares them without a dependency cycle:
//!
//! * [`ExecConfig`] — the plain-data knobs: worker count, parallel
//!   work threshold, checked mode. `Copy`, comparable, cheap.
//! * [`ExecCtx`] — the one context object threaded through the whole
//!   pipeline: the config plus the [`Obs`] telemetry handle, the
//!   specialization policy, and a lazily built, *cached* rayon thread
//!   pool. Compilers, engines, kernels, the SPMD machine and the
//!   solvers all take `&ExecCtx` instead of growing per-capability
//!   `_exec`/`_obs` parameter variants.
//!
//! The config knobs:
//!
//! * **`threads`** — how many workers a parallel region may use
//!   (`0` = the rayon default, `1` = stay serial);
//! * **`par_threshold_nnz`** — the work size (stored nonzeros, or the
//!   equivalent flop count for vector ops) below which parallel
//!   dispatch is refused. Small operands lose more to fork/join and
//!   cache-line ping-pong than they gain, and — just as important for
//!   this reproduction — staying serial below the threshold keeps the
//!   specialized kernels *byte-identical* to the pre-parallel library,
//!   which the engine tests assert.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use bernoulli_obs::Obs;

/// Default minimum stored-nonzero count before a kernel goes parallel.
///
/// ~32k multiply-adds is a few microseconds of serial work — roughly
/// where fork/join overhead (thread wake-up plus one pass of cache
/// warm-up per worker) stops dominating on commodity hardware.
pub const DEFAULT_PAR_THRESHOLD_NNZ: usize = 32_768;

/// How (and whether) an operation may execute in parallel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads for parallel regions: `0` = rayon's default for
    /// this machine, `1` = serial, `n` = exactly `n`.
    pub threads: usize,
    /// Operations with less work (stored nonzeros) than this stay on
    /// the serial kernels.
    pub par_threshold_nnz: usize,
    /// Checked mode: engines validate operand invariants (the
    /// `bernoulli-analysis` sanitizer) before compiling against them,
    /// refusing corrupt matrices instead of computing garbage.
    pub checked: bool,
    /// Allow more workers than the machine has hardware threads.
    /// Off by default: a requested `threads` count above the hardware
    /// parallelism is pure fork/join overhead (`perfbench/run.sh`'s
    /// `formats.par_kernels.spmv.speedup_2t` reads ≤ 1× on a 1-core
    /// host), so engines downgrade such plans to the serial tier.
    /// Tests that pin the `Parallel` strategy on small hosts turn this
    /// on.
    pub oversubscribe: bool,
}

impl ExecConfig {
    /// Never parallelize: serial kernels only, whatever the size.
    pub fn serial() -> ExecConfig {
        ExecConfig {
            threads: 1,
            par_threshold_nnz: usize::MAX,
            checked: false,
            oversubscribe: false,
        }
    }

    /// Parallelize large operations on the machine's default worker
    /// count; small ones stay serial.
    pub fn parallel() -> ExecConfig {
        ExecConfig {
            threads: 0,
            par_threshold_nnz: DEFAULT_PAR_THRESHOLD_NNZ,
            checked: false,
            oversubscribe: false,
        }
    }

    /// Parallelize large operations on exactly `threads` workers.
    pub fn with_threads(threads: usize) -> ExecConfig {
        ExecConfig {
            threads,
            par_threshold_nnz: DEFAULT_PAR_THRESHOLD_NNZ,
            checked: false,
            oversubscribe: false,
        }
    }

    /// Replace the parallel-dispatch work threshold.
    pub fn threshold(mut self, nnz: usize) -> ExecConfig {
        self.par_threshold_nnz = nnz;
        self
    }

    /// Enable or disable checked mode (operand invariant validation at
    /// engine compile time).
    pub fn checked(mut self, yes: bool) -> ExecConfig {
        self.checked = yes;
        self
    }

    /// Allow worker counts above the machine's hardware parallelism
    /// (see the `oversubscribe` field).
    pub fn oversubscribe(mut self, yes: bool) -> ExecConfig {
        self.oversubscribe = yes;
        self
    }

    /// The concrete worker count this config resolves to (`threads`,
    /// with `0` resolved to rayon's default).
    pub fn threads_hint(&self) -> usize {
        if self.threads == 0 {
            rayon::current_num_threads().max(1)
        } else {
            self.threads
        }
    }

    /// The worker count that can actually run concurrently:
    /// [`threads_hint`](ExecConfig::threads_hint) clamped to the
    /// machine's hardware parallelism unless `oversubscribe` is set.
    /// A result of 1 means a parallel plan would be pure fork/join
    /// overhead, so engines downgrade it to the serial tier.
    pub fn effective_workers(&self) -> usize {
        let hint = self.threads_hint();
        if self.oversubscribe {
            hint
        } else {
            let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
            hint.min(hw)
        }
    }

    /// Should an operation of `work` stored nonzeros run parallel?
    pub fn should_parallelize(&self, work: usize) -> bool {
        self.threads_hint() > 1 && work >= self.par_threshold_nnz
    }
}

impl Default for ExecConfig {
    /// The default is [`ExecConfig::parallel`]: thresholded parallel
    /// dispatch on the machine's worker count.
    fn default() -> ExecConfig {
        ExecConfig::parallel()
    }
}

/// The cached pool slot shared by every clone of one [`ExecCtx`].
#[derive(Default)]
struct PoolCell {
    pool: OnceLock<rayon::ThreadPool>,
    builds: AtomicUsize,
}

impl std::fmt::Debug for PoolCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolCell")
            .field("built", &self.pool.get().is_some())
            .field("builds", &self.builds.load(Ordering::Relaxed))
            .finish()
    }
}

/// The unified execution context: everything the pipeline needs to
/// know about *how* to run, in one cloneable handle.
///
/// An `ExecCtx` carries
///
/// * the [`ExecConfig`] knobs (threads, parallel threshold, checked
///   mode),
/// * the [`Obs`] telemetry handle (disabled by default — zero cost),
/// * the **specialization policy** (whether engines may emit
///   format-specialized kernels; on by default), and
/// * a lazily built, **cached** rayon thread pool for explicit worker
///   counts. The pool is built at most once per ctx family — clones
///   share it — where the old `ExecConfig::install` rebuilt a fresh
///   `ThreadPoolBuilder` on every call.
///
/// `ExecCtx::default()` is the zero-overhead baseline: serial config,
/// observability disabled, specialization on, no pool ever built. All
/// the `compile(a)`-style convenience entry points are defined as the
/// ctx-taking form applied to this default.
#[derive(Clone, Debug)]
pub struct ExecCtx {
    config: ExecConfig,
    obs: Obs,
    specialize: bool,
    fast: bool,
    pool: Arc<PoolCell>,
}

impl Default for ExecCtx {
    /// Serial config, observability disabled, specialization on: the
    /// exact behavior of the historical no-argument entry points.
    fn default() -> ExecCtx {
        ExecCtx::serial()
    }
}

impl ExecCtx {
    fn from_cfg(config: ExecConfig) -> ExecCtx {
        ExecCtx {
            config,
            obs: Obs::disabled(),
            specialize: true,
            fast: false,
            pool: Arc::default(),
        }
    }

    /// Serial context: serial kernels only, observability disabled.
    /// Identical to `ExecCtx::default()`.
    pub fn serial() -> ExecCtx {
        ExecCtx::from_cfg(ExecConfig::serial())
    }

    /// Thresholded parallel dispatch on the machine's default worker
    /// count.
    pub fn parallel() -> ExecCtx {
        ExecCtx::from_cfg(ExecConfig::parallel())
    }

    /// Thresholded parallel dispatch on exactly `threads` workers.
    pub fn with_threads(threads: usize) -> ExecCtx {
        ExecCtx::from_cfg(ExecConfig::with_threads(threads))
    }

    /// Wrap an existing [`ExecConfig`] in a fresh context.
    pub fn with_config(config: ExecConfig) -> ExecCtx {
        ExecCtx::from_cfg(config)
    }

    /// Replace the parallel-dispatch work threshold.
    pub fn threshold(mut self, nnz: usize) -> ExecCtx {
        self.config.par_threshold_nnz = nnz;
        self
    }

    /// Enable or disable checked mode (operand invariant validation at
    /// engine compile time).
    pub fn checked(mut self, yes: bool) -> ExecCtx {
        self.config.checked = yes;
        self
    }

    /// Attach a telemetry handle; every layer the ctx flows through
    /// (planner, engines, kernels, SPMD machine, solvers) reports to
    /// it.
    pub fn instrument(mut self, obs: Obs) -> ExecCtx {
        self.obs = obs;
        self
    }

    /// Allow or forbid format-specialized kernels (the
    /// `Strategy::Specialized` tier); forbidding forces the relational
    /// interpreter, which is what the ablation benches measure.
    pub fn specialization(mut self, yes: bool) -> ExecCtx {
        self.specialize = yes;
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

    /// Allow worker counts above the machine's hardware parallelism
    /// (see [`ExecConfig::oversubscribe`]).
    pub fn oversubscribe(mut self, yes: bool) -> ExecCtx {
        self.config.oversubscribe = yes;
        self
    }

    /// The plain-data execution knobs.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// The telemetry handle (disabled unless [`ExecCtx::instrument`]
    /// attached one).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// May engines emit format-specialized kernels?
    pub fn specialize(&self) -> bool {
        self.specialize
    }

    /// Is the certified fast-kernel tier armed?
    pub fn fast(&self) -> bool {
        self.fast
    }

    /// The concrete worker count this context resolves to.
    pub fn threads_hint(&self) -> usize {
        self.config.threads_hint()
    }

    /// The worker count that can actually run concurrently (see
    /// [`ExecConfig::effective_workers`]).
    pub fn effective_workers(&self) -> usize {
        self.config.effective_workers()
    }

    /// Should an operation of `work` stored nonzeros run parallel?
    pub fn should_parallelize(&self, work: usize) -> bool {
        self.config.should_parallelize(work)
    }

    /// Run `f` with this context's worker count in effect for nested
    /// rayon calls.
    ///
    /// `threads == 0` (machine default) and `threads == 1` (serial —
    /// every parallel region in this workspace gates on
    /// [`threads_hint`](ExecCtx::threads_hint) first, so nothing
    /// inside `f` forks) run `f` inline: no pool, no allocation. An
    /// explicit count `n > 1` installs the cached pool, building it on
    /// first use only; clones of this ctx share the same pool.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        if self.config.threads <= 1 {
            f()
        } else {
            self.pool
                .pool
                .get_or_init(|| {
                    self.pool.builds.fetch_add(1, Ordering::Relaxed);
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(self.config.threads)
                        .build()
                        .expect("thread pool build")
                })
                .install(f)
        }
    }

    /// How many times this context (family — clones share the count)
    /// has built its thread pool. At most 1 by construction; exposed
    /// so tests can prove the cache works.
    pub fn pool_builds(&self) -> usize {
        self.pool.builds.load(Ordering::Relaxed)
    }
}

impl From<ExecConfig> for ExecCtx {
    fn from(config: ExecConfig) -> ExecCtx {
        ExecCtx::with_config(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_never_parallelizes() {
        let e = ExecConfig::serial();
        assert_eq!(e.threads_hint(), 1);
        assert!(!e.should_parallelize(usize::MAX - 1));
    }

    #[test]
    fn threshold_gates_dispatch() {
        let e = ExecConfig::with_threads(4).threshold(1000);
        assert!(!e.should_parallelize(999));
        assert!(e.should_parallelize(1000));
    }

    #[test]
    fn install_sets_worker_count() {
        let ctx = ExecCtx::with_threads(3);
        assert_eq!(ctx.install(rayon::current_num_threads), 3);
        assert_eq!(ctx.threads_hint(), 3);
    }

    #[test]
    fn zero_resolves_to_rayon_default() {
        let e = ExecConfig::parallel();
        assert_eq!(e.threads_hint(), rayon::current_num_threads().max(1));
    }

    #[test]
    fn default_ctx_is_serial_uninstrumented() {
        let ctx = ExecCtx::default();
        assert_eq!(*ctx.config(), ExecConfig::serial());
        assert!(!ctx.obs().is_enabled());
        assert!(ctx.specialize());
        assert!(!ctx.fast());
        assert_eq!(ctx.pool_builds(), 0);
    }

    #[test]
    fn effective_workers_clamps_to_hardware_unless_oversubscribed() {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let e = ExecConfig::with_threads(hw + 7);
        assert_eq!(e.effective_workers(), hw);
        assert_eq!(e.oversubscribe(true).effective_workers(), hw + 7);
        assert_eq!(ExecConfig::serial().effective_workers(), 1);
    }

    #[test]
    fn fast_tier_is_opt_in() {
        assert!(!ExecCtx::serial().fast());
        assert!(ExecCtx::serial().fast_kernels(true).fast());
        assert!(!ExecCtx::serial().fast_kernels(true).fast_kernels(false).fast());
    }

    #[test]
    fn pool_built_once_and_shared_by_clones() {
        let ctx = ExecCtx::with_threads(3).threshold(1);
        assert_eq!(ctx.pool_builds(), 0);
        for _ in 0..32 {
            assert_eq!(ctx.install(rayon::current_num_threads), 3);
        }
        let clone = ctx.clone();
        clone.install(|| ());
        assert_eq!(ctx.pool_builds(), 1);
        assert_eq!(clone.pool_builds(), 1);
    }

    #[test]
    fn serial_install_builds_no_pool() {
        let ctx = ExecCtx::serial();
        for _ in 0..32 {
            ctx.install(|| ());
        }
        assert_eq!(ctx.pool_builds(), 0);
        let dflt = ExecCtx::with_config(ExecConfig::parallel());
        dflt.install(|| ());
        assert_eq!(dflt.pool_builds(), 0);
    }
}
