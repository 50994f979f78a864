//! The simulated SPMD machine: processors, messages, collectives and
//! traffic accounting.
//!
//! [`Machine::run`] executes one closure per simulated processor and
//! hands each a [`Ctx`]. Processors are *persistent worker threads*
//! drawn from a per-`nprocs` [`PooledMachine`]: channels, the barrier
//! and thread stacks are built once and reused across runs, so
//! back-to-back `run` calls (an iterative solver driving many SPMD
//! phases) pay no spawn/teardown cost. Point-to-point messages are
//! typed payloads over unbounded channels (sends never block, so no
//! artificial deadlocks); `recv` matches on `(source, tag)` with a
//! pending buffer so that out-of-order arrivals from different sources
//! are handled like a real message-passing runtime's envelope matching.
//!
//! A receiver with nothing in its mailbox **polls before it parks**
//! when every rank can have a core (`nprocs ≤ available_parallelism`):
//! it probes the mailbox for at most `POLL_BUDGET` (200 µs) and only
//! then sleeps. Ranks of one iteration reach a collective within
//! microseconds of each other, and a futex sleep/wake pair costs ≈ 20 µs
//! — more than the collective. A poller that never gave up its core
//! would hold the one its peer needs — in an oversubscribed pool always,
//! and in a pool that fits whenever the OS has put two ranks on one core
//! (neither sleeps long enough to be migrated, so every receive would
//! burn the whole budget). Hence an oversubscribed pool parks at once,
//! and a polling rank yields to the scheduler between probes. Parked
//! or polling, a waiter also watches the pool's failure flag, so a rank
//! whose peer panicked unwinds instead of waiting for a message that
//! will never come, and [`PooledMachine::run`] re-raises the first panic.
//!
//! Every byte moved is counted in [`TrafficStats`] — the simulator's
//! substitute for the paper's SP-2 timings when distinguishing
//! communication-light from communication-heavy algorithms.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Barrier, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use bernoulli_formats::exec::hardware_threads;
use bernoulli_formats::ExecCtx;

/// How long a receiver polls an empty mailbox before parking (when it
/// polls at all, see the module docs). The waits an executor iteration
/// produces are the skew between ranks finishing the same kernel, tens
/// of microseconds; 200 µs covers those several times over, and bounds
/// what a rank burns when its peer is busy for real (set-up, an
/// inspector) to less than ten wake-ups' worth per receive.
const POLL_BUDGET: Duration = Duration::from_micros(200);

/// Longest uninterrupted sleep of a parked waiter: the bound on how
/// late it notices that a peer has failed.
const PARK_SLICE: Duration = Duration::from_millis(50);

/// A typed message payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    Empty,
    F64(Vec<f64>),
    Usize(Vec<usize>),
    /// Pairs of indices (e.g. `⟨proc, local⟩` translation answers).
    Pairs(Vec<(usize, usize)>),
}

impl Payload {
    /// Wire size in bytes (8 bytes per word, as on the SP-2).
    pub fn bytes(&self) -> u64 {
        match self {
            Payload::Empty => 0,
            Payload::F64(v) => 8 * v.len() as u64,
            Payload::Usize(v) => 8 * v.len() as u64,
            Payload::Pairs(v) => 16 * v.len() as u64,
        }
    }

    pub fn into_f64(self) -> Vec<f64> {
        match self {
            Payload::F64(v) => v,
            Payload::Empty => Vec::new(),
            other => panic!("expected F64 payload, got {other:?}"),
        }
    }

    pub fn into_usize(self) -> Vec<usize> {
        match self {
            Payload::Usize(v) => v,
            Payload::Empty => Vec::new(),
            other => panic!("expected Usize payload, got {other:?}"),
        }
    }

    pub fn into_pairs(self) -> Vec<(usize, usize)> {
        match self {
            Payload::Pairs(v) => v,
            Payload::Empty => Vec::new(),
            other => panic!("expected Pairs payload, got {other:?}"),
        }
    }
}

/// A simple latency/bandwidth network cost model (LogGP-flavoured):
/// a message of `b` payload bytes becomes visible to its receiver
/// `latency + b / bandwidth` after the send. [`Machine::run`] uses the
/// ideal (zero-cost) network; [`Machine::run_in`] applies a model,
/// which is what makes communication-volume differences (e.g. the
/// Chaos translation table's all-to-all rounds) visible in *time* and
/// makes communication/computation overlap worth something.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Per-message latency, seconds.
    pub latency_s: f64,
    /// Bandwidth, bytes per second.
    pub bytes_per_s: f64,
}

impl NetworkModel {
    /// An SP-2-flavoured interconnect scaled toward today's CPUs:
    /// 20 µs latency, 100 MB/s. It keeps the communication/computation
    /// balance in the regime the paper measured — in particular,
    /// inspector communication volume (the Chaos translation-table
    /// rounds) costs real time.
    pub fn sp2_scaled() -> NetworkModel {
        NetworkModel { latency_s: 20e-6, bytes_per_s: 100e6 }
    }

    fn delay(&self, bytes: u64) -> std::time::Duration {
        std::time::Duration::from_secs_f64(self.latency_s + bytes as f64 / self.bytes_per_s)
    }
}

#[derive(Debug)]
struct Envelope {
    from: usize,
    tag: u32,
    payload: Payload,
    /// Earliest instant the receiver may observe this message.
    ready_at: Option<std::time::Instant>,
}

/// Per-processor communication counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Point-to-point messages sent (collectives included).
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Barrier participations.
    pub barriers: u64,
    /// All-reduce participations.
    pub allreduces: u64,
    /// All-to-all participations.
    pub alltoalls: u64,
}

impl TrafficStats {
    /// Counter-wise difference (for phase measurement: snapshot before,
    /// subtract after). Saturates at zero per counter: snapshots taken
    /// across run boundaries (counters restart from zero each run) or
    /// passed in the wrong order previously panicked in debug builds on
    /// unchecked subtraction; a clamped delta is the useful answer for
    /// phase accounting either way.
    pub fn since(&self, earlier: &TrafficStats) -> TrafficStats {
        TrafficStats {
            msgs_sent: self.msgs_sent.saturating_sub(earlier.msgs_sent),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            barriers: self.barriers.saturating_sub(earlier.barriers),
            allreduces: self.allreduces.saturating_sub(earlier.allreduces),
            alltoalls: self.alltoalls.saturating_sub(earlier.alltoalls),
        }
    }

    /// Plain-data mirror for the observability layer.
    pub fn to_sample(&self) -> bernoulli_obs::events::TrafficSample {
        bernoulli_obs::events::TrafficSample {
            msgs_sent: self.msgs_sent,
            bytes_sent: self.bytes_sent,
            barriers: self.barriers,
            allreduces: self.allreduces,
            alltoalls: self.alltoalls,
        }
    }

    /// Counter-wise sum, for aggregating across processors.
    pub fn merged(stats: &[TrafficStats]) -> TrafficStats {
        let mut out = TrafficStats::default();
        for s in stats {
            out.msgs_sent += s.msgs_sent;
            out.bytes_sent += s.bytes_sent;
            out.barriers += s.barriers;
            out.allreduces += s.allreduces;
            out.alltoalls += s.alltoalls;
        }
        out
    }
}

/// The per-processor handle: rank, messaging, collectives, counters.
pub struct Ctx {
    rank: usize,
    nprocs: usize,
    txs: Vec<Sender<Envelope>>,
    rx: Receiver<Envelope>,
    pending: Vec<Envelope>,
    shared: Arc<Shared>,
    stats: TrafficStats,
    coll_seq: u32,
    network: Option<NetworkModel>,
}

/// Tag space reserved for collectives (user tags must stay below).
const COLL_TAG_BASE: u32 = 0x4000_0000;

/// [`Shared::failed`] while no rank of the run has panicked.
const NO_RANK: usize = usize::MAX;

/// Payload a waiter unwinds with once a peer has failed. Raised with
/// `resume_unwind`, so the panic hook stays silent: the peer's own
/// panic is the one reported and re-raised.
struct PeerFailed;

/// What the ranks of one pool share besides their mailboxes.
struct Shared {
    nprocs: usize,
    /// Whether an idle receiver polls before parking: every rank can
    /// have a core of its own.
    poll: bool,
    /// The first rank whose job panicked in the current run.
    failed: AtomicUsize,
    /// [`Ctx::barrier`]: `(ranks waiting, generation)`.
    barrier: Mutex<(usize, u64)>,
    barrier_cv: Condvar,
    /// The workers' end-of-run synchronisation. Apart from the barrier
    /// above: a failed rank waits here while a survivor may still sit
    /// in a user barrier, and the two must not release each other.
    run_barrier: Barrier,
}

impl Shared {
    /// Unwind if a rank of this run has panicked.
    fn check_peers(&self) {
        if self.failed.load(Ordering::Acquire) != NO_RANK {
            resume_unwind(Box::new(PeerFailed));
        }
    }

    /// A generation barrier whose waiters leave when a peer fails.
    fn barrier_wait(&self) {
        let mut st = self.barrier.lock().expect("no code panics under the barrier lock");
        st.0 += 1;
        if st.0 == self.nprocs {
            *st = (0, st.1 + 1);
            self.barrier_cv.notify_all();
            return;
        }
        let generation = st.1;
        while st.1 == generation {
            if self.failed.load(Ordering::Acquire) != NO_RANK {
                st.0 -= 1;
                drop(st);
                resume_unwind(Box::new(PeerFailed));
            }
            st = self
                .barrier_cv
                .wait_timeout(st, PARK_SLICE)
                .expect("no code panics under the barrier lock")
                .0;
        }
    }
}

impl Ctx {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Current traffic counters (snapshot; use
    /// [`TrafficStats::since`] for phase deltas).
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// Send `payload` to processor `to` with a user `tag`
    /// (< `0x4000_0000`). Sending to self is allowed.
    pub fn send(&mut self, to: usize, tag: u32, payload: Payload) {
        assert!(tag < COLL_TAG_BASE, "user tags must be < {COLL_TAG_BASE:#x}");
        self.send_raw(to, tag, payload);
    }

    fn send_raw(&mut self, to: usize, tag: u32, payload: Payload) {
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += payload.bytes();
        let ready_at = self
            .network
            .map(|m| std::time::Instant::now() + m.delay(payload.bytes()));
        self.txs[to]
            .send(Envelope { from: self.rank, tag, payload, ready_at })
            .expect("peer mailbox closed");
    }

    fn deliver(env: Envelope) -> Payload {
        if let Some(ready) = env.ready_at {
            // Model the wire: the message is not visible before `ready`.
            // Sleep through long remainders (frees the core when many
            // simulated processors oversubscribe the host), then spin
            // out the tail for accuracy.
            loop {
                let now = std::time::Instant::now();
                if now >= ready {
                    break;
                }
                let remainder = ready - now;
                if remainder > std::time::Duration::from_micros(200) {
                    std::thread::sleep(remainder - std::time::Duration::from_micros(100));
                } else {
                    std::thread::yield_now();
                }
            }
        }
        env.payload
    }

    /// Blocking receive matching `(from, tag)`. Unwinds if a peer's
    /// job panics while this rank waits.
    pub fn recv(&mut self, from: usize, tag: u32) -> Payload {
        if let Some(k) = self.pending.iter().position(|e| e.from == from && e.tag == tag) {
            return Self::deliver(self.pending.swap_remove(k));
        }
        loop {
            let env = self.next_envelope();
            if env.from == from && env.tag == tag {
                return Self::deliver(env);
            }
            self.pending.push(env);
        }
    }

    /// Wait for the next envelope: poll for [`POLL_BUDGET`] if this
    /// pool polls, then park in [`PARK_SLICE`]s.
    fn next_envelope(&mut self) -> Envelope {
        if let Ok(env) = self.rx.try_recv() {
            return env;
        }
        if self.shared.poll {
            let give_up = Instant::now() + POLL_BUDGET;
            while Instant::now() < give_up {
                std::thread::yield_now();
                if let Ok(env) = self.rx.try_recv() {
                    return env;
                }
                self.shared.check_peers();
            }
        }
        loop {
            self.shared.check_peers();
            match self.rx.recv_timeout(PARK_SLICE) {
                Ok(env) => return env,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => panic!("machine shut down while receiving"),
            }
        }
    }

    /// Synchronise all processors. Unwinds if a peer's job panics
    /// while this rank waits.
    pub fn barrier(&mut self) {
        self.stats.barriers += 1;
        self.shared.barrier_wait();
    }

    fn next_coll_tag(&mut self) -> u32 {
        let t = COLL_TAG_BASE + self.coll_seq;
        self.coll_seq = self.coll_seq.wrapping_add(1);
        t
    }

    /// Generic element-wise all-reduce of a short slice over a binomial
    /// tree: ⌈log₂P⌉ reduce rounds up to rank 0 and the mirrored
    /// broadcast back down — the O(log P) critical path a real MPI
    /// implementation has, which is what keeps the modelled all-reduce
    /// latency honest at P = 64 (a star would serialize P−1 receives at
    /// the root). Every element is combined in the order a scalar
    /// all-reduce would combine it.
    fn all_reduce_with(&mut self, xs: &mut [f64], op: impl Fn(f64, f64) -> f64) {
        self.stats.allreduces += 1;
        let reduce_tag = self.next_coll_tag();
        let bcast_tag = self.next_coll_tag();
        let p = self.nprocs;
        let me = self.rank;
        let n = xs.len();
        let recv_from = |ctx: &mut Ctx, src: usize, tag: u32| {
            let got = ctx.recv(src, tag).into_f64();
            assert_eq!(got.len(), n, "all-reduce length differs on rank {src}");
            got
        };
        // Reduce toward rank 0.
        let mut step = 1;
        while step < p {
            if me % (2 * step) == step {
                self.send_raw(me - step, reduce_tag, Payload::F64(xs.to_vec()));
                break;
            }
            if me.is_multiple_of(2 * step) {
                let src = me + step;
                if src < p {
                    for (x, got) in xs.iter_mut().zip(recv_from(self, src, reduce_tag)) {
                        *x = op(*x, got);
                    }
                }
            }
            step *= 2;
        }
        // Broadcast back down the mirrored tree.
        let mut top = 1;
        while top < p {
            top *= 2;
        }
        let mut step = top / 2;
        while step >= 1 {
            if me.is_multiple_of(2 * step) {
                let dst = me + step;
                if dst < p {
                    self.send_raw(dst, bcast_tag, Payload::F64(xs.to_vec()));
                }
            } else if me % (2 * step) == step {
                xs.copy_from_slice(&recv_from(self, me - step, bcast_tag));
            }
            if step == 1 {
                break;
            }
            step /= 2;
        }
    }

    fn all_reduce_scalar(&mut self, x: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        let mut xs = [x];
        self.all_reduce_with(&mut xs, op);
        xs[0]
    }

    /// Global sum reduction.
    pub fn all_reduce_sum(&mut self, x: f64) -> f64 {
        self.all_reduce_scalar(x, |a, b| a + b)
    }

    /// Element-wise global sums of a short slice in one reduction (one
    /// message where [`Ctx::all_reduce_sum`] per element would send
    /// `xs.len()`); each sum has the bits the scalar call gives.
    pub fn all_reduce_sums(&mut self, xs: &mut [f64]) {
        self.all_reduce_with(xs, |a, b| a + b)
    }

    /// Global max reduction.
    pub fn all_reduce_max(&mut self, x: f64) -> f64 {
        self.all_reduce_scalar(x, f64::max)
    }

    /// Full exchange: `out[p]` goes to processor `p`; returns what each
    /// processor sent here (`in[p]` from processor `p`). The self slot
    /// is moved without touching the wire.
    pub fn all_to_all(&mut self, mut out: Vec<Payload>) -> Vec<Payload> {
        assert_eq!(out.len(), self.nprocs, "one payload per destination");
        self.stats.alltoalls += 1;
        let tag = self.next_coll_tag();
        let mine = std::mem::replace(&mut out[self.rank], Payload::Empty);
        let rank = self.rank;
        for (p, slot) in out.iter_mut().enumerate() {
            if p != rank {
                let pl = std::mem::replace(slot, Payload::Empty);
                self.send_raw(p, tag, pl);
            }
        }
        let mut inbox: Vec<Payload> = (0..self.nprocs).map(|_| Payload::Empty).collect();
        inbox[rank] = mine;
        for (p, slot) in inbox.iter_mut().enumerate() {
            if p != rank {
                *slot = self.recv(p, tag);
            }
        }
        inbox
    }
}

/// The simulated machine (static facade over pooled workers).
pub struct Machine;

/// Results of one SPMD run: per-processor return values and traffic.
pub struct RunOutput<T> {
    pub results: Vec<T>,
    pub traffic: Vec<TrafficStats>,
}

impl<T> RunOutput<T> {
    /// Total traffic across all processors.
    pub fn total_traffic(&self) -> TrafficStats {
        TrafficStats::merged(&self.traffic)
    }
}

/// One queued unit of work for a worker: the erased per-rank closure
/// plus the network model for this run.
struct JobMsg {
    job: Box<dyn FnOnce(&mut Ctx) + Send + 'static>,
    network: Option<NetworkModel>,
}

/// A persistent pool of `nprocs` simulated processors.
///
/// Channels, the barrier and the worker threads are created once, at
/// construction; each [`PooledMachine::run`] dispatches one closure per
/// rank over pre-existing job queues and blocks until every rank has
/// finished. Between runs each worker re-synchronises on the shared
/// barrier and drains any envelopes a sloppy program left in flight, so
/// no message can leak from one run into the next and per-run
/// [`TrafficStats`] start from zero — byte-identical to the old
/// spawn-per-run semantics.
pub struct PooledMachine {
    nprocs: usize,
    shared: Arc<Shared>,
    job_txs: Vec<Sender<JobMsg>>,
    /// Serialises concurrent `run` calls on one pool: ranks of two
    /// overlapping runs would otherwise interleave on the same wires.
    run_lock: Mutex<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl PooledMachine {
    /// Build a pool with `nprocs` worker threads.
    pub fn new(nprocs: usize) -> PooledMachine {
        assert!(nprocs >= 1, "need at least one processor");
        // Hoisted channel setup: the mailbox fabric is built once here,
        // not per run.
        let mut txs = Vec::with_capacity(nprocs);
        let mut rxs = Vec::with_capacity(nprocs);
        for _ in 0..nprocs {
            let (tx, rx) = channel::<Envelope>();
            txs.push(tx);
            rxs.push(rx);
        }
        let shared = Arc::new(Shared {
            nprocs,
            poll: nprocs <= hardware_threads(),
            failed: AtomicUsize::new(NO_RANK),
            barrier: Mutex::new((0, 0)),
            barrier_cv: Condvar::new(),
            run_barrier: Barrier::new(nprocs),
        });
        let mut job_txs = Vec::with_capacity(nprocs);
        let mut handles = Vec::with_capacity(nprocs);
        for (rank, rx) in rxs.into_iter().enumerate() {
            let (job_tx, job_rx) = channel::<JobMsg>();
            job_txs.push(job_tx);
            let mut ctx = Ctx {
                rank,
                nprocs,
                txs: txs.clone(),
                rx,
                pending: Vec::new(),
                shared: shared.clone(),
                stats: TrafficStats::default(),
                coll_seq: 0,
                network: None,
            };
            let handle = std::thread::Builder::new()
                .name(format!("spmd-{rank}"))
                .spawn(move || {
                    // Worker loop: park on the job queue until the pool
                    // is dropped (queue disconnects).
                    while let Ok(JobMsg { job, network }) = job_rx.recv() {
                        ctx.network = network;
                        ctx.stats = TrafficStats::default();
                        ctx.coll_seq = 0;
                        ctx.pending.clear();
                        job(&mut ctx);
                        // All ranks must finish before anyone drains:
                        // a straggler may still be sending.
                        ctx.shared.run_barrier.wait();
                        while ctx.rx.try_recv().is_ok() {}
                        ctx.pending.clear();
                        // And all drains must finish before anyone may
                        // start the next job, or a fast rank's new-run
                        // message would be swallowed by a peer still
                        // draining the old one.
                        ctx.shared.run_barrier.wait();
                    }
                })
                .expect("failed to spawn SPMD worker");
            handles.push(handle);
        }
        PooledMachine { nprocs, shared, job_txs, run_lock: Mutex::new(()), handles }
    }

    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Run `f` on every rank over an ideal (free) network, without
    /// telemetry. Equivalent to [`PooledMachine::run_in`] with a
    /// default [`ExecCtx`].
    pub fn run<T, F>(&self, f: F) -> RunOutput<T>
    where
        T: Send,
        F: Fn(&mut Ctx) -> T + Sync,
    {
        self.run_with(None, f)
    }

    /// The dispatch core: one closure per rank, optional network model.
    fn run_with<T, F>(&self, network: Option<NetworkModel>, f: F) -> RunOutput<T>
    where
        T: Send,
        F: Fn(&mut Ctx) -> T + Sync,
    {
        // A rank panic unwinds out of this function (resume_unwind
        // below) with the guard held; the lock protects no data, so a
        // poisoned guard is safe to reclaim.
        let _serialised = self.run_lock.lock().unwrap_or_else(|e| e.into_inner());
        // Workers read the flag only inside a job, and every job of the
        // previous run has signalled done.
        self.shared.failed.store(NO_RANK, Ordering::Release);
        type Slot<T> = Mutex<Option<std::thread::Result<(T, TrafficStats)>>>;
        let slots: Vec<Slot<T>> = (0..self.nprocs).map(|_| Mutex::new(None)).collect();
        let (done_tx, done_rx) = channel::<()>();
        for (rank, slot) in slots.iter().enumerate() {
            let f = &f;
            let done_tx = done_tx.clone();
            let job: Box<dyn FnOnce(&mut Ctx) + Send + '_> = Box::new(move |ctx: &mut Ctx| {
                let out = catch_unwind(AssertUnwindSafe(|| f(&mut *ctx)));
                if out.is_err() {
                    // The first failure names itself; it is also what
                    // releases the ranks waiting on this one (they
                    // unwind with `PeerFailed`, which loses this race).
                    let _ = ctx.shared.failed.compare_exchange(
                        NO_RANK,
                        ctx.rank,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                }
                *slot.lock().unwrap() = Some(out.map(|t| (t, ctx.stats)));
                let _ = done_tx.send(());
            });
            // SAFETY: the job borrows `f` and `slots`, both alive until
            // this function returns — and it cannot return before every
            // job has finished and signalled `done_rx` below. After the
            // done signal a worker only touches its own (owned) Ctx.
            let job: Box<dyn FnOnce(&mut Ctx) + Send + 'static> =
                unsafe { std::mem::transmute(job) };
            self.job_txs[rank]
                .send(JobMsg { job, network })
                .expect("SPMD worker thread died");
        }
        for _ in 0..self.nprocs {
            done_rx.recv().expect("SPMD worker thread died mid-run");
        }
        let first_failed = self.shared.failed.load(Ordering::Acquire);
        let mut results = Vec::with_capacity(self.nprocs);
        let mut traffic = Vec::with_capacity(self.nprocs);
        for (rank, slot) in slots.into_iter().enumerate() {
            match slot.into_inner().unwrap().expect("rank produced no result") {
                Ok((r, s)) => {
                    results.push(r);
                    traffic.push(s);
                }
                Err(panic) if rank == first_failed => resume_unwind(panic),
                // A waiter the first failure released, or a later panic.
                Err(_) => {}
            }
        }
        RunOutput { results, traffic }
    }

    /// As [`PooledMachine::run`] with a [`NetworkModel`] charging every
    /// message latency and bandwidth, under an execution context: when
    /// `exec` carries an enabled telemetry handle, the phase's wall
    /// time is recorded (span `spmd.<phase>`) along with a per-rank
    /// [`TrafficEvent`](bernoulli_obs::events::TrafficEvent). With the
    /// default (uninstrumented) ctx no clock is read and the traffic
    /// conversion never runs.
    pub fn run_in<T, F>(
        &self,
        network: Option<NetworkModel>,
        phase: &str,
        exec: &ExecCtx,
        f: F,
    ) -> RunOutput<T>
    where
        T: Send,
        F: Fn(&mut Ctx) -> T + Sync,
    {
        let obs = exec.obs();
        let start = obs.is_enabled().then(std::time::Instant::now);
        let out = self.run_with(network, f);
        if let Some(t0) = start {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            obs.span_ns(&format!("spmd.{phase}"), ns);
            obs.traffic(|| bernoulli_obs::events::TrafficEvent {
                phase: phase.to_string(),
                nprocs: self.nprocs,
                elapsed_ns: ns,
                per_rank: out.traffic.iter().map(TrafficStats::to_sample).collect(),
            });
        }
        out
    }

    /// The process-wide shared pool for `nprocs`, created on first use.
    /// Backs the static [`Machine::run`] API so every caller of a given
    /// processor count reuses one set of threads and channels.
    pub fn shared(nprocs: usize) -> Arc<PooledMachine> {
        static POOLS: OnceLock<Mutex<HashMap<usize, Arc<PooledMachine>>>> = OnceLock::new();
        let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = pools.lock().unwrap();
        map.entry(nprocs).or_insert_with(|| Arc::new(PooledMachine::new(nprocs))).clone()
    }
}

impl Drop for PooledMachine {
    fn drop(&mut self) {
        // Disconnect the job queues so the worker loops exit, then join.
        self.job_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Machine {
    /// Run `f` on `nprocs` simulated processors over an ideal (free)
    /// network; returns each processor's result and final traffic
    /// counters, indexed by rank. Dispatches onto the shared
    /// [`PooledMachine`] for `nprocs`.
    pub fn run<T, F>(nprocs: usize, f: F) -> RunOutput<T>
    where
        T: Send,
        F: Fn(&mut Ctx) -> T + Sync,
    {
        PooledMachine::shared(nprocs).run(f)
    }

    /// As [`Machine::run`] with a [`NetworkModel`] charging every
    /// message latency and bandwidth, under an execution context
    /// carrying the telemetry handle (see [`PooledMachine::run_in`]).
    pub fn run_in<T, F>(
        nprocs: usize,
        network: Option<NetworkModel>,
        phase: &str,
        exec: &ExecCtx,
        f: F,
    ) -> RunOutput<T>
    where
        T: Send,
        F: Fn(&mut Ctx) -> T + Sync,
    {
        PooledMachine::shared(nprocs).run_in(network, phase, exec, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_and_results_in_order() {
        let out = Machine::run(4, |ctx| ctx.rank() * 10);
        assert_eq!(out.results, vec![0, 10, 20, 30]);
    }

    #[test]
    fn point_to_point_ring() {
        let out = Machine::run(4, |ctx| {
            let next = (ctx.rank() + 1) % ctx.nprocs();
            let prev = (ctx.rank() + ctx.nprocs() - 1) % ctx.nprocs();
            ctx.send(next, 7, Payload::Usize(vec![ctx.rank()]));
            ctx.recv(prev, 7).into_usize()[0]
        });
        assert_eq!(out.results, vec![3, 0, 1, 2]);
        // Each rank sent exactly one message of one word.
        for s in &out.traffic {
            assert_eq!(s.msgs_sent, 1);
            assert_eq!(s.bytes_sent, 8);
        }
    }

    #[test]
    fn out_of_order_tags_buffered() {
        let out = Machine::run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, Payload::F64(vec![1.0]));
                ctx.send(1, 2, Payload::F64(vec![2.0]));
                0.0
            } else {
                // Receive tag 2 first although tag 1 arrives first.
                let b = ctx.recv(0, 2).into_f64()[0];
                let a = ctx.recv(0, 1).into_f64()[0];
                a + 10.0 * b
            }
        });
        assert_eq!(out.results[1], 21.0);
    }

    #[test]
    fn allreduce_sum_and_max() {
        let out = Machine::run(5, |ctx| {
            let s = ctx.all_reduce_sum(ctx.rank() as f64);
            let m = ctx.all_reduce_max(ctx.rank() as f64);
            (s, m)
        });
        for &(s, m) in &out.results {
            assert_eq!(s, 10.0);
            assert_eq!(m, 4.0);
        }
        // Stats recorded.
        assert!(out.traffic.iter().all(|t| t.allreduces == 2));
    }

    #[test]
    fn all_to_all_exchanges() {
        let out = Machine::run(3, |ctx| {
            let payloads: Vec<Payload> = (0..3)
                .map(|p| Payload::Usize(vec![ctx.rank() * 100 + p]))
                .collect();
            let got = ctx.all_to_all(payloads);
            got.into_iter().map(|pl| pl.into_usize()[0]).collect::<Vec<_>>()
        });
        // Processor q receives rank*100 + q from each rank.
        assert_eq!(out.results[1], vec![1, 101, 201]);
        assert_eq!(out.results[2], vec![2, 102, 202]);
    }

    #[test]
    fn stats_since_and_merged() {
        let out = Machine::run(2, |ctx| {
            let before = ctx.stats();
            ctx.send(1 - ctx.rank(), 3, Payload::Usize(vec![1, 2, 3]));
            let _ = ctx.recv(1 - ctx.rank(), 3);
            ctx.stats().since(&before)
        });
        for d in &out.results {
            assert_eq!(d.msgs_sent, 1);
            assert_eq!(d.bytes_sent, 24);
        }
        let total = out.total_traffic();
        assert_eq!(total.msgs_sent, 2);
    }

    #[test]
    fn stats_since_saturates_on_mismatched_snapshots() {
        // A "later" snapshot with smaller counters (taken after the
        // per-run reset, or arguments swapped) must clamp to zero, not
        // panic on debug-build underflow.
        let big = TrafficStats {
            msgs_sent: 5,
            bytes_sent: 40,
            barriers: 2,
            allreduces: 1,
            alltoalls: 1,
        };
        let small = TrafficStats { msgs_sent: 1, bytes_sent: 8, ..TrafficStats::default() };
        let d = small.since(&big);
        assert_eq!(d, TrafficStats::default());
        let d = big.since(&small);
        assert_eq!(d.msgs_sent, 4);
        assert_eq!(d.bytes_sent, 32);
        assert_eq!(d.barriers, 2);
    }

    #[test]
    fn run_in_records_phase_traffic() {
        let obs = bernoulli_obs::Obs::enabled();
        let exec = ExecCtx::default().instrument(obs.clone());
        let out = Machine::run_in(3, None, "ring", &exec, |ctx| {
            let next = (ctx.rank() + 1) % ctx.nprocs();
            let prev = (ctx.rank() + ctx.nprocs() - 1) % ctx.nprocs();
            ctx.send(next, 7, Payload::F64(vec![1.0, 2.0]));
            ctx.recv(prev, 7).into_f64().len()
        });
        assert_eq!(out.results, vec![2, 2, 2]);
        let r = obs.report();
        assert_eq!(r.traffic.len(), 1);
        let ev = &r.traffic[0];
        assert_eq!(ev.phase, "ring");
        assert_eq!(ev.nprocs, 3);
        assert_eq!(ev.per_rank.len(), 3);
        for s in &ev.per_rank {
            assert_eq!(s.msgs_sent, 1);
            assert_eq!(s.bytes_sent, 16);
        }
        assert_eq!(r.spans["spmd.ring"].calls, 1);
        // Uninstrumented ctx: same results, nothing recorded.
        let off = bernoulli_obs::Obs::disabled();
        let quiet = ExecCtx::default().instrument(off.clone());
        let out2 = Machine::run_in(3, None, "ring", &quiet, |ctx| {
            let next = (ctx.rank() + 1) % ctx.nprocs();
            let prev = (ctx.rank() + ctx.nprocs() - 1) % ctx.nprocs();
            ctx.send(next, 7, Payload::F64(vec![1.0, 2.0]));
            ctx.recv(prev, 7).into_f64().len()
        });
        assert_eq!(out2.results, out.results);
        assert!(off.report().traffic.is_empty());
    }

    #[test]
    fn single_processor_machine() {
        let out = Machine::run(1, |ctx| {
            // Self-send must work.
            ctx.send(0, 5, Payload::Usize(vec![42]));
            let v = ctx.recv(0, 5).into_usize();
            ctx.barrier();
            assert_eq!(ctx.all_reduce_sum(3.0), 3.0);
            v[0]
        });
        assert_eq!(out.results, vec![42]);
    }

    #[test]
    fn barrier_counts() {
        let out = Machine::run(3, |ctx| {
            ctx.barrier();
            ctx.barrier();
        });
        assert!(out.traffic.iter().all(|t| t.barriers == 2));
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;

    /// The reason the pool exists: back-to-back runs must not pay a
    /// spawn/teardown or channel-construction cost per invocation. A
    /// generous CI budget (spawn-per-run took ~100 µs+/run just in
    /// thread creation; the pool dispatches in ~1 µs) still catches a
    /// regression to per-run setup.
    #[test]
    fn thousand_back_to_back_runs_within_budget() {
        let pool = PooledMachine::new(4);
        // Warm up (first run may fault in stacks).
        let _ = pool.run(|ctx| ctx.rank());
        let t = std::time::Instant::now();
        for i in 0..1000usize {
            let out = pool.run(|ctx| {
                let next = (ctx.rank() + 1) % ctx.nprocs();
                let prev = (ctx.rank() + ctx.nprocs() - 1) % ctx.nprocs();
                ctx.send(next, 1, Payload::Usize(vec![ctx.rank() + i]));
                ctx.recv(prev, 1).into_usize()[0]
            });
            assert_eq!(out.results[0], 3 + i);
        }
        let dt = t.elapsed();
        assert!(dt < std::time::Duration::from_secs(20), "1000 pooled runs took {dt:?}");
    }

    /// Traffic counters restart from zero each run and messages cannot
    /// leak between runs on the reused channels.
    #[test]
    fn runs_are_isolated() {
        let pool = PooledMachine::new(2);
        let heavy = pool.run(|ctx| {
            let peer = 1 - ctx.rank();
            ctx.send(peer, 1, Payload::F64(vec![0.0; 64]));
            let _ = ctx.recv(peer, 1);
            // Leak an unmatched message on purpose.
            ctx.send(peer, 2, Payload::Usize(vec![99]));
            ctx.stats()
        });
        for s in &heavy.results {
            assert_eq!(s.msgs_sent, 2);
        }
        let light = pool.run(|ctx| {
            // The leaked tag-2 envelope from the previous run must not
            // satisfy this receive; only this run's message may.
            let peer = 1 - ctx.rank();
            ctx.send(peer, 2, Payload::Usize(vec![ctx.rank()]));
            let got = ctx.recv(peer, 2).into_usize()[0];
            (got, ctx.stats())
        });
        for (rank, (got, s)) in light.results.iter().enumerate() {
            assert_eq!(*got, 1 - rank);
            assert_eq!(s.msgs_sent, 1, "stats leaked across runs");
        }
    }

    /// The shared registry hands back one pool per processor count.
    #[test]
    fn shared_pools_are_cached() {
        let a = PooledMachine::shared(3);
        let b = PooledMachine::shared(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.nprocs(), 3);
    }

    /// A panicking rank propagates out of `run` (as with the old
    /// scoped-thread machine), and the pool stays usable afterwards.
    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = PooledMachine::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|ctx| {
                if ctx.rank() == 1 {
                    panic!("rank 1 exploded");
                }
                ctx.rank()
            })
        }));
        assert!(r.is_err(), "panic in a rank must propagate to the caller");
        let out = pool.run(|ctx| ctx.rank() * 2);
        assert_eq!(out.results, vec![0, 2]);
    }

    /// Dropping a pool joins its workers instead of leaking them.
    #[test]
    fn drop_joins_workers() {
        let pool = PooledMachine::new(2);
        let _ = pool.run(|ctx| ctx.rank());
        drop(pool); // must not hang
    }
}

#[cfg(test)]
mod network_model_tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn modeled_latency_delays_delivery() {
        let model = NetworkModel { latency_s: 2e-3, bytes_per_s: 1e9 };
        let out = Machine::run_in(2, Some(model), "model", &ExecCtx::default(), |ctx| {
            let peer = 1 - ctx.rank();
            // Timer first: the peer sends only after the barrier, so
            // however late this thread wakes from it, the message is
            // due no earlier than `t` + latency.
            let t = Instant::now();
            ctx.barrier();
            ctx.send(peer, 1, Payload::F64(vec![1.0]));
            let _ = ctx.recv(peer, 1);
            t.elapsed().as_secs_f64()
        });
        for &dt in &out.results {
            assert!(dt >= 2e-3, "message arrived after {dt}s, model demands 2ms");
        }
    }

    #[test]
    fn modeled_bandwidth_charges_volume() {
        // 1 MB at 100 MB/s = 10 ms on the wire.
        let model = NetworkModel { latency_s: 0.0, bytes_per_s: 100e6 };
        let out = Machine::run_in(2, Some(model), "model", &ExecCtx::default(), |ctx| {
            if ctx.rank() == 0 {
                // Send only once the receiver's timer runs.
                let _ = ctx.recv(1, 2);
                ctx.send(1, 1, Payload::F64(vec![0.0; 125_000]));
                0.0
            } else {
                let t = Instant::now();
                ctx.send(0, 2, Payload::Empty);
                let _ = ctx.recv(0, 1);
                t.elapsed().as_secs_f64()
            }
        });
        assert!(out.results[1] >= 10e-3, "1MB took only {}s", out.results[1]);
    }

    #[test]
    fn ideal_network_is_fast() {
        let out = Machine::run(2, |ctx| {
            let peer = 1 - ctx.rank();
            let t = Instant::now();
            ctx.send(peer, 1, Payload::F64(vec![1.0]));
            let _ = ctx.recv(peer, 1);
            t.elapsed().as_secs_f64()
        });
        for &dt in &out.results {
            assert!(dt < 0.5, "ideal network unexpectedly slow: {dt}s");
        }
    }
}

#[cfg(test)]
mod tree_allreduce_tests {
    use super::*;

    #[test]
    fn sums_correct_for_all_processor_counts() {
        for p in 1..=9usize {
            let out = Machine::run(p, |ctx| {
                let got = ctx.all_reduce_sum((ctx.rank() + 1) as f64);
                let want = (p * (p + 1) / 2) as f64;
                assert_eq!(got, want, "P={p} rank {}", ctx.rank());
                // Interleave a second reduction to check tag isolation.
                ctx.all_reduce_max(ctx.rank() as f64)
            });
            for &m in &out.results {
                assert_eq!(m, (p - 1) as f64, "max at P={p}");
            }
        }
    }

    #[test]
    fn slice_allreduce_is_the_scalar_allreduce_per_element() {
        // Sums whose bits depend on the combine order.
        let term = |rank: usize, k: usize| 0.1 * (rank + 1) as f64 + 1e-3 / (k + 1) as f64;
        for p in 1..=9usize {
            let out = Machine::run(p, |ctx| {
                let scalar: Vec<f64> = (0..3).map(|k| ctx.all_reduce_sum(term(ctx.rank(), k))).collect();
                let before = ctx.stats();
                let mut sums: Vec<f64> = (0..3).map(|k| term(ctx.rank(), k)).collect();
                ctx.all_reduce_sums(&mut sums);
                let one = ctx.stats().since(&before);
                assert_eq!((one.allreduces, one.bytes_sent), (1, 3 * 8 * one.msgs_sent));
                (scalar, sums)
            });
            for (scalar, sums) in &out.results {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(sums), bits(scalar), "P={p}");
                assert_eq!(bits(sums), bits(&out.results[0].1), "P={p}: ranks agree");
            }
        }
    }

    #[test]
    fn tree_depth_bounds_root_messages() {
        // Rank 0 of a 16-proc machine must receive/send only log2(16)=4
        // messages per direction per all-reduce, not 15.
        let out = Machine::run(16, |ctx| {
            let before = ctx.stats();
            let _ = ctx.all_reduce_sum(1.0);
            ctx.stats().since(&before).msgs_sent
        });
        // Root sends exactly 4 broadcast messages.
        assert_eq!(out.results[0], 4);
        // A leaf (odd rank) sends exactly 1 reduce message.
        assert_eq!(out.results[1], 1);
    }
}
