//! `bernoulli-bench`: the repo's end-to-end, layer-attributed benchmark.
//!
//! ```text
//! bernoulli-bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//! bernoulli-bench [--seed N] [--seconds S] [--trace 0|1]     # all four, one process each
//! bernoulli-bench --check-repeat                             # all four twice, compared
//! ```
//!
//! With `--workload` the last line of standard output is one JSON
//! object `{correct, attempted, failed, metrics}`: the end-to-end
//! metrics of an untraced run, or every per-layer metric of a traced
//! one. See `README.md` for what is measured and why.

mod alloc;
mod compile_cold;
mod dispatch_warm;
mod host;
mod inputs;
mod oracle;
mod pcg_solve;
mod rounds;
mod spmd_cg;
mod stats;
mod trace;

use rounds::{Counts, Metric, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["dispatch_warm", "compile_cold", "pcg_solve", "spmd_cg"];

/// End-to-end metrics: name, unit, whether higher is better, and the
/// share by which a later change may worsen it (`BENCHMARK.json`).
const END_TO_END: [(&str, &str, bool, f64); 4] = [
    ("setup_s", "s", false, 0.25),
    ("req_per_s", "1/s", true, 0.20),
    ("req_p50_us", "us", false, 0.20),
    ("peak_rss_mb", "MiB", false, 0.05),
];

/// Every per-layer metric a traced run prints. A layer the workload
/// never enters reads 0.
const PER_LAYER: [(&str, &str); 61] = [
    ("tune.submit.us", "us"),
    ("tune.submit.spmv.us", "us"),
    ("tune.submit.spmv_multi.us", "us"),
    ("tune.submit.spmv_min_plus.us", "us"),
    ("tune.submit.sptrsv.us", "us"),
    ("tune.submit.symgs.us", "us"),
    ("tune.key.us", "us"),
    ("tune.compile_warm.us", "us"),
    ("tune.compile_warm.self_us", "us"),
    ("core.run.us", "us"),
    ("formats.kernel.us", "us"),
    ("tune.submit.overhead_ratio", "ratio"),
    ("tune.cache.hit_ratio", "ratio"),
    ("tune.cache.entries", "count"),
    ("mem.allocs_per_req", "count"),
    ("mem.alloc_bytes_per_req", "B"),
    ("core.compile_cold.spmv.us", "us"),
    ("core.compile_cold.sptrsv.us", "us"),
    ("core.compile_cold.symgs.us", "us"),
    ("relational.planner.plan.us", "us"),
    ("analysis.race.check.us", "us"),
    ("analysis.wavefront.analyze.us", "us"),
    ("analysis.wavefront.verify.us", "us"),
    ("formats.fast.certify.us", "us"),
    ("tune.key.csr.us", "us"),
    ("tune.key.noncsr.us", "us"),
    ("tune.compile_warm.sptrsv.us", "us"),
    ("tune.compile_warm.symgs.us", "us"),
    ("tune.compile.cold_over_warm", "ratio"),
    ("tune.cache.roundtrip_ms", "ms"),
    ("tune.cache.json_bytes", "B"),
    ("solvers.cg.iters", "count"),
    ("solvers.cg.rel_residual", "ratio"),
    ("core.run.spmv.us", "us"),
    ("core.symgs.apply.us", "us"),
    ("solvers.vecops.self_us", "us"),
    ("formats.kernel.spmv.gbs", "GB/s"),
    ("formats.kernel.symgs.gbs", "GB/s"),
    ("host.triad_gbs", "GB/s"),
    ("formats.kernel.spmv.roofline_frac", "ratio"),
    ("formats.kernel.spmv.fast_over_ref", "ratio"),
    ("formats.par_kernels.spmv.speedup_2t", "ratio"),
    ("core.symgs.par_speedup_2t", "ratio"),
    ("solvers.cg.par_speedup_2t", "ratio"),
    ("spmd.inspector.ms", "ms"),
    ("spmd.executor.iter_us", "us"),
    ("spmd.inspector_over_iter", "ratio"),
    ("spmd.executor.msgs_per_iter", "count"),
    ("spmd.executor.bytes_per_iter", "B"),
    ("spmd.inspector.bytes", "B"),
    ("spmd.executor.matvec_us", "us"),
    ("spmd.machine.allreduce_us", "us"),
    ("spmd.machine.barrier_us", "us"),
    ("spmd.executor.sync_share", "ratio"),
    ("core.spmd.naive_over_mixed", "ratio"),
    ("spmd.scaling.efficiency_p2", "ratio"),
    ("bench.req_p90_us", "us"),
    ("bench.req_p99_us", "us"),
    ("bench.trace_overhead_frac", "ratio"),
    ("host.steal_frac", "ratio"),
    ("host.nproc", "count"),
];

/// From-scratch set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    setups: usize,
    check_repeat: bool,
    /// Internal: run one timed set-up, print its seconds, and exit.
    setup_only: bool,
    /// Test-only: falsify the oracle's reference, so the checks must
    /// report failures and the exit status must be nonzero.
    corrupt_reference: bool,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        setups: SETUPS,
        check_repeat: false,
        setup_only: false,
        corrupt_reference: false,
        trace_dir: PathBuf::from("perfbench/target/bench"),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--trace-dir" => a.trace_dir = PathBuf::from(value("a directory")?),
            "--smoke" => (a.seconds, a.setups) = (2.0, 1),
            "--check-repeat" => a.check_repeat = true,
            "--setup-only" => a.setup_only = true,
            "--corrupt-reference" => a.corrupt_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bernoulli-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.workload, args.check_repeat) {
        (_, true) => check_repeat(&args),
        (None, false) => run_set(&args).is_some(),
        (Some(w), false) => match w.as_str() {
            "dispatch_warm" => drive(w, &args, dispatch_warm::setup),
            "compile_cold" => drive(w, &args, compile_cold::setup),
            "pcg_solve" => drive(w, &args, pcg_solve::setup),
            _ => drive(w, &args, spmd_cg::setup),
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload in this process. True when every checked output was
/// correct.
fn drive<W: Workload>(name: &str, args: &Args, setup: fn(u64) -> W) -> bool {
    if args.setup_only {
        println!("{}", timed_setup(args.seed, setup).1);
        return true;
    }
    let mut counts = Counts::default();
    let metrics =
        if args.trace { traced(name, args, setup, &mut counts) } else { untraced(name, args, setup, &mut counts) };
    println!("{name}/ops_attempted {}\n{name}/ops_failed {}", counts.attempted, counts.failed);
    for (metric, value, unit) in &metrics {
        println!("{name}/{metric} {value} {unit}");
    }
    println!("{}", result_line(&counts, &metrics));
    counts.failed == 0
}

/// Share of a set-up's nominal time taken as memory-bound when its
/// wall time is scaled to nominal host speed. Set-ups sort, convert
/// and analyse index structures: nearer `compile_cold` than a kernel.
const SETUP_MEMORY_SHARE: f64 = 0.4;

/// One set-up from scratch and its seconds at nominal host speed.
fn timed_setup<W: Workload>(seed: u64, setup: fn(u64) -> W) -> (W, f64) {
    let before = rounds::probe();
    let t0 = Instant::now();
    let w = setup(seed);
    let seconds = t0.elapsed().as_secs_f64();
    (w, seconds / host::slowdown(before, rounds::probe(), SETUP_MEMORY_SHARE))
}

/// A set-up in a process of its own, so that nothing of it survives
/// into the next one, nor into this process's peak memory.
fn setup_in_child(name: &str, args: &Args) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string(), "--setup-only"])
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    String::from_utf8_lossy(&out.stdout).trim().parse().ok()
}

fn untraced<W: Workload>(name: &str, args: &Args, setup: fn(u64) -> W, counts: &mut Counts) -> Vec<Metric> {
    let mut setup_s: Vec<f64> = (1..args.setups).filter_map(|_| setup_in_child(name, args)).collect();
    let (mut w, own_setup_s) = timed_setup(args.seed, setup);
    setup_s.push(own_setup_s);
    verify(&mut w, args, counts);

    let timed = rounds::measure(&mut w, args.seconds, counts);
    let s = rounds::summarize(&timed.rounds);
    if s.contended {
        println!("WARNING contended host: only {} of {} rounds were clean; using all", s.rounds_clean, s.rounds_total);
    }
    let per_round: Vec<String> = timed
        .rounds
        .iter()
        .map(|r| {
            let rates: Vec<f64> = r.slices.iter().map(rounds::Slice::rate).collect();
            format!("{:.4}{}", stats::median(&rates), if r.clean() { "" } else { "*" })
        })
        .collect();
    println!(
        "{name}/samples {}\n{name}/rounds_total {}\n{name}/rounds_clean {}\n{name}/requests_per_round {}\n\
         {name}/rounds.req_per_s {} (* = steal above the gate)\n\
         {name}/raw.req_per_s {} 1/s (as timed; the host ran at {:.3} of nominal speed)\n\
         {name}/bench.req_p90_us {} us\n{name}/bench.req_p99_us {} us\n{name}/host.steal_frac {} ratio\n\
         {name}/setup_s.each {setup_s:?}",
        s.samples,
        s.rounds_total,
        s.rounds_clean,
        timed.requests_per_round,
        per_round.join(" "),
        s.raw_req_per_s,
        1.0 / s.slowdown,
        s.p90_us,
        s.p99_us,
        s.steal_frac,
    );
    vec![
        ("setup_s", stats::median(&setup_s), "s"),
        ("req_per_s", s.req_per_s, "1/s"),
        ("req_p50_us", s.p50_us, "us"),
        ("peak_rss_mb", host::peak_rss_mib(), "MiB"),
    ]
}

/// A shorter untraced phase (the base of the tracing overhead), the
/// workload's traced requests and layer probes, and the span file.
fn traced<W: Workload>(name: &str, args: &Args, setup: fn(u64) -> W, counts: &mut Counts) -> Vec<Metric> {
    let steal0 = host::steal_seconds();
    let start = Instant::now();
    let mut w = setup(args.seed);
    verify(&mut w, args, counts);

    let base = rounds::summarize(&rounds::measure(&mut w, args.seconds / 3.0, counts).rounds);
    let mut tracer = trace::Tracer::new();
    let (mut metrics, traced_rate) = w.trace(args.seconds / 3.0, &mut tracer);
    metrics.extend([
        ("bench.req_p90_us", base.p90_us, "us"),
        ("bench.req_p99_us", base.p99_us, "us"),
        ("bench.trace_overhead_frac", 1.0 - traced_rate / base.req_per_s, "ratio"),
        (
            "host.steal_frac",
            host::steal_frac(steal0, host::steal_seconds(), start.elapsed().as_secs_f64(), w.busy_threads()),
            "ratio",
        ),
        ("host.nproc", host::nproc() as f64, "count"),
    ]);

    let path = args.trace_dir.join(format!("trace-{name}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("{name}/trace: {} spans in {}", tracer.len(), path.display()),
        Err(e) => eprintln!("{name}/trace: cannot write {}: {e}", path.display()),
    }
    println!(
        "{name}/trace: untraced {} req/s, traced {traced_rate} req/s (both at nominal host speed)",
        base.req_per_s
    );
    PER_LAYER
        .iter()
        .map(|&(metric, unit)| {
            let value = metrics.iter().find(|m| m.0 == metric).map_or(0.0, |m| m.1);
            (metric, value, unit)
        })
        .collect()
}

fn verify<W: Workload>(w: &mut W, args: &Args, counts: &mut Counts) {
    let (attempted, failed) = w.verify_setup(args.corrupt_reference);
    counts.attempted += attempted;
    counts.failed += failed;
}

/// The result object the benchmark contract asks for.
fn result_line(counts: &Counts, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a layer with no samples reads 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        counts.failed == 0,
        counts.attempted,
        counts.failed,
        metrics.join(", ")
    )
}

/// Metric values of a `result_line`, in order.
fn parse_result_line(line: &str) -> Vec<(String, f64)> {
    let Some((_, metrics)) = line.split_once("\"metrics\": {") else {
        return Vec::new();
    };
    metrics
        .split("\"unit\"")
        .filter_map(|entry| {
            let (head, value) = entry.rsplit_once("{\"value\": ")?;
            let name = head.rsplit('"').nth(1)?;
            Some((name.to_string(), value.trim_end_matches([',', ' ']).parse().ok()?))
        })
        .collect()
}

/// Run every workload in a process of its own, echoing its output.
/// Returns the metrics per workload, or `None` if any run failed.
fn run_set(args: &Args) -> Option<Vec<Vec<(String, f64)>>> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut set = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--trace-dir")
            .arg(&args.trace_dir);
        if args.setups != SETUPS {
            cmd.arg("--smoke");
        }
        if args.corrupt_reference {
            cmd.arg("--corrupt-reference");
        }
        let out = cmd.stderr(Stdio::inherit()).output().expect("spawn a workload process");
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        ok &= out.status.success();
        set.push(parse_result_line(text.lines().last().unwrap_or("")));
    }
    ok.then_some(set)
}

/// Two full sets on the same build; fails if any end-to-end metric of
/// any workload differs by more than its bound.
fn check_repeat(args: &Args) -> bool {
    let (Some(first), Some(second)) = (run_set(args), run_set(args)) else {
        return false;
    };
    let mut ok = true;
    println!("\n{:<14} {:<12} {:>14} {:>14} {:>8} {:>6}", "workload", "metric", "first", "second", "diff", "bound");
    for (w, (a, b)) in WORKLOADS.iter().zip(first.iter().zip(&second)) {
        for (name, _, _, bound) in END_TO_END {
            let get = |set: &[(String, f64)]| set.iter().find(|m| m.0 == name).map(|m| m.1);
            let (Some(x), Some(y)) = (get(a), get(b)) else {
                println!("{w:<14} {name:<12} missing");
                ok = false;
                continue;
            };
            let diff = (y - x).abs() / x;
            let verdict = if diff > bound { "FAIL" } else { "" };
            println!("{w:<14} {name:<12} {x:>14.4} {y:>14.4} {:>7.2}% {:>5.0}% {verdict}", diff * 100.0, bound * 100.0);
            ok &= diff <= bound;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_its_parser() {
        let counts = Counts { attempted: 1000, failed: 0 };
        let metrics: Vec<Metric> =
            vec![("req_per_s", 8123.456789, "1/s"), ("setup_s", 0.31, "s"), ("x.y_z", f64::NAN, "us")];
        let line = result_line(&counts, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert_eq!(
            parse_result_line(&line),
            vec![("req_per_s".to_string(), 8123.456789), ("setup_s".to_string(), 0.31), ("x.y_z".to_string(), 0.0)]
        );
        assert!(parse_result_line("not a result").is_empty());
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the binary prints. They must name the same metrics.
    #[test]
    fn benchmark_json_names_every_metric_the_binary_prints() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit, higher, bound) in END_TO_END {
            let better = if higher { "higher" } else { "lower" };
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}");
            assert!(json.contains(&entry), "end_to_end entry {entry}");
        }
        for (name, unit) in PER_LAYER {
            assert!(json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")), "per_layer entry {name}");
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{w}\"")), "workload {w}");
        }
        assert_eq!(json.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
    }
}
