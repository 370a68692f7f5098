//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds one workload's inputs from `--seed` (see
//! [`workloads::WORKLOADS`] for the three workloads, why each exists and
//! which end-to-end metric each layer should move on it), then, for
//! `--seconds` seconds, sets the policy up and simulates them in turn,
//! over and over. An untraced run simulates a suite of several inputs,
//! because one input's cost depends on its seed. Every repeat's
//! outputs are checked; a job that did not complete or failed a check
//! counts as failed. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! With `--trace 0` the metrics are the end-to-end ones, all from
//! untraced repeats:
//!
//! | name | unit | what |
//! | --- | --- | --- |
//! | `jobs_per_s` | jobs/s | jobs per host second of the `simulate` calls |
//! | `avg_jct_s` | s | mean simulated JCT over the suite (deterministic per seed) |
//! | `p99_jct_s` | s | p99 simulated JCT over the suite (deterministic per seed) |
//! | `decision_p50_us` | us | median host time of one scheduler invocation |
//! | `decision_p99_us` | us | p99 of the same |
//! | `setup_s` | s | profiler training plus policy construction |
//! | `peak_rss_mb` | MB | peak resident memory (`VmHWM`) of this run |
//! | `jobs_completed_frac` | ratio | 1 − `jobs_failed_frac` |
//!
//! `jobs_failed_frac` (jobs that did not complete or failed an output
//! check, over jobs submitted) is 0 on a healthy run, so the result line
//! carries its complement, which is never 0; the text report prints both.
//!
//! Host-time metrics are normalized: each repeat's host times are
//! divided by the host's slowdown around it, measured by a fixed
//! calibration loop before and after the repeat ([`host_slowdown`]), so
//! part of the swings in speed of a shared host cancels while the
//! program's own speed shows. Each input's value is the median over its
//! repeats; `jobs_per_s` is the suite's jobs over the sum of its inputs'
//! simulate times, the decision percentiles are means over the inputs
//! and `setup_s` is a median over all repeats. The text report gives
//! the quartiles and spread beside each (over inputs, or over repeats
//! for `setup_s`), the host slowdown, and the same host-time metrics as
//! measured (`raw_*`).
//!
//! With `--trace 1` the run simulates the suite's first input only and
//! alternates untraced repeats with traced ones
//! (a timing [`layers::Timed`] wrapper around the policy plus a counting
//! [`layers::CountingProbe`]), requires both to produce bit-identical
//! simulated outputs, writes its spans to
//! `benchmark/out/<workload>-seed<n>.trace.json` and reports the
//! per-layer metrics (`workloads.*`, `profiler.*`, `engine.*`, `exec.*`,
//! `decisions.*`, `sched.*`, `store.*`, `trace.*`).
//!
//! `--workload all` runs every workload, untraced and then traced, each
//! in its own process so peak memory is per workload.

mod layers;
mod workloads;

#[cfg(test)]
mod tests;

use std::process::Command;
use std::time::{Duration, Instant};

use llmsched_core::prelude::LlmSchedConfig;
use llmsched_sim::engine::{simulate, simulate_probed};
use llmsched_sim::metrics::SimResult;
use llmsched_sim::telemetry::json;
use llmsched_workloads::prelude::Workload;

use layers::{chrome_trace, self_times, CountingProbe, SchedStats, Timed, Tracer};
use workloads::{WorkloadDef, WORKLOADS};

/// Workload-generation passes in a traced run; `workloads.gen_s` is
/// their median.
const GEN_REPS: u32 = 3;

/// Fewest simulate repeats per arm, even past `--seconds` (the
/// determinism check needs two).
const MIN_REPEATS: usize = 3;

/// Iterations of one calibration pass (see [`host_slowdown`]).
const CAL_ITERS: u64 = 5_000_000;

/// Calibration passes per measurement of host speed; the median counts.
const CAL_PASSES: usize = 3;

/// Duration of one calibration pass on an unloaded host (2-vCPU KVM
/// guest on an Intel Xeon, model 207), seconds. It fixes only the scale
/// of normalized host times: it cancels from every comparison of two runs
/// on one host.
const CAL_NOMINAL_S: f64 = 0.0155;

/// Per-invocation span names, written every `stride`-th to the trace file.
const SAMPLED_SPANS: [&str; 2] = ["sched.schedule", "sched.on_delta"];

/// At most this many per-invocation spans go into the trace file.
const MAX_WRITTEN_SPANS: usize = 20_000;

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Job-count override (tests only; the command line has no flag for
    /// it, so every benchmark run uses the workload's own count).
    jobs: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        jobs: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            f => return Err(format!("unknown flag {f}")),
        }
    }
    if a.workload != "all" && workloads::find(&a.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {} (expected all, {})",
            a.workload,
            names.join(", ")
        ));
    }
    Ok(a)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let def = workloads::find(&args.workload).expect("validated by parse_args");
    let mut out = run(def, &args, &LlmSchedConfig::default());
    let trace_file = args.trace.then(|| match write_trace(def, &args, &out) {
        Ok(path) => path,
        Err(e) => {
            out.problems.push(e);
            String::new()
        }
    });
    out.print(def, &args, trace_file.as_deref());
}

// ---------------------------------------------------------------------
// Statistics

/// Median of a non-empty sample.
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-quantile of an ascending sample, as
/// `SimResult::jct_percentiles` computes it; 0 for an empty one.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[i.min(sorted.len() - 1)]
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; a single sample is its own quartiles.
fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return (s[0], s[0]);
    }
    let q = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

// ---------------------------------------------------------------------
// Output checks

/// The deterministic outputs of one simulation: identical across every
/// repeat of one workload and seed, traced or not.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    events: u64,
    calls: u64,
    skipped: u64,
    elided: u64,
    deferred: u64,
    avg_jct_bits: u64,
    p99_jct_bits: u64,
    completed: usize,
    incomplete: usize,
    makespan: u64,
}

impl Fingerprint {
    fn of(r: &SimResult) -> Self {
        Fingerprint {
            events: r.events,
            calls: r.sched_calls,
            skipped: r.sched_skipped,
            elided: r.sched_elided,
            deferred: r.sched_deferred,
            avg_jct_bits: r.avg_jct_secs().to_bits(),
            p99_jct_bits: r.jct_percentiles().p99.to_bits(),
            completed: r.jobs.len(),
            incomplete: r.incomplete,
            makespan: r.makespan.0,
        }
    }
}

/// Jobs of `w` that did not complete with a valid outcome in `r`: every
/// submitted job must appear exactly once, with its own arrival time and
/// a finite, non-negative JCT.
fn failed_jobs(r: &SimResult, w: &Workload, problems: &mut Vec<String>) -> u64 {
    let mut ok = vec![false; w.jobs.len()];
    for o in &r.jobs {
        let Some(spec) = usize::try_from(o.id.0).ok().and_then(|i| w.jobs.get(i)) else {
            problems.push(format!("outcome for unknown job {}", o.id));
            continue;
        };
        let i = o.id.0 as usize;
        let jct = o.jct().as_secs_f64();
        if ok[i] {
            problems.push(format!("job {} completed twice", o.id));
            ok[i] = false;
        } else if spec.id() != o.id || spec.arrival() != o.arrival {
            problems.push(format!("job {} outcome does not match its spec", o.id));
        } else if o.completion < o.arrival || !jct.is_finite() || jct < 0.0 {
            problems.push(format!("job {} has invalid JCT {jct}", o.id));
        } else {
            ok[i] = true;
        }
    }
    if r.incomplete != 0 {
        problems.push(format!("{} jobs never completed", r.incomplete));
    }
    if r.jobs.len() + r.incomplete != w.jobs.len() {
        problems.push(format!(
            "{} outcomes + {} incomplete != {} submitted",
            r.jobs.len(),
            r.incomplete,
            w.jobs.len()
        ));
    }
    ok.iter().filter(|&&v| !v).count() as u64
}

// ---------------------------------------------------------------------
// Measurement

/// One timed untraced repeat. Times are host times as measured;
/// `slowdown` is the host's speed around the repeat (see
/// [`host_slowdown`]).
#[derive(Debug)]
struct Repeat {
    /// Which input of the suite it simulated.
    input: usize,
    wall: f64,
    slowdown: f64,
    p50_us: f64,
    p99_us: f64,
    samples: usize,
}

/// One traced repeat: its wall time and what the wrapper and probe saw.
#[derive(Debug, Clone, Copy)]
struct TracedRepeat {
    wall: f64,
    engine_self_s: f64,
    stats: SchedStats,
    probe: CountingProbe,
    versions: u64,
    published: u64,
    par_scored: u64,
}

/// Everything one run measured.
#[derive(Debug)]
struct RunOutput {
    /// Jobs per input.
    jobs: usize,
    /// Tasks of input 0.
    tasks: usize,
    setup_s: Vec<f64>,
    /// [`host_slowdown`] around each timed repeat, aligned with `setup_s`.
    slowdown: Vec<f64>,
    train_s: Vec<f64>,
    gen_s: Vec<f64>,
    untraced: Vec<Repeat>,
    traced: Vec<TracedRepeat>,
    /// Each input's first result, in suite order (every later repeat of
    /// an input must match its deterministic outputs).
    firsts: Vec<SimResult>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Set-up, generation and the first traced repeat's spans.
    tracer: Tracer,
    peak_rss_mb: f64,
}

/// Seed of input `k` of the suite a run on `seed` simulates.
fn input_seed(seed: u64, inputs: usize, k: usize) -> u64 {
    seed.wrapping_mul(inputs as u64).wrapping_add(k as u64)
}

/// Runs one workload as `args` ask; `cfg` is the LLMSched configuration
/// (the benchmark passes the default).
///
/// An untraced run simulates a suite of [`WorkloadDef::inputs`] inputs,
/// input `k` generated from seed `seed·inputs + k`, one per repeat in
/// turn. A traced run simulates input 0 only, alternating untraced and
/// traced repeats. Each repeat sets the policy up (training plus
/// construction), then simulates. Repeat 0 (input 0) warms the allocator
/// and caches: it is checked like every other repeat but not timed.
/// Repeats go on until `--seconds` have passed and every input of the
/// suite has been timed.
fn run(def: &WorkloadDef, args: &Args, cfg: &LlmSchedConfig) -> RunOutput {
    let jobs = args.jobs.unwrap_or(def.jobs);
    let suite = if args.trace { 1 } else { def.inputs };
    let apps = workloads::apps();
    let cluster = def.cluster();
    let mut tracer = Tracer::new();

    let seed0 = input_seed(args.seed, def.inputs, 0);
    let mut gen_s = Vec::new();
    let mut inputs = Vec::new();
    for rep in 0..if args.trace { GEN_REPS } else { 1 } {
        let (w, secs) = tracer.time("workloads.generate", None, rep, || {
            def.generate(jobs, seed0)
        });
        gen_s.push(secs);
        inputs = vec![w];
    }
    for k in 1..suite {
        let seed = input_seed(args.seed, def.inputs, k);
        inputs.push(def.generate(jobs, seed));
    }
    let tasks = inputs[0].jobs.iter().map(|j| j.total_tasks()).sum();

    let (mut setup_s, mut train_s, mut slowdown) = (Vec::new(), Vec::new(), Vec::new());
    let mut untraced: Vec<Repeat> = Vec::new();
    let mut traced: Vec<TracedRepeat> = Vec::new();
    let mut firsts: Vec<SimResult> = Vec::new();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut before = host_slowdown();
    for i in 0u32.. {
        let warmup = i == 0;
        let trace_this = args.trace && !warmup && i % 2 == 0;
        let input = if warmup { 0 } else { (i as usize - 1) % suite };
        let w = &inputs[input];
        let root = tracer.open("setup", None, i);
        let (mut policy, train) = def.setup(cfg, &mut tracer, root, i);
        let total = tracer.close(root);
        let mut found = Vec::new();
        let (r, timed) = if trace_this {
            let keep = traced.is_empty();
            let (r, t) = traced_repeat(&mut tracer, policy, &apps, &cluster, w, i, keep);
            check_traced(&r, &t, &mut found);
            traced.push(t);
            (r, None)
        } else {
            let t0 = Instant::now();
            let r = simulate(&cluster, &w.templates, w.jobs.clone(), policy.as_sched());
            let wall = t0.elapsed().as_secs_f64();
            let p = r.sched_overhead_percentiles();
            let timed = Repeat {
                input,
                wall,
                slowdown: 1.0,
                p50_us: p.p50_ms * 1e3,
                p99_us: p.p99_ms * 1e3,
                samples: r.sched_wall_samples.len(),
            };
            (r, Some(timed))
        };
        // The host's speed around this repeat: the geometric mean of the
        // calibrations just before set-up and just after simulate.
        let after = host_slowdown();
        if !warmup {
            let k = (before * after).sqrt();
            setup_s.push(total);
            train_s.push(train);
            slowdown.push(k);
            untraced.extend(timed.map(|u| Repeat { slowdown: k, ..u }));
        }
        before = after;
        let mut bad = failed_jobs(&r, w, &mut found);
        match firsts.get(input) {
            None => firsts.push(r),
            Some(want) => {
                let (a, b) = (Fingerprint::of(want), Fingerprint::of(&r));
                if a != b {
                    let kind = if trace_this { "traced" } else { "untraced" };
                    found.push(format!(
                        "repeat {i} ({kind}) of input {input} differs from its first: \
                         {b:?} vs {a:?}"
                    ));
                }
            }
        }
        if !found.is_empty() {
            // A run-level check failed: no job of this repeat counts as good.
            bad = w.jobs.len() as u64;
            problems.extend(found);
        }
        attempted += w.jobs.len() as u64;
        failed += bad;
        let enough = untraced.len() >= MIN_REPEATS.max(suite)
            && (!args.trace || traced.len() >= MIN_REPEATS);
        if enough && Instant::now() >= deadline {
            break;
        }
    }

    RunOutput {
        jobs,
        tasks,
        setup_s,
        slowdown,
        train_s,
        gen_s,
        untraced,
        traced,
        firsts,
        attempted,
        failed,
        problems,
        tracer,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// One traced repeat: `policy` behind the timing wrapper, with the
/// counting probe attached. Its spans stay in `tracer` only if `keep`.
fn traced_repeat(
    tracer: &mut Tracer,
    policy: workloads::Policy,
    apps: &[llmsched_dag::ids::AppId],
    cluster: &llmsched_sim::engine::ClusterConfig,
    w: &Workload,
    run: u32,
    keep: bool,
) -> (SimResult, TracedRepeat) {
    let mark = tracer.spans.len();
    let sim = tracer.open("engine.simulate", None, run);
    let mut timed = Timed::new(policy, apps.to_vec(), tracer.origin, sim, run);
    let mut probe = CountingProbe::default();
    let t0 = Instant::now();
    let r = simulate_probed(
        cluster,
        &w.templates,
        w.jobs.clone(),
        &mut timed,
        &mut probe,
    );
    let wall = t0.elapsed().as_secs_f64();
    tracer.close(sim);
    tracer.spans.append(&mut timed.spans);
    let engine_self_s = self_times(&tracer.spans[mark..], mark)
        .iter()
        .find(|(n, _)| *n == "engine.simulate")
        .map_or(0.0, |(_, ns)| *ns as f64 * 1e-9);
    if !keep {
        tracer.spans.truncate(mark);
    }
    let t = TracedRepeat {
        wall,
        engine_self_s,
        stats: timed.stats,
        probe,
        versions: timed.inner.store_versions(apps),
        published: timed.published(),
        par_scored: timed.inner.par_scored(),
    };
    (r, t)
}

/// The traced run's own checks: the probe, the wrapper and the result
/// must agree on how often the policy ran and what it was handed.
fn check_traced(r: &SimResult, t: &TracedRepeat, found: &mut Vec<String>) {
    let (p, s) = (t.probe, t.stats);
    if p.sched_invoked != r.sched_calls || s.calls != r.sched_calls {
        found.push(format!(
            "SchedInvoked events {} / wrapper calls {} != sched_calls {}",
            p.sched_invoked, s.calls, r.sched_calls
        ));
    }
    if p.folded != r.sched_deferred {
        found.push(format!(
            "sum of folded {} != sched_deferred {}",
            p.folded, r.sched_deferred
        ));
    }
    if p.invoked_deltas != s.deltas {
        found.push(format!(
            "SchedInvoked deltas {} != delivered deltas {}",
            p.invoked_deltas, s.deltas
        ));
    }
}

/// How much slower than nominal the host runs right now: the median
/// duration of [`CAL_PASSES`] passes of a fixed integer loop over
/// [`CAL_NOMINAL_S`].
///
/// The host is a few vCPUs of a shared machine whose speed swings over
/// seconds to minutes. This loop sees part of each swing the simulator
/// sees (on a 2-vCPU KVM guest, a 1.3× change in the loop came with a
/// 1.8–1.9× change in simulate time), so host times divided by the
/// slowdown measured around them (normalized host times) keep the
/// program's own speed and shed part of the host's: between-run spreads
/// in jobs_per_s fell from 23% to 10% on mixed-llmsched.
fn host_slowdown() -> f64 {
    let pass = || {
        let t0 = Instant::now();
        let (mut x, mut sum) = (std::hint::black_box(0x9E37_79B9_7F4A_7C15u64), 0u64);
        for _ in 0..std::hint::black_box(CAL_ITERS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sum = sum.wrapping_add(x % 1_000_003);
        }
        std::hint::black_box(sum);
        t0.elapsed().as_secs_f64()
    };
    let passes: Vec<f64> = (0..CAL_PASSES).map(|_| pass()).collect();
    median(&passes) / CAL_NOMINAL_S
}

/// Peak resident set (`VmHWM`) of this process, MB; 0 where
/// `/proc/self/status` is unreadable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the source tree, when it is a git checkout.
fn git_commit() -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    if !std::path::Path::new(dir).join(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["-C", dir, "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Run metadata, recorded with every result.
fn metadata(
    def: &WorkloadDef,
    args: &Args,
    jobs: usize,
    inputs: usize,
    repeats: usize,
) -> Vec<(&'static str, String)> {
    vec![
        ("workload", def.name.to_string()),
        ("seed", args.seed.to_string()),
        ("jobs", jobs.to_string()),
        ("inputs", inputs.to_string()),
        ("repeats", repeats.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("hw_threads", hw_threads().to_string()),
        ("git_commit", git_commit()),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
    ]
}

/// Writes the spans as a Chrome trace under `benchmark/out/`, reads the
/// file back and validates it.
fn write_trace(def: &WorkloadDef, args: &Args, out: &RunOutput) -> Result<String, String> {
    let tracer = &out.tracer;
    let per_invocation = tracer
        .spans
        .iter()
        .filter(|s| SAMPLED_SPANS.contains(&s.name))
        .count();
    let stride = per_invocation.div_ceil(MAX_WRITTEN_SPANS).max(1);
    let meta = metadata(
        def,
        args,
        out.jobs,
        out.firsts.len(),
        out.untraced.len() + out.traced.len(),
    );
    let doc = chrome_trace(&tracer.spans, &SAMPLED_SPANS, stride, &meta);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.trace.json", def.name, args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    let back =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::validate(&back)
        .map_err(|e| format!("trace file {} is not valid JSON: {e}", path.display()))?;
    Ok(path.display().to_string())
}

// ---------------------------------------------------------------------
// Reporting

/// One reported metric, with the per-repeat samples its value summarizes
/// (empty for values that have no spread).
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: Vec::new(),
    }
}

fn median_metric(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
    Metric {
        name,
        unit,
        value: median(&samples),
        samples,
    }
}

/// A metric whose value is the mean of `samples` (one per input).
fn mean_metric(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
    Metric {
        name,
        unit,
        value: samples.iter().sum::<f64>() / samples.len() as f64,
        samples,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl RunOutput {
    /// Each input's median over its repeats of `f(repeat, slowdown)`, in
    /// suite order, where `slowdown` is the repeat's host slowdown, or 1
    /// with `raw`.
    fn per_input(&self, raw: bool, f: impl Fn(&Repeat, f64) -> f64) -> Vec<f64> {
        (0..self.firsts.len())
            .map(|k| {
                let v: Vec<f64> = self
                    .untraced
                    .iter()
                    .filter(|u| u.input == k)
                    .map(|u| f(u, if raw { 1.0 } else { u.slowdown }))
                    .collect();
                median(&v)
            })
            .collect()
    }

    /// The end-to-end host-time metrics over the suite, from normalized
    /// host times (host time over the slowdown around its repeat) or,
    /// with `raw`, host times as measured (`raw_*`, text report only).
    /// Each input's times are medians over its repeats; `jobs_per_s` is
    /// the suite's jobs over the sum of its inputs' simulate times,
    /// `decision_p50_us` and `decision_p99_us` are means over the inputs,
    /// and `setup_s` is the median over every repeat.
    fn host_times(&self, raw: bool) -> [Metric; 4] {
        let jobs = self.jobs as f64;
        let pick = |norm: &'static str, as_measured: &'static str| {
            if raw {
                as_measured
            } else {
                norm
            }
        };
        let walls = self.per_input(raw, |u, k| u.wall / k);
        let p50 = self.per_input(raw, |u, k| u.p50_us / k);
        let p99 = self.per_input(raw, |u, k| u.p99_us / k);
        let setup: Vec<f64> = self
            .setup_s
            .iter()
            .zip(&self.slowdown)
            .map(|(&t, &k)| if raw { t } else { t / k })
            .collect();
        [
            Metric {
                name: pick("jobs_per_s", "raw_jobs_per_s"),
                unit: "jobs/s",
                value: jobs * walls.len() as f64 / walls.iter().sum::<f64>(),
                samples: walls.iter().map(|t| jobs / t).collect(),
            },
            mean_metric(pick("decision_p50_us", "raw_decision_p50_us"), "us", p50),
            mean_metric(pick("decision_p99_us", "raw_decision_p99_us"), "us", p99),
            median_metric(pick("setup_s", "raw_setup_s"), "s", setup),
        ]
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let [jobs_per_s, p50, p99, setup] = self.host_times(false);
        let mut jcts: Vec<f64> = self
            .firsts
            .iter()
            .flat_map(|r| r.jobs.iter().map(|j| j.jct().as_secs_f64()))
            .collect();
        jcts.sort_by(f64::total_cmp);
        let avg_jct = jcts.iter().sum::<f64>() / jcts.len().max(1) as f64;
        vec![
            jobs_per_s,
            metric("avg_jct_s", "s", avg_jct),
            metric("p99_jct_s", "s", nearest_rank(&jcts, 0.99)),
            p50,
            p99,
            setup,
            metric("peak_rss_mb", "MB", self.peak_rss_mb),
            metric(
                "jobs_completed_frac",
                "ratio",
                1.0 - ratio(self.failed as f64, self.attempted as f64),
            ),
        ]
    }

    fn per_layer(&self) -> Vec<Metric> {
        let r = &self.firsts[0];
        let t = &self.traced;
        let first = t[0];
        let (s, p) = (first.stats, first.probe);
        let secs = |f: &dyn Fn(&TracedRepeat) -> u64| -> Vec<f64> {
            t.iter().map(|x| f(x) as f64 * 1e-9).collect()
        };
        let engine_self: Vec<f64> = t.iter().map(|x| x.engine_self_s).collect();
        let events = r.events as f64;
        let points = r.sched_calls + r.sched_skipped + r.sched_elided + r.sched_deferred;
        let schedule_s = secs(&|x| x.stats.schedule_ns);
        let refit_s = secs(&|x| x.stats.refit_ns);
        let untraced_wall = median(&self.untraced.iter().map(|u| u.wall).collect::<Vec<_>>());
        let traced_wall = median(&t.iter().map(|x| x.wall).collect::<Vec<_>>());
        vec![
            median_metric("workloads.gen_s", "s", self.gen_s.clone()),
            metric("workloads.tasks", "count", self.tasks as f64),
            median_metric("profiler.train_s", "s", self.train_s.clone()),
            metric("engine.events", "count", events),
            metric("engine.events_per_job", "count", events / self.jobs as f64),
            median_metric("engine.self_s", "s", engine_self.clone()),
            metric(
                "engine.ns_per_event",
                "ns",
                median(&engine_self) * 1e9 / events,
            ),
            metric("exec.batch_admits", "count", p.batch_admits as f64),
            metric("exec.llm_slot_frac", "ratio", r.utilization.llm_slot_frac),
            metric(
                "exec.regular_busy_frac",
                "ratio",
                r.utilization.regular_busy_frac,
            ),
            metric("decisions.points", "count", points as f64),
            metric("decisions.calls", "count", r.sched_calls as f64),
            metric("decisions.skipped", "count", r.sched_skipped as f64),
            metric("decisions.elided", "count", r.sched_elided as f64),
            metric("decisions.deferred", "count", r.sched_deferred as f64),
            metric(
                "decisions.call_frac",
                "ratio",
                ratio(r.sched_calls as f64, points as f64),
            ),
            metric("decisions.deltas", "count", s.deltas as f64),
            median_metric("sched.schedule_s", "s", schedule_s.clone()),
            metric(
                "sched.schedule_us_mean",
                "us",
                median(&schedule_s) * 1e6 / s.calls.max(1) as f64,
            ),
            median_metric("sched.on_delta_s", "s", secs(&|x| x.stats.on_delta_ns)),
            metric("sched.refs_offered", "count", s.refs_offered as f64),
            metric("sched.tasks_dispatched", "count", p.dispatched as f64),
            metric(
                "sched.dispatch_yield",
                "ratio",
                ratio(p.dispatched as f64, s.refs_offered as f64),
            ),
            metric(
                "sched.empty_frac",
                "ratio",
                ratio(s.empty as f64, s.calls as f64),
            ),
            metric("sched.par_scored", "count", first.par_scored as f64),
            metric("store.versions", "count", first.versions as f64),
            metric("store.refit_calls", "count", s.refit_calls as f64),
            median_metric("store.refit_s", "s", refit_s.clone()),
            metric(
                "store.refit_ms_per_version",
                "ms",
                ratio(median(&refit_s) * 1e3, first.published as f64),
            ),
            metric(
                "trace.overhead_frac",
                "ratio",
                traced_wall / untraced_wall - 1.0,
            ),
            metric("trace.probe_events", "count", p.events as f64),
        ]
    }

    fn print(&self, def: &WorkloadDef, args: &Args, trace_file: Option<&str>) {
        let repeats = self.untraced.len() + self.traced.len();
        let meta = metadata(def, args, self.jobs, self.firsts.len(), repeats);
        let cells: Vec<String> = meta
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", json::escape(v)))
            .collect();
        println!("# meta {{{}}}", cells.join(", "));
        println!("# {}: {}", def.name, def.why);
        for (layer, moves) in def.moves {
            println!("#   {layer:<10} -> {moves}");
        }
        if let Some(path) = trace_file {
            println!("# trace file: {path}");
        }
        for p in &self.problems {
            eprintln!("check failed: {p}");
        }
        let metrics = if args.trace {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        println!(
            "{:<28} {:>16} {:<7} {:>14} {:>14} {:>8} {:>5}",
            "metric", "median", "unit", "q1", "q3", "spread", "n"
        );
        let mut rows: Vec<&Metric> = metrics.iter().collect();
        let extra = if args.trace {
            Vec::new()
        } else {
            let mut v = vec![median_metric("host_slowdown", "x", self.slowdown.clone())];
            v.extend(self.host_times(true));
            v
        };
        rows.extend(&extra);
        for m in rows {
            if m.samples.is_empty() {
                println!("{:<28} {:>16.6} {:<7}", m.name, m.value, m.unit);
            } else {
                let (q1, q3) = quartiles(&m.samples);
                println!(
                    "{:<28} {:>16.6} {:<7} {:>14.6} {:>14.6} {:>7.2}% {:>5}",
                    m.name,
                    m.value,
                    m.unit,
                    q1,
                    q3,
                    ratio(q3 - q1, m.value) * 100.0,
                    m.samples.len()
                );
            }
        }
        if !args.trace {
            let n: Vec<f64> = self.untraced.iter().map(|u| u.samples as f64).collect();
            println!(
                "decision samples per repeat: {} (p99 from the reservoir of sched_wall_samples)",
                median(&n)
            );
            println!(
                "jobs_failed_frac {:.6} ({} of {} jobs over {} timed repeats and a warm-up)",
                ratio(self.failed as f64, self.attempted as f64),
                self.failed,
                self.attempted,
                repeats
            );
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json::num(m.value),
                    m.unit
                )
            })
            .collect();
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted,
            self.failed,
            body.join(", ")
        );
        debug_assert!(json::validate(&line).is_ok());
        println!("{line}");
    }
}

// ---------------------------------------------------------------------
// `--workload all`

/// Runs every workload untraced then traced, each in a child process of
/// this binary, forwarding their reports. Returns the exit code.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate this binary: {e}");
            return 1;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut parts = Vec::new();
    for def in &WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", def.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            println!("## {} --trace {trace}", def.name);
            let out = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: cannot run {}: {e}", exe.display());
                    return 1;
                }
            };
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                println!("{line}");
            }
            let Some(result) = parse_result(last).filter(|_| out.status.success()) else {
                eprintln!("error: {} --trace {trace} printed no result", def.name);
                return 1;
            };
            correct &= result.0;
            attempted += result.1;
            failed += result.2;
            parts.push(format!("\"{}/trace{trace}\": {}", def.name, result.3));
        }
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        parts.join(", ")
    );
    if let Err(e) = json::validate(&line) {
        eprintln!("error: combined result is not valid JSON: {e}");
        return 1;
    }
    println!("{line}");
    0
}

/// Reads back a result line this binary printed:
/// `(correct, attempted, failed, metrics object text)`.
fn parse_result(line: &str) -> Option<(bool, u64, u64, String)> {
    json::validate(line).ok()?;
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find(',')?])
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let at = line.find("\"metrics\": ")? + "\"metrics\": ".len();
    let metrics = line[at..line.len() - 1].to_string();
    Some((correct, attempted, failed, metrics))
}
