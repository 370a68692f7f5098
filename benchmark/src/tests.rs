//! The benchmark's own tests: its statistics, its output checks, and the
//! observation-only contract of the traced run.

use llmsched_core::prelude::LlmSchedConfig;
use llmsched_sim::engine::{simulate, simulate_probed, ClusterConfig};
use llmsched_sim::scheduler::{Preference, SchedContext, SchedDelta, Scheduler};
use llmsched_sim::telemetry::json;
use llmsched_sim::telemetry::DecisionRecord;

use crate::layers::{chrome_trace, self_times, CountingProbe, Span, Timed, Tracer};
use crate::workloads::{self, Policy, WorkloadDef, WORKLOADS};
use llmsched_workloads::prelude::WorkloadKind;

use crate::{failed_jobs, median, parse_args, quartiles, run, Args, Fingerprint, MIN_REPEATS};

/// Jobs per simulation in these tests: small, but enough for elision,
/// skips and (on `drift-online`) profile refits to happen.
const JOBS: usize = 300;

fn args(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed: 5,
        seconds: 0.001,
        trace,
        jobs: Some(JOBS),
    }
}

fn work_conserving() -> LlmSchedConfig {
    LlmSchedConfig {
        work_conserving: true,
        ..LlmSchedConfig::default()
    }
}

/// The unscaled Mixed cluster on `def`'s backend: small enough that
/// ready work waits for executors, so capacity-aware elision fires.
fn small_cluster(def: &WorkloadDef) -> ClusterConfig {
    ClusterConfig {
        mode: def.mode,
        ..WorkloadKind::Mixed.default_cluster()
    }
}

/// A freshly set-up policy of `def`.
fn policy(def: &WorkloadDef, cfg: &LlmSchedConfig) -> Policy {
    let mut tracer = Tracer::new();
    let root = tracer.open("setup", None, 0);
    def.setup(cfg, &mut tracer, root, 0).0
}

/// Untraced and traced simulations of one input on `cluster`, returning
/// both fingerprints.
fn both_ways(
    def: &WorkloadDef,
    cluster: &ClusterConfig,
    cfg: &LlmSchedConfig,
    wrap: impl FnOnce(Timed) -> Box<dyn Scheduler>,
) -> (Fingerprint, Fingerprint) {
    let w = def.generate(JOBS, 5);
    let mut plain = policy(def, cfg);
    let a = simulate(cluster, &w.templates, w.jobs.clone(), plain.as_sched());
    let mut tracer = Tracer::new();
    let sim = tracer.open("engine.simulate", None, 0);
    let timed = Timed::new(policy(def, cfg), workloads::apps(), tracer.origin, sim, 0);
    let mut wrapped = wrap(timed);
    let mut probe = CountingProbe::default();
    let b = simulate_probed(
        cluster,
        &w.templates,
        w.jobs.clone(),
        &mut *wrapped,
        &mut probe,
    );
    assert_eq!(probe.sched_invoked, b.sched_calls);
    assert_eq!(probe.folded, b.sched_deferred);
    (Fingerprint::of(&a), Fingerprint::of(&b))
}

#[test]
fn every_workload_passes_its_checks_traced_and_untraced() {
    for def in &WORKLOADS {
        for trace in [false, true] {
            let out = run(def, &args(def.name, trace), &LlmSchedConfig::default());
            assert!(out.problems.is_empty(), "{}: {:?}", def.name, out.problems);
            assert_eq!(out.failed, 0, "{}", def.name);
            // A warm-up repeat, then at least MIN_REPEATS per arm.
            let arms = if trace { 2 } else { 1 };
            assert!(out.attempted >= (JOBS * (1 + arms * MIN_REPEATS)) as u64);
            let names: Vec<&str> = if trace {
                out.per_layer().iter().map(|m| m.name).collect()
            } else {
                out.end_to_end().iter().map(|m| m.name).collect()
            };
            let want = if trace { 31 } else { 8 };
            assert_eq!(names.len(), want, "{}: {names:?}", def.name);
            // An untraced run times every input of its suite; a traced one
            // simulates input 0 only.
            let suite = if trace { 1 } else { def.inputs };
            assert_eq!(out.firsts.len(), suite, "{}", def.name);
            assert!(
                (0..suite).all(|k| out.untraced.iter().any(|u| u.input == k)),
                "{}",
                def.name
            );
        }
    }
}

#[test]
fn traced_run_is_observation_only() {
    for def in &WORKLOADS {
        for cluster in [def.cluster(), small_cluster(def)] {
            let (a, b) = both_ways(def, &cluster, &LlmSchedConfig::default(), |t| Box::new(t));
            assert_eq!(a, b, "{}", def.name);
        }
    }
}

#[test]
fn traced_run_is_observation_only_under_work_conserving_llmsched() {
    for name in ["mixed-llmsched", "drift-online"] {
        let def = workloads::find(name).expect("workload exists");
        let (a, b) = both_ways(def, &small_cluster(def), &work_conserving(), |t| {
            Box::new(t)
        });
        assert!(
            a.elided > 0,
            "{name}: elision never fired, so this test checks nothing"
        );
        assert_eq!(a, b, "{name}");
        let out = run(def, &args(name, true), &work_conserving());
        assert!(out.problems.is_empty(), "{name}: {:?}", out.problems);
    }
}

/// A wrapper that forwards every hook except `is_work_conserving`, which
/// silently turns elision off under it.
struct Forgetful(Timed);

impl Scheduler for Forgetful {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
        self.0.schedule(ctx)
    }
    fn on_delta(&mut self, delta: &SchedDelta) {
        self.0.on_delta(delta);
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn set_telemetry(&mut self, enabled: bool) {
        self.0.set_telemetry(enabled);
    }
    fn drain_provenance(&mut self, out: &mut Vec<DecisionRecord>) {
        self.0.drain_provenance(out);
    }
}

#[test]
fn a_wrapper_that_drops_is_work_conserving_is_caught() {
    let def = workloads::find("mixed-llmsched").expect("workload exists");
    let cluster = small_cluster(def);
    let (a, b) = both_ways(def, &cluster, &work_conserving(), |t| {
        Box::new(Forgetful(t))
    });
    assert!(a.elided > 0);
    assert_eq!(b.elided, 0);
    assert_ne!(a, b);
}

#[test]
fn failed_jobs_counts_missing_and_invalid_outcomes() {
    let def = workloads::find("token-fcfs").expect("workload exists");
    let w = def.generate(50, 3);
    let mut p = policy(def, &LlmSchedConfig::default());
    let mut r = simulate(&def.cluster(), &w.templates, w.jobs.clone(), p.as_sched());
    let mut problems = Vec::new();
    assert_eq!(failed_jobs(&r, &w, &mut problems), 0);
    assert!(problems.is_empty(), "{problems:?}");

    r.jobs.pop();
    r.jobs[0].completion = r.jobs[0].arrival;
    r.jobs[0].arrival = r.jobs[1].arrival;
    let dup = r.jobs[2];
    r.jobs.push(dup);
    let failed = failed_jobs(&r, &w, &mut problems);
    // Job 0 (arrival mismatch), the dropped job and the duplicate.
    assert_eq!(failed, 3, "{problems:?}");
    assert!(!problems.is_empty());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // Python extrapolates past the data for tiny samples.
    assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
    assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn self_time_subtracts_the_union_of_child_spans() {
    let span = |name, start, end, parent| Span {
        name,
        start,
        end,
        parent,
        run: 0,
    };
    let spans = [
        span("engine.simulate", 0, 100, None),
        span("sched.schedule", 10, 30, Some(0)),
        span("sched.on_delta", 20, 40, Some(0)),
        span("sched.schedule", 90, 120, Some(0)),
    ];
    let totals = self_times(&spans, 0);
    // Children cover [10, 40) and [90, 100): 40 of the parent's 100 ns.
    assert_eq!(totals[0], ("engine.simulate", 60));
    assert_eq!(totals[1], ("sched.schedule", 50));
    assert_eq!(totals[2], ("sched.on_delta", 20));
    // A sub-slice ignores parents before it.
    assert_eq!(self_times(&spans[1..], 1)[0], ("sched.schedule", 50));
}

#[test]
fn the_trace_file_is_valid_json() {
    let mut tracer = Tracer::new();
    let root = tracer.open("setup", None, 0);
    tracer.time("profiler.train", Some(root), 0, || ());
    tracer.close(root);
    for i in 0..10 {
        tracer.time("sched.schedule", Some(root), i, || ());
    }
    let doc = chrome_trace(
        &tracer.spans,
        &["sched.schedule"],
        3,
        &[("note", "a \"quoted\" value".to_string())],
    );
    json::validate(&doc).expect("valid JSON");
    // setup + profiler.train + every third of the ten schedule spans.
    assert_eq!(doc.matches("\"ph\":\"X\"").count(), 2 + 4);
}

#[test]
fn arguments_are_checked() {
    let parse = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
    let a = parse(&[
        "--workload",
        "token-fcfs",
        "--seed",
        "9",
        "--seconds",
        "2",
        "--trace",
        "1",
    ])
    .expect("valid");
    assert_eq!((a.seed, a.seconds, a.trace), (9, 2.0, true));
    assert!(parse(&["--workload", "nope"]).is_err());
    assert!(parse(&["--trace", "2"]).is_err());
    assert!(parse(&["--seconds", "0"]).is_err());
    assert!(parse(&["--seed"]).is_err());
    assert!(parse(&["--frobnicate", "1"]).is_err());
}
