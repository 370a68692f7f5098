//! The oracle matrix: every exact engine and scheduler option against
//! the default configuration.
//!
//! Each option below is an *optimization* or an *observer*, never a
//! policy change, so turning it off (or on) must leave the schedule
//! bit-identical:
//!
//! * invocation coalescing (`DESIGN.md` §12) — off via
//!   `ClusterConfig::coalescing = false`;
//! * capacity-aware elision (§13) — off via [`NotWorkConserving`], a
//!   wrapper that forwards every hook but `is_work_conserving`;
//! * bounded-staleness batching at ε = 0 (§14) —
//!   `decision_horizon: Some(0.0)` against the `None` default;
//! * telemetry (§11) — a recording probe against [`NoopProbe`];
//! * the delta-driven scheduling core (§7) — each policy's
//!   rebuild-per-call reference path.
//!
//! Each [`Variant`] has one test that, for every mix × backend × policy,
//! diffs it against the default configuration (probed): engine events,
//! makespan, stranded jobs, the sorted completion set, the avg-JCT bit
//! pattern and the decision-point total
//! `sched_calls + sched_skipped + sched_elided + sched_deferred` (every
//! point keeps its sequence number whether it ran, was coalesced, elided
//! or deferred). Where both sides are probed, the windowed time-series
//! and the [`DecisionRecord`] provenance stream must match too.
//!
//! The specialised tests after the matrix pin what a diff of two
//! configurations cannot: the relaxed ε > 0 schedule, the golden pins
//! recorded before the profile store, provenance contents, the export
//! schema, and reveal order.

use std::sync::OnceLock;

use llmsched::prelude::*;
use llmsched::telemetry::json::validate;
use llmsched::telemetry::{DecisionList, DecisionRecord};
use llmsched_sim::engine::simulate_probed;

fn artifacts() -> &'static (Profiler, AppPriors) {
    static ART: OnceLock<(Profiler, AppPriors)> = OnceLock::new();
    ART.get_or_init(|| {
        let templates = all_templates();
        let corpus = training_jobs(&AppKind::ALL, 60, 1);
        let cfg = ProfilerConfig::default();
        let profiler = Profiler::train(&templates, &corpus, &cfg);
        let priors = AppPriors::from_training(&corpus, cfg.per_token_b1);
        (profiler, priors)
    })
}

/// The eight Fig. 7 policies, then work-conserving LLMSched (the only
/// LLMSched configuration the engine elides) and the two ablations.
const POLICIES: [&str; 11] = [
    "FCFS",
    "SJF",
    "Fair",
    "Argus",
    "Decima",
    "Carbyne",
    "SRTF",
    "LLMSched",
    "LLMSched work-conserving",
    "LLMSched w/o BN",
    "LLMSched w/o uncertainty",
];

/// The analytic simulator, the token-level testbed stand-in and the
/// disaggregated backend. A spec-less `Cluster` runs the analytic code
/// under another name, so it adds no column.
const BACKENDS: [EngineMode; 3] = [
    EngineMode::Analytic,
    EngineMode::TokenLevel,
    EngineMode::Disagg,
];

/// `policy`, on its delta-driven path or its rebuild-per-call reference.
fn build(policy: &str, rebuild: bool) -> Box<dyn Scheduler> {
    let (profiler, priors) = artifacts();
    let llmsched = |use_bn: bool, use_uncertainty: bool, work_conserving: bool| {
        Box::new(LlmSched::new(
            profiler.clone(),
            LlmSchedConfig {
                use_bn,
                use_uncertainty,
                work_conserving,
                incremental: !rebuild,
                ..LlmSchedConfig::default()
            },
        ))
    };
    match (policy, rebuild) {
        ("FCFS", false) => Box::new(Fcfs::new()),
        ("FCFS", true) => Box::new(Fcfs::rebuild()),
        ("SJF", false) => Box::new(Sjf::new(priors.clone())),
        ("SJF", true) => Box::new(Sjf::rebuild(priors.clone())),
        ("Fair", false) => Box::new(Fair::new()),
        ("Fair", true) => Box::new(Fair::rebuild()),
        ("Argus", false) => Box::new(Argus::new()),
        ("Argus", true) => Box::new(Argus::rebuild()),
        ("Decima", false) => Box::new(DecimaLike::new(priors.clone())),
        ("Decima", true) => Box::new(DecimaLike::rebuild(priors.clone())),
        ("Carbyne", false) => Box::new(CarbyneLike::new(priors.clone())),
        ("Carbyne", true) => Box::new(CarbyneLike::rebuild(priors.clone())),
        ("SRTF", false) => Box::new(Srtf::new(priors.clone())),
        ("SRTF", true) => Box::new(Srtf::rebuild(priors.clone())),
        ("LLMSched", _) => llmsched(true, true, false),
        ("LLMSched work-conserving", _) => llmsched(true, true, true),
        ("LLMSched w/o BN", _) => llmsched(false, true, false),
        ("LLMSched w/o uncertainty", _) => llmsched(true, false, false),
        _ => unreachable!("unknown policy {policy}"),
    }
}

/// Forwards every hook to the wrapped policy except
/// `is_work_conserving`, which stays `false`: the engine never elides a
/// decision point under it. This is elision's off-switch.
struct NotWorkConserving(Box<dyn Scheduler>);

impl Scheduler for NotWorkConserving {
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

/// One exact option, diffed against the default configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// `ClusterConfig::coalescing = false`.
    Uncoalesced,
    /// The policy behind [`NotWorkConserving`].
    Unelided,
    /// `decision_horizon: Some(0.0)` (the default is `None`).
    HorizonZero,
    /// [`NoopProbe`] (the default run is probed).
    Unprobed,
    /// The policy's rebuild-per-call reference path, under [`NoopProbe`]:
    /// LLMSched's delta-driven path stops emitting once its preference
    /// covers the free capacity, while the rebuild path emits the whole
    /// list, so their provenance differs even though dispatches match.
    Rebuild,
}

fn window_cfg() -> WindowConfig {
    WindowConfig::new(SimDuration::from_secs(5), SimDuration::from_secs(60))
}

fn recorder() -> TraceRecorder {
    TraceRecorder::new(TraceConfig {
        window: Some(window_cfg()),
    })
}

/// A finished run and, unless it ran under [`NoopProbe`], its trace.
type Run = (SimResult, Option<TraceRecorder>);

/// `policy` on 10 jobs of `kind` (seed `seed`) under `mode`, with
/// `variant` applied; `None` is the default configuration.
fn run(
    kind: WorkloadKind,
    mode: EngineMode,
    policy: &str,
    variant: Option<Variant>,
    seed: u64,
) -> Run {
    let w = generate_workload(kind, 10, 0.9, seed);
    let mut cfg = kind.default_cluster();
    cfg.mode = mode;
    let mut sched = build(policy, variant == Some(Variant::Rebuild));
    match variant {
        Some(Variant::Uncoalesced) => cfg.coalescing = false,
        Some(Variant::Unelided) => sched = Box::new(NotWorkConserving(sched)),
        Some(Variant::HorizonZero) => cfg.decision_horizon = Some(0.0),
        Some(Variant::Unprobed | Variant::Rebuild) => {
            return (simulate(&cfg, &w.templates, w.jobs, &mut sched), None);
        }
        None => {}
    }
    let mut rec = recorder();
    let r = simulate_probed(&cfg, &w.templates, w.jobs, &mut sched, &mut rec);
    (r, Some(rec))
}

fn decisions(rec: &TraceRecorder) -> Vec<DecisionRecord> {
    rec.events()
        .iter()
        .filter_map(|e| match e {
            ProbeEvent::Decision(d) => Some(*d),
            _ => None,
        })
        .collect()
}

/// Every decision point the run evaluated, whatever became of it — the
/// same total the engine numbers provenance `seq` from.
fn decision_points(r: &SimResult) -> u64 {
    r.sched_calls + r.sched_skipped + r.sched_elided + r.sched_deferred
}

/// The one comparator: `a` and `b` ran the same schedule.
fn assert_equiv(a: &Run, b: &Run, label: &str) {
    let ((ra, trace_a), (rb, trace_b)) = (a, b);
    assert_eq!(ra.events, rb.events, "{label}: engine event counts");
    assert_eq!(ra.makespan, rb.makespan, "{label}: makespans");
    assert_eq!(ra.incomplete, rb.incomplete, "{label}: stranded jobs");
    let completions = |r: &SimResult| {
        let mut v: Vec<_> = r.jobs.iter().map(|j| (j.id, j.completion)).collect();
        v.sort();
        v
    };
    assert_eq!(completions(ra), completions(rb), "{label}: completions");
    assert_eq!(
        ra.avg_jct_secs().to_bits(),
        rb.avg_jct_secs().to_bits(),
        "{label}: avg JCT bit pattern"
    );
    assert_eq!(
        decision_points(ra),
        decision_points(rb),
        "{label}: decision-point count"
    );
    if let (Some(ta), Some(tb)) = (trace_a, trace_b) {
        assert_eq!(ra.timeseries, rb.timeseries, "{label}: time-series");
        assert_eq!(decisions(ta), decisions(tb), "{label}: decision provenance");
    }
}

/// The matrix for one variant: `variant` against the default
/// configuration for every mix × backend × policy. Returns the default
/// runs' coalesced and elided totals.
fn matrix(variant: Variant) -> (u64, u64) {
    let (mut total_skipped, mut total_elided) = (0u64, 0u64);
    for kind in WorkloadKind::ALL {
        for mode in BACKENDS {
            for policy in POLICIES {
                let base = run(kind, mode, policy, None, 11);
                let other = run(kind, mode, policy, Some(variant), 11);
                let label = format!("{policy} / {} / {mode:?} / {variant:?}", kind.name());
                let (r, trace) = &base;
                assert!(
                    !trace
                        .as_ref()
                        .expect("default run is probed")
                        .events()
                        .is_empty(),
                    "{label}: enabled probe recorded nothing"
                );
                assert!(
                    r.timeseries.is_some(),
                    "{label}: probed run lost its series"
                );
                assert_eq!(r.sched_deferred, 0, "{label}: default horizon deferred");
                total_skipped += r.sched_skipped;
                total_elided += r.sched_elided;
                assert_equiv(&base, &other, &label);
                let v = &other.0;
                assert_eq!(v.sched_deferred, 0, "{label}: exact mode deferred");
                match variant {
                    Variant::Uncoalesced => {
                        assert_eq!(v.sched_skipped, 0, "{label}: skipped a point");
                        assert!(
                            r.sched_calls <= v.sched_calls,
                            "{label}: coalescing added invocations"
                        );
                    }
                    Variant::Unelided => {
                        assert_eq!(v.sched_elided, 0, "{label}: elided a point");
                    }
                    Variant::Unprobed => {
                        assert!(v.timeseries.is_none(), "{label}: grew a time-series");
                    }
                    Variant::HorizonZero | Variant::Rebuild => {}
                }
            }
        }
    }
    (total_skipped, total_elided)
}

#[test]
fn coalesced_runs_are_bit_identical_for_every_policy_mix_and_backend() {
    let (total_skipped, _) = matrix(Variant::Uncoalesced);
    assert!(total_skipped > 0, "coalescing never engaged");
}

#[test]
fn elided_runs_are_bit_identical_for_every_policy_mix_and_backend() {
    let (_, total_elided) = matrix(Variant::Unelided);
    assert!(total_elided > 0, "elision never engaged");
}

#[test]
fn horizon_zero_is_bit_identical_for_every_policy_mix_backend_and_engine() {
    matrix(Variant::HorizonZero);
}

#[test]
fn probed_runs_are_bit_identical_for_every_policy_mix_and_backend() {
    matrix(Variant::Unprobed);
}

#[test]
fn every_policy_every_mix_every_backend() {
    matrix(Variant::Rebuild);
}

/// Coalescing skips only decision points with nothing dispatchable:
/// `sched_calls` counts real invocations, so the uncoalesced count is an
/// upper bound, and the dispatch moments — hence avg JCT — survive
/// verbatim.
#[test]
fn coalescing_only_skips_empty_decision_points() {
    for kind in WorkloadKind::ALL {
        let (on, _) = run(kind, EngineMode::Analytic, "FCFS", None, 11);
        let (off, _) = run(
            kind,
            EngineMode::Analytic,
            "FCFS",
            Some(Variant::Uncoalesced),
            11,
        );
        assert!(
            on.sched_calls <= off.sched_calls,
            "{}: coalescing added invocations",
            kind.name()
        );
        assert_eq!(
            on.avg_jct_secs().to_bits(),
            off.avg_jct_secs().to_bits(),
            "{}: schedule moved",
            kind.name()
        );
    }
}

/// `simulate` is `simulate_probed` with a [`NoopProbe`]: no time-series,
/// and the same schedule as the explicit call.
#[test]
fn noop_probe_is_indistinguishable_from_simulate() {
    for kind in [WorkloadKind::Mixed, WorkloadKind::Planning] {
        let w = generate_workload(kind, 10, 0.9, 11);
        let mut sched = build("LLMSched", false);
        let r = simulate_probed(
            &kind.default_cluster(),
            &w.templates,
            w.jobs,
            &mut sched,
            &mut NoopProbe,
        );
        assert!(
            r.timeseries.is_none(),
            "{}: grew a time-series",
            kind.name()
        );
        let plain = run(
            kind,
            EngineMode::Analytic,
            "LLMSched",
            Some(Variant::Unprobed),
            11,
        );
        assert_equiv(&(r, None), &plain, &format!("noop / {}", kind.name()));
    }
}

/// The run the relaxed-ε tests use: 40 back-to-back arrivals, so that
/// ε > 0 actually defers.
fn run_dense(kind: WorkloadKind, mode: EngineMode, policy: &str, horizon: Option<f64>) -> Run {
    let w = generate_workload_with(kind, 40, &ArrivalProcess::Poisson { lambda: 6.0 }, 11);
    let mut cfg = kind.default_cluster();
    cfg.mode = mode;
    cfg.decision_horizon = horizon;
    let mut sched = build(policy, false);
    let mut rec = recorder();
    let r = simulate_probed(&cfg, &w.templates, w.jobs, &mut sched, &mut rec);
    (r, Some(rec))
}

/// The sum of the `folded` counts on a trace's `SchedInvoked` records.
fn folded(rec: &TraceRecorder) -> u64 {
    rec.events()
        .iter()
        .map(|e| match e {
            ProbeEvent::SchedInvoked { folded, .. } => u64::from(*folded),
            _ => 0,
        })
        .sum()
}

/// ε > 0 is a deterministic relaxation: two relaxed runs of the same
/// configuration land on the same bits, with identical provenance.
/// Deferral deletes policy invocations *in aggregate* — a window folding
/// k points trades k invocations for 1, but ε > 0 moves the schedule, so
/// single combos can come out a few invocations worse — and the avg-JCT
/// drift against the exact schedule stays loosely bounded (the tight
/// 0.5% gate is `scale_throughput --check`'s).
#[test]
fn relaxed_runs_are_deterministic_and_delete_barriers() {
    const EPS: f64 = 0.2;
    let mut total_deferred = 0u64;
    let (mut calls_relaxed, mut calls_exact) = (0u64, 0u64);
    for kind in [WorkloadKind::Mixed, WorkloadKind::Planning] {
        for mode in [EngineMode::Analytic, EngineMode::Disagg] {
            for policy in ["FCFS", "SRTF", "LLMSched work-conserving"] {
                let label = format!("{policy} / {} / {mode:?}", kind.name());
                let first = run_dense(kind, mode, policy, Some(EPS));
                let again = run_dense(kind, mode, policy, Some(EPS));
                assert_equiv(&first, &again, &label);
                let (first, again) = (first.0, again.0);
                assert_eq!(
                    first.sched_deferred, again.sched_deferred,
                    "{label}: deferral counts"
                );
                assert_eq!(first.incomplete, 0, "{label}: relaxed run stranded jobs");
                total_deferred += first.sched_deferred;
                let (exact, _) = run_dense(kind, mode, policy, None);
                calls_relaxed += first.sched_calls;
                calls_exact += exact.sched_calls;
                // A broken fold that strands or starves jobs blows far
                // past 10% immediately.
                let drift =
                    (first.avg_jct_secs() - exact.avg_jct_secs()).abs() / exact.avg_jct_secs();
                assert!(
                    drift < 0.10,
                    "{label}: relaxed avg JCT drifted {:.1}% from exact",
                    drift * 100.0
                );
            }
        }
    }
    assert!(
        total_deferred > 0,
        "batching never deferred a decision point across the matrix"
    );
    assert!(
        calls_relaxed < calls_exact,
        "batching never deleted a policy invocation: {calls_relaxed} relaxed vs \
         {calls_exact} exact"
    );
}

/// Every deferred decision point is folded into exactly one batched
/// invocation: the `folded` counts on `SchedInvoked` records sum to the
/// deferred total.
#[test]
fn folded_provenance_accounts_for_every_deferred_decision_point() {
    for (policy, mode) in [
        ("LLMSched work-conserving", EngineMode::Analytic),
        ("SRTF", EngineMode::Disagg),
        ("FCFS", EngineMode::Cluster),
    ] {
        let (r, rec) = run_dense(WorkloadKind::Mixed, mode, policy, Some(0.2));
        assert!(
            r.sched_deferred > 0,
            "{policy}/{mode:?}: nothing deferred at ε=0.2s"
        );
        assert_eq!(
            folded(&rec.expect("probed")),
            r.sched_deferred,
            "{policy}/{mode:?}: folded provenance vs deferred count"
        );
    }
}

/// A policy that does not declare itself work-conserving is never elided
/// — stock LLMSched advances its ε-draw stream even at capacity-starved
/// decision points, so eliding it would change the schedule.
#[test]
fn stock_llmsched_is_never_elided() {
    for kind in [WorkloadKind::Mixed, WorkloadKind::ChainLike] {
        let (r, _) = run(
            kind,
            EngineMode::Analytic,
            "LLMSched",
            Some(Variant::Unprobed),
            11,
        );
        assert_eq!(
            r.sched_elided,
            0,
            "{}: engine elided a non-work-conserving policy",
            kind.name()
        );
    }
}

/// LLMSched's decision provenance: every dispatch of an LLMSched run is
/// explained by a [`DecisionRecord`] with coherent posterior state.
#[test]
fn llmsched_runs_carry_decision_provenance() {
    let (r, rec) = run(
        WorkloadKind::Mixed,
        EngineMode::Analytic,
        "LLMSched",
        None,
        11,
    );
    let records = decisions(&rec.expect("probed"));
    assert!(!records.is_empty(), "LLMSched run produced no provenance");
    let known_jobs: std::collections::BTreeSet<_> = r.jobs.iter().map(|j| j.id).collect();
    let mut explore = 0usize;
    for d in &records {
        assert!(known_jobs.contains(&d.job), "provenance names unknown job");
        assert!(d.tasks > 0, "a decision must attach at least one task ref");
        assert!(
            d.seq < decision_points(&r),
            "seq beyond the decision-point count"
        );
        assert!(
            d.expected_work.is_finite() && d.expected_work >= 0.0,
            "posterior work estimate must be finite"
        );
        assert!(
            d.interval.0 <= d.interval.1,
            "support interval must be ordered"
        );
        match d.list {
            DecisionList::Explore => {
                explore += 1;
                assert!(
                    d.reduction.is_some(),
                    "explore emissions are Eq. 6 score-driven"
                );
            }
            DecisionList::Exploit | DecisionList::Tail => {
                assert!(d.reduction.is_none(), "non-explore emission with a score");
            }
        }
    }
    assert!(explore > 0, "the exploration list never emitted");
    // Records arrive in engine emission order: seq non-decreasing, rank
    // increasing within an invocation.
    for w in records.windows(2) {
        assert!(w[0].seq <= w[1].seq, "provenance seq went backwards");
        if w[0].seq == w[1].seq {
            assert!(w[0].rank < w[1].rank, "provenance rank not increasing");
        }
    }
    // Baselines keep no posterior state and emit none.
    let (_, rec_fcfs) = run(WorkloadKind::Mixed, EngineMode::Analytic, "FCFS", None, 11);
    assert!(
        decisions(&rec_fcfs.expect("probed")).is_empty(),
        "FCFS should have no provenance"
    );
}

/// End-to-end export schema: a real run's JSONL and Chrome trace validate
/// and carry the fields the observability contract promises.
#[test]
fn exports_from_a_real_run_validate_and_carry_required_fields() {
    let (r, rec) = run(
        WorkloadKind::Mixed,
        EngineMode::Cluster,
        "LLMSched",
        None,
        11,
    );
    let rec = rec.expect("probed");
    let series = r.timeseries.as_ref();
    let jsonl = rec.jsonl(series);
    for (i, line) in jsonl.lines().enumerate() {
        validate(line).unwrap_or_else(|e| panic!("JSONL line {}: {e}: {line}", i + 1));
        assert!(line.starts_with("{\"type\":\""), "untagged line: {line}");
    }
    for needle in [
        "\"type\":\"job_arrived\"",
        "\"type\":\"task_dispatched\"",
        "\"type\":\"task_finished\"",
        "\"type\":\"stage_completed\"",
        "\"type\":\"job_completed\"",
        "\"type\":\"sched_invoked\"",
        "\"type\":\"decision\"",
        "\"type\":\"batch_admit\"",
        "\"type\":\"batch_drain\"",
        "\"type\":\"routed\"",
        "\"type\":\"util_sample\"",
        "\"type\":\"window\"",
        "\"evidence_mask\":",
        "\"profile_version\":",
        "\"expected_work\":",
        "\"jct_p99\":",
        "\"slo_attainment\":",
        "\"goodput\":",
        "\"mean_queue_depth\":",
    ] {
        assert!(jsonl.contains(needle), "JSONL missing {needle}");
    }
    let chrome = rec.chrome_trace(series);
    validate(&chrome).unwrap_or_else(|e| panic!("chrome trace: {e}"));
    for needle in [
        "\"traceEvents\"",
        "\"ph\":\"M\"",
        "\"ph\":\"X\"",
        "\"ph\":\"i\"",
        "\"ph\":\"C\"",
        "\"name\":\"queue_depth\"",
        "\"name\":\"window\"",
        "\"name\":\"schedule#0\"",
    ] {
        assert!(chrome.contains(needle), "chrome trace missing {needle}");
    }
}

/// The windowed series is a complete account of the run: arrivals and
/// completions across rows sum to the job count, rows are contiguous, and
/// the utilization/depth trajectories stay in range.
#[test]
fn timeseries_accounts_for_every_job() {
    let (r, _) = run(
        WorkloadKind::Mixed,
        EngineMode::Analytic,
        "LLMSched",
        None,
        11,
    );
    let ts = r.timeseries.as_ref().expect("series");
    assert_eq!(ts.width, window_cfg().width);
    assert_eq!(ts.slo, window_cfg().slo);
    let arrivals: u64 = ts.rows.iter().map(|w| w.arrivals).sum();
    let completions: u64 = ts.rows.iter().map(|w| w.completions).sum();
    assert_eq!(arrivals, r.jobs.len() as u64);
    assert_eq!(completions, r.jobs.len() as u64);
    for (i, row) in ts.rows.iter().enumerate() {
        assert_eq!(row.index, i as u64, "rows must be contiguous");
        assert_eq!(row.start.0, i as u64 * ts.width.0);
        assert!((0.0..=1.0).contains(&row.slo_attainment));
        assert!((0.0..=1.0).contains(&row.regular_util));
        assert!((0.0..=1.0).contains(&row.llm_util));
        assert!(row.mean_queue_depth >= 0.0);
        assert!(row.goodput >= 0.0);
    }
    let last = ts.rows.last().expect("non-empty series");
    assert!(
        last.end.0 >= r.makespan.0,
        "series must cover the full makespan"
    );
}

/// The incremental path must also observe hidden structure in the same
/// order: a recording wrapper diffs each job's visible stage set per
/// invocation and the per-job reveal sequences must match the rebuild
/// path's exactly.
#[test]
fn reveal_orders_are_identical() {
    use std::collections::HashMap;

    struct RevealRecorder {
        inner: Box<dyn Scheduler>,
        seen: HashMap<JobId, Vec<StageId>>,
    }
    impl Scheduler for RevealRecorder {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
            for job in &ctx.jobs {
                let rec = self.seen.entry(job.id()).or_default();
                for &s in job.visible_stage_ids() {
                    if !rec.contains(&s) {
                        rec.push(s);
                    }
                }
            }
            self.inner.schedule(ctx)
        }
        fn on_delta(&mut self, d: &SchedDelta) {
            self.inner.on_delta(d);
        }
        fn reset(&mut self) {
            self.inner.reset();
        }
    }

    for kind in [WorkloadKind::Planning, WorkloadKind::ChainLike] {
        let run = |rebuild: bool| {
            let w = generate_workload(kind, 12, 0.9, 29);
            let mut rec = RevealRecorder {
                inner: build("LLMSched", rebuild),
                seen: HashMap::new(),
            };
            let r = simulate(&kind.default_cluster(), &w.templates, w.jobs, &mut rec);
            ((r, None), rec.seen)
        };
        let (ri, seen_i) = run(false);
        let (rr, seen_r) = run(true);
        assert_equiv(&ri, &rr, &format!("LLMSched reveals / {}", kind.name()));
        assert_eq!(seen_i, seen_r, "{}: reveal orders diverged", kind.name());
    }
}

/// Frozen-mode pin: with `ProfileUpdate::Frozen` (the default), the
/// versioned ProfileStore must be **bit-identical to the pre-store
/// frozen profiler** — same engine event counts and the exact f64 bit
/// pattern of the average JCT, recorded from the tree before the
/// online-profiling refactor landed. Every policy × backend is already
/// swept above; this locks the flagship policy's absolute behavior so a
/// store regression cannot hide behind a both-paths-drifted equivalence.
#[test]
fn frozen_profile_update_is_bit_identical_to_pre_store_schedules() {
    // (mix, mode, avg_jct f64 bits, engine events) captured at the
    // pre-refactor commit with the training setup of `artifacts()`.
    let golden = [
        (
            WorkloadKind::Mixed,
            EngineMode::Analytic,
            0x4035d5b500276d2bu64,
            476u64,
        ),
        (
            WorkloadKind::Mixed,
            EngineMode::Cluster,
            0x4035d5b500276d2b,
            476,
        ),
        (
            WorkloadKind::Predefined,
            EngineMode::Analytic,
            0x40402f78eacd68d4,
            651,
        ),
        (
            WorkloadKind::Predefined,
            EngineMode::Cluster,
            0x40402f78eacd68d4,
            651,
        ),
        (
            WorkloadKind::ChainLike,
            EngineMode::Analytic,
            0x402321c952c4c8f2,
            116,
        ),
        (
            WorkloadKind::ChainLike,
            EngineMode::Cluster,
            0x402321c952c4c8f2,
            116,
        ),
        (
            WorkloadKind::Planning,
            EngineMode::Analytic,
            0x401f56f39085f4a2,
            138,
        ),
        (
            WorkloadKind::Planning,
            EngineMode::Cluster,
            0x401f56f39085f4a2,
            138,
        ),
    ];
    let (profiler, _) = artifacts();
    for (kind, mode, bits, events) in golden {
        for explicit_frozen in [false, true] {
            let w = generate_workload(kind, 10, 0.9, 11);
            let mut cfg = kind.default_cluster();
            cfg.mode = mode;
            let scfg = LlmSchedConfig {
                profile_update: if explicit_frozen {
                    ProfileUpdate::Frozen
                } else {
                    LlmSchedConfig::default().profile_update
                },
                ..LlmSchedConfig::default()
            };
            let mut sched = LlmSched::new(profiler.clone(), scfg);
            let r = simulate(&cfg, &w.templates, w.jobs, &mut sched);
            let label = format!("{} / {:?} (explicit={explicit_frozen})", kind.name(), mode);
            assert_eq!(r.events, events, "{label}: engine events moved");
            assert_eq!(
                r.avg_jct_secs().to_bits(),
                bits,
                "{label}: avg JCT bits moved ({} vs golden {})",
                r.avg_jct_secs(),
                f64::from_bits(bits)
            );
        }
    }
}

/// The incremental ≡ rebuild invariant must also hold with **online
/// profiling active**: both execution paths absorb the same observation
/// stream at the same decision points, so per-completion snapshot
/// publishing keeps the two schedules bit-identical.
#[test]
fn online_profile_updates_preserve_incremental_equivalence() {
    let templates = all_templates();
    let corpus = training_jobs(&AppKind::ALL, 60, 1);
    let run = |kind: WorkloadKind, incremental: bool| {
        let store = ProfileStore::train(
            &templates,
            &corpus,
            ProfileStoreConfig {
                update: ProfileUpdate::PerCompletion,
                ..ProfileStoreConfig::default()
            },
        );
        let mut sched = LlmSched::with_store(
            store,
            LlmSchedConfig {
                incremental,
                ..LlmSchedConfig::default()
            },
        );
        let w = generate_workload(kind, 12, 0.9, 23);
        let r = simulate(&kind.default_cluster(), &w.templates, w.jobs, &mut sched);
        (r, None)
    };
    for kind in WorkloadKind::ALL {
        let inc = run(kind, true);
        let reb = run(kind, false);
        assert_equiv(&inc, &reb, &format!("LLMSched online / {}", kind.name()));
    }
}

/// Extra analytic-backend seed sweep of the rebuild reference, including
/// the LLMSched ablations (the exploration machinery exercises the
/// interval index and memoized reductions hardest).
#[test]
fn analytic_seed_sweep_with_ablations() {
    let policies = [
        "LLMSched",
        "LLMSched w/o BN",
        "LLMSched w/o uncertainty",
        "SRTF",
        "Carbyne",
    ];
    for kind in WorkloadKind::ALL {
        for seed in [7u64, 42, 1234] {
            for policy in policies {
                let inc = run(kind, EngineMode::Analytic, policy, None, seed);
                let reb = run(
                    kind,
                    EngineMode::Analytic,
                    policy,
                    Some(Variant::Rebuild),
                    seed,
                );
                let label = format!("{policy} / {} / seed {seed}", kind.name());
                assert_equiv(&inc, &reb, &label);
            }
        }
    }
}
