//! Miniature deterministic workloads used by scheduler unit tests (and by
//! downstream integration tests).
//!
//! Not part of the scheduling API proper — just shared fixtures small
//! enough to reason about by hand.

use llmsched_dag::prelude::*;
use llmsched_sim::engine::{simulate, ClusterConfig};
use llmsched_sim::latency::LatencyProfile;
use llmsched_sim::metrics::SimResult;
use llmsched_sim::scheduler::{ActiveJobs, Preference, SchedContext, Scheduler};
use llmsched_sim::state::JobRt;

/// App 0: a short job — one 50-token LLM stage then a 0.2 s regular stage.
/// App 1: a long job — one 500-token LLM stage then a 1 s regular stage.
fn two_class_templates() -> (Template, Template) {
    let mk = |app: u32, name: &str| {
        let mut b = TemplateBuilder::new(AppId(app), name);
        let g = b.llm("gen");
        let e = b.regular("exec");
        b.edge(g, e);
        b.build().unwrap()
    };
    (mk(0, "short_app"), mk(1, "long_app"))
}

fn job_of(template: &Template, id: u64, arrival: f64, tokens: u32, reg_secs: f64) -> JobSpec {
    JobSpec::new(
        JobId(id),
        template,
        SimTime::from_secs_f64(arrival),
        vec![
            StageSpec::executing(
                "gen",
                StageKind::Llm,
                vec![TaskWork::Llm {
                    prompt_tokens: 0,
                    output_tokens: tokens,
                }],
            ),
            StageSpec::executing(
                "exec",
                StageKind::Regular,
                vec![TaskWork::Regular {
                    duration: SimDuration::from_secs_f64(reg_secs),
                }],
            ),
        ],
        vec![],
    )
    .unwrap()
}

/// A training corpus with both app classes (ids 1000+ so they never clash
/// with workload jobs).
pub fn two_class_training() -> Vec<JobSpec> {
    let (short, long) = two_class_templates();
    let mut jobs = Vec::new();
    for i in 0..20 {
        jobs.push(job_of(&short, 1000 + i, 0.0, 45 + (i as u32 % 10), 0.2));
        jobs.push(job_of(&long, 1100 + i, 0.0, 480 + (i as u32 % 40), 1.0));
    }
    jobs
}

/// Four long jobs arrive at t=0, four short jobs at t=0.1: a duration-aware
/// policy should leapfrog the short ones. Single LLM executor (batch 2),
/// one regular executor, flat 20 ms/token latency.
pub fn run_two_class_workload(sched: &mut dyn Scheduler) -> SimResult {
    let (short, long) = two_class_templates();
    let templates: TemplateSet = [short.clone(), long.clone()].into_iter().collect();
    let mut jobs = Vec::new();
    for i in 0..4 {
        jobs.push(job_of(&long, i, 0.0, 500, 1.0));
    }
    for i in 4..8 {
        jobs.push(job_of(&short, i, 0.1, 50, 0.2));
    }
    let cfg = ClusterConfig {
        regular_executors: 1,
        llm_executors: 1,
        max_batch: 2,
        latency: LatencyProfile::new(vec![
            (1, SimDuration::from_millis(20)),
            (2, SimDuration::from_millis(22)),
        ])
        .unwrap(),
        ..ClusterConfig::default()
    };
    simulate(&cfg, &templates, jobs, sched)
}

/// Runs two schedulers on the two-class fixture and asserts they produced
/// the *bit-identical* schedule: same event count, same per-job completion
/// times, same makespan. Used to pin incremental policy paths to their
/// rebuild-per-call references.
pub fn assert_same_schedule(a: &mut dyn Scheduler, b: &mut dyn Scheduler) {
    let ra = run_two_class_workload(a);
    let rb = run_two_class_workload(b);
    assert_eq!(ra.events, rb.events, "{}: event counts diverged", a.name());
    assert_eq!(ra.makespan, rb.makespan, "{}: makespans diverged", a.name());
    assert_eq!(ra.incomplete, rb.incomplete);
    let key = |r: &SimResult| {
        let mut v: Vec<_> = r.jobs.iter().map(|j| (j.id, j.completion)).collect();
        v.sort();
        v
    };
    assert_eq!(key(&ra), key(&rb), "{}: completions diverged", a.name());
}

/// A three-stage all-regular template: `lone` is a root with no
/// children, and `head → tail` is a two-stage chain, so `head` is the
/// deeper of the two ready roots.
pub fn fork_template(app: u32) -> Template {
    let mut b = TemplateBuilder::new(AppId(app), "fork");
    b.regular("lone");
    let head = b.regular("head");
    let tail = b.regular("tail");
    b.edge(head, tail);
    b.build().unwrap()
}

/// A job of [`fork_template`]: one task of `secs` seconds per stage.
pub fn fork_job(template: &Template, id: u64, arrival: f64, secs: f64) -> JobSpec {
    let stage = |name: &str| {
        StageSpec::executing(
            name,
            StageKind::Regular,
            vec![TaskWork::Regular {
                duration: SimDuration::from_secs_f64(secs),
            }],
        )
    };
    JobSpec::new(
        JobId(id),
        template,
        SimTime::from_secs_f64(arrival),
        vec![stage("lone"), stage("head"), stage("tail")],
        vec![],
    )
    .unwrap()
}

/// Calls `sched.schedule` once on a hand-built context over `jobs`
/// (ascending `JobId`) with more free regular executors than ready
/// tasks, so a budgeted policy emits its whole order.
pub fn schedule_once(sched: &mut dyn Scheduler, jobs: &[JobRt]) -> Preference {
    let templates: TemplateSet = std::iter::empty().collect();
    let latency = LatencyProfile::default();
    let (regular, llm) = jobs.iter().fold((0, 0), |(r, l), j| {
        let (jr, jl) = j.ready_unstarted_by_class();
        (r + jr, l + jl)
    });
    let ctx = SchedContext {
        now: SimTime::ZERO,
        jobs: ActiveJobs::dense(jobs),
        llm_executors: &[],
        backend: "analytic",
        regular_total: regular + 1,
        regular_busy: 0,
        dispatchable: regular + llm,
        dispatchable_regular: regular,
        dispatchable_llm: llm,
        could_dispatch: true,
        templates: &templates,
        latency: &latency,
    };
    sched.reset();
    sched.schedule(&ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsched_sim::scheduler::{Preference, SchedContext};

    struct Greedy;
    impl Scheduler for Greedy {
        fn name(&self) -> &str {
            "greedy"
        }
        fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
            let mut p = Preference::new();
            for job in &ctx.jobs {
                for &s in job.ready_stage_ids() {
                    p.push_stage_tasks(job, s);
                }
            }
            p
        }
    }

    #[test]
    fn fixture_completes_under_any_work_conserving_policy() {
        let r = run_two_class_workload(&mut Greedy);
        assert_eq!(r.incomplete, 0);
        assert_eq!(r.jobs.len(), 8);
    }
}
