//! Job-agnostic and duration-based baselines: FCFS, Fair, SJF, SRTF.
//!
//! Every policy here has one `schedule` body. Its `::rebuild()` reference
//! runs that body with unbounded emission ([`Budget::unbounded`]) and
//! keys recomputed on every call; the default emits under the call's
//! free capacity ([`Budget::of`]). The equivalence tests pin the two to
//! the same schedule.
//!
//! Each default path keeps the job order that measured cheapest:
//!
//! * FCFS stable-sorts by `(arrival, JobId)`: the active jobs are almost
//!   always in arrival order already, so the sort is linear.
//! * Fair sorts the jobs with a ready stage by `(running tasks, arrival,
//!   JobId)` on every call, each key computed once per job; blocked jobs
//!   would only get empty round-robin queues. A persistent [`DeltaIndex`]
//!   repositioned on every task dispatch/finish delta was no faster.
//! * SJF and SRTF keep a [`DeltaIndex`]: their keys move rarely (never
//!   for SJF, on stage completions for SRTF), and sorting per call made
//!   them 1.5–1.6× and 4.3–5.9× slower at 300 and 3,000 mixed jobs (see
//!   `llmsched_sim::incr`). The `::rebuild()` reference sorts instead.

use llmsched_dag::ids::JobId;
use llmsched_dag::time::SimTime;
use llmsched_sim::incr::{DeltaIndex, FiniteF64};
use llmsched_sim::scheduler::{Preference, SchedContext, SchedDelta, Scheduler};
use llmsched_sim::state::JobRt;

use crate::util::{sorted_jobs, AppPriors, Budget, ReadyTasks};

/// **First Come First Serve** — jobs in arrival order (Spark's default
/// scheme; job-agnostic).
#[derive(Debug, Default)]
pub struct Fcfs {
    rebuild: bool,
}

impl Fcfs {
    /// The budgeted FCFS scheduler (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild() -> Self {
        Fcfs { rebuild: true }
    }
}

impl Scheduler for Fcfs {
    fn name(&self) -> &str {
        "FCFS"
    }

    // The `!could_dispatch` early-return above every decision makes the
    // policy a provable no-op at capacity-starved points: capacity-aware
    // elision is sound.
    fn is_work_conserving(&self) -> bool {
        true
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
        if !ctx.could_dispatch {
            // Nothing could start (no ready work, or no free executor of
            // a ready class): decide nothing, touch no state, so an
            // engine that coalesces or elides this call stays
            // bit-identical.
            return Preference::new();
        }
        let mut jobs: Vec<&JobRt> = ctx.jobs.iter().collect();
        jobs.sort_by_key(|j| (j.arrival(), j.id()));
        let mut p = Preference::new();
        Budget::for_call(ctx, self.rebuild).push_jobs(&mut p, jobs);
        p
    }
}

/// **Fair Scheduling** — equalizes the number of concurrently running
/// tasks across jobs (Spark's fair scheduler): tasks are offered
/// round-robin, least-served job first.
#[derive(Debug, Default)]
pub struct Fair {
    rebuild: bool,
}

impl Fair {
    /// The budgeted Fair scheduler (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild() -> Self {
        Fair { rebuild: true }
    }

    /// Round-robin task interleaving over per-job ready queues, offered in
    /// the given (least-served-first) job order. Emission is class-aware
    /// and stops once `budget` is met (dispatch-invariant: skipped entries
    /// could never start).
    fn round_robin(p: &mut Preference, queues: &[(&JobRt, ReadyTasks)], budget: Budget) {
        let mut cursors = vec![0usize; queues.len()];
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (qi, (job, tasks)) in queues.iter().enumerate() {
                if let Some(&(stage, task)) = tasks.get(cursors[qi]) {
                    cursors[qi] += 1;
                    progressed = true;
                    if budget.met(p) {
                        return;
                    }
                    budget.push_task(p, job, stage, task);
                }
            }
        }
    }

    fn ready_queue(job: &JobRt) -> ReadyTasks {
        job.ready_stage_ids()
            .iter()
            .flat_map(|&s| job.unstarted_tasks(s).map(move |t| (s, t)))
            .collect()
    }
}

impl Scheduler for Fair {
    fn name(&self) -> &str {
        "Fair"
    }

    // The `!could_dispatch` early-return above every decision makes the
    // policy a provable no-op at capacity-starved points: capacity-aware
    // elision is sound.
    fn is_work_conserving(&self) -> bool {
        true
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
        if !ctx.could_dispatch {
            // Nothing could start (no ready work, or no free executor of
            // a ready class): decide nothing, touch no state, so an
            // engine that coalesces or elides this call stays
            // bit-identical.
            return Preference::new();
        }
        // Jobs with no ready stage would get empty queues, which never
        // emit: leave them out before the sort and the queue build.
        let mut ready: Vec<((usize, SimTime, JobId), &JobRt)> = ctx
            .jobs
            .iter()
            .filter(|j| !j.ready_stage_ids().is_empty())
            .map(|j| ((j.running_tasks(), j.arrival(), j.id()), j))
            .collect();
        ready.sort_unstable_by_key(|&(k, _)| k);
        let queues: Vec<(&JobRt, ReadyTasks)> = ready
            .into_iter()
            .map(|(_, j)| (j, Self::ready_queue(j)))
            .collect();
        let mut p = Preference::new();
        Self::round_robin(&mut p, &queues, Budget::for_call(ctx, self.rebuild));
        p
    }
}

/// SJF and SRTF's shared body: ready stages of each job in `(key, JobId)`
/// order under the call's budget. The order comes from the refreshed
/// delta index, or from a per-call sort for the `::rebuild()` reference.
fn emit_in_key_order<K: Ord + Copy>(
    index: &mut DeltaIndex<K>,
    rebuild: bool,
    ctx: &SchedContext<'_>,
    key: impl Fn(&JobRt) -> K,
) -> Preference {
    let budget = Budget::for_call(ctx, rebuild);
    let mut p = Preference::new();
    if rebuild {
        budget.push_jobs(&mut p, sorted_jobs(ctx, key));
    } else {
        index.refresh(ctx, key);
        budget.push_jobs(&mut p, index.jobs().ids().filter_map(|id| ctx.job(id)));
    }
    p
}

/// **Shortest Job First** — prioritizes the job with the shortest
/// *historical mean* duration for its application (§II-C). Static: it never
/// updates with runtime observations, which is exactly the weakness the
/// motivating example (Fig. 2) exposes.
#[derive(Debug)]
pub struct Sjf {
    priors: AppPriors,
    rebuild: bool,
    /// Ordered by (historical app mean, arrival): keys are static, so the
    /// index only tracks membership.
    index: DeltaIndex<(FiniteF64, SimTime)>,
}

impl Sjf {
    /// Builds incremental SJF with historical priors.
    pub fn new(priors: AppPriors) -> Self {
        Sjf {
            priors,
            rebuild: false,
            index: DeltaIndex::new(),
        }
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild(priors: AppPriors) -> Self {
        Sjf {
            rebuild: true,
            ..Self::new(priors)
        }
    }
}

impl Scheduler for Sjf {
    fn name(&self) -> &str {
        "SJF"
    }

    fn on_delta(&mut self, d: &SchedDelta) {
        if !self.rebuild {
            self.index.on_delta(d, |_| false);
        }
    }

    fn reset(&mut self) {
        self.index.clear();
    }

    // The `!could_dispatch` early-return above every decision makes the
    // policy a provable no-op at capacity-starved points: capacity-aware
    // elision is sound.
    fn is_work_conserving(&self) -> bool {
        true
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
        if !ctx.could_dispatch {
            // Nothing could start (no ready work, or no free executor of
            // a ready class): decide nothing, touch no state, so an
            // engine that coalesces or elides this call stays
            // bit-identical.
            return Preference::new();
        }
        let priors = &self.priors;
        emit_in_key_order(&mut self.index, self.rebuild, ctx, |j| {
            (FiniteF64(priors.job_mean(j.app())), j.arrival())
        })
    }
}

/// **Shortest Remaining Time First** — like SJF but subtracts completed
/// stages from the static estimate. This is the JCT-efficient scheme inside
/// Algorithm 1 when stripped of both the BN and the uncertainty strategy.
#[derive(Debug)]
pub struct Srtf {
    priors: AppPriors,
    rebuild: bool,
    /// Ordered by (remaining estimate, arrival): repositioned when a stage
    /// of the job completes — the only event that can move the estimate.
    index: DeltaIndex<(FiniteF64, SimTime)>,
}

impl Srtf {
    /// Builds incremental SRTF with historical priors.
    pub fn new(priors: AppPriors) -> Self {
        Srtf {
            priors,
            rebuild: false,
            index: DeltaIndex::new(),
        }
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild(priors: AppPriors) -> Self {
        Srtf {
            rebuild: true,
            ..Self::new(priors)
        }
    }
}

impl Scheduler for Srtf {
    fn name(&self) -> &str {
        "SRTF"
    }

    fn on_delta(&mut self, d: &SchedDelta) {
        if !self.rebuild {
            self.index
                .on_delta(d, |d| matches!(d, SchedDelta::StageCompleted { .. }));
        }
    }

    fn reset(&mut self) {
        self.index.clear();
    }

    // The `!could_dispatch` early-return above every decision makes the
    // policy a provable no-op at capacity-starved points: capacity-aware
    // elision is sound.
    fn is_work_conserving(&self) -> bool {
        true
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
        if !ctx.could_dispatch {
            // Nothing could start (no ready work, or no free executor of
            // a ready class): decide nothing, touch no state, so an
            // engine that coalesces or elides this call stays
            // bit-identical.
            return Preference::new();
        }
        let priors = &self.priors;
        emit_in_key_order(&mut self.index, self.rebuild, ctx, |j| {
            (FiniteF64(priors.remaining_estimate(j)), j.arrival())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_same_schedule, run_two_class_workload, two_class_training};
    use llmsched_dag::time::SimDuration;

    #[test]
    fn sjf_beats_fcfs_on_bimodal_jobs() {
        // Long jobs arrive first; SJF should leapfrog the short ones.
        let priors = AppPriors::from_training(&two_class_training(), SimDuration::from_millis(20));
        let fcfs = run_two_class_workload(&mut Fcfs::new());
        let sjf = run_two_class_workload(&mut Sjf::new(priors));
        assert_eq!(fcfs.incomplete, 0);
        assert_eq!(sjf.incomplete, 0);
        assert!(
            sjf.avg_jct_secs() < fcfs.avg_jct_secs() * 0.95,
            "SJF {:.2}s should beat FCFS {:.2}s",
            sjf.avg_jct_secs(),
            fcfs.avg_jct_secs()
        );
    }

    #[test]
    fn srtf_matches_or_beats_sjf() {
        let priors = AppPriors::from_training(&two_class_training(), SimDuration::from_millis(20));
        let sjf = run_two_class_workload(&mut Sjf::new(priors.clone()));
        let srtf = run_two_class_workload(&mut Srtf::new(priors));
        assert!(srtf.avg_jct_secs() <= sjf.avg_jct_secs() * 1.05);
    }

    #[test]
    fn fair_completes_everything() {
        let r = run_two_class_workload(&mut Fair::new());
        assert_eq!(r.incomplete, 0);
    }

    #[test]
    fn incremental_paths_match_rebuild_paths() {
        let priors = AppPriors::from_training(&two_class_training(), SimDuration::from_millis(20));
        assert_same_schedule(&mut Fcfs::new(), &mut Fcfs::rebuild());
        assert_same_schedule(&mut Fair::new(), &mut Fair::rebuild());
        assert_same_schedule(
            &mut Sjf::new(priors.clone()),
            &mut Sjf::rebuild(priors.clone()),
        );
        assert_same_schedule(&mut Srtf::new(priors.clone()), &mut Srtf::rebuild(priors));
    }

    /// Simulates jobs `(id, arrival, task seconds)` of a one-stage
    /// regular template on `regular` regular executors.
    fn run_one_stage(
        sched: &mut dyn Scheduler,
        regular: usize,
        jobs: &[(u64, f64, &[f64])],
    ) -> llmsched_sim::metrics::SimResult {
        use llmsched_dag::prelude::*;
        use llmsched_sim::engine::{simulate, ClusterConfig};
        let mut b = TemplateBuilder::new(AppId(0), "one_stage");
        b.regular("exec");
        let template = b.build().unwrap();
        let specs = jobs
            .iter()
            .map(|&(id, arrival, secs)| {
                let tasks = secs
                    .iter()
                    .map(|&s| TaskWork::Regular {
                        duration: SimDuration::from_secs_f64(s),
                    })
                    .collect();
                JobSpec::new(
                    JobId(id),
                    &template,
                    SimTime::from_secs_f64(arrival),
                    vec![StageSpec::executing("exec", StageKind::Regular, tasks)],
                    vec![],
                )
                .unwrap()
            })
            .collect();
        let templates: TemplateSet = [template.clone()].into_iter().collect();
        let cfg = ClusterConfig {
            regular_executors: regular,
            llm_executors: 1,
            ..ClusterConfig::default()
        };
        simulate(&cfg, &templates, specs, sched)
    }

    #[test]
    fn fcfs_orders_by_arrival_not_job_id() {
        // Job 0 holds the only regular executor for 1 s; jobs 2 and 1
        // queue behind it in that arrival order, against JobId order.
        for mut sched in [Fcfs::new(), Fcfs::rebuild()] {
            let jobs: [(u64, f64, &[f64]); 3] =
                [(0, 0.0, &[1.0]), (1, 0.3, &[1.0]), (2, 0.2, &[1.0])];
            let r = run_one_stage(&mut sched, 1, &jobs);
            assert_eq!(r.incomplete, 0);
            let done = |id: u64| r.jobs.iter().find(|j| j.id.0 == id).unwrap().completion;
            assert!(
                done(2) < done(1),
                "job 2 arrived first and must finish before job 1"
            );
        }
    }

    #[test]
    fn fair_offers_the_least_served_job_first() {
        // Two regular executors. Job 0 starts tasks of 1 s and 3 s at
        // t = 0; job 1 arrives at 0.5 s. When the 1 s task ends, job 0
        // still runs one task and job 1 none, so job 1 must lead the
        // preference although job 0 arrived first and has the lower id.
        use llmsched_sim::scheduler::TaskRef;

        /// Records every non-empty regular list the inner policy emits.
        struct Recording(Fair, Vec<Vec<TaskRef>>);
        impl Scheduler for Recording {
            fn name(&self) -> &str {
                "recording"
            }
            fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
                let p = self.0.schedule(ctx);
                if !p.regular.is_empty() {
                    self.1.push(p.regular.clone());
                }
                p
            }
            fn on_delta(&mut self, d: &SchedDelta) {
                self.0.on_delta(d);
            }
            fn reset(&mut self) {
                self.0.reset();
            }
        }

        for fair in [Fair::new(), Fair::rebuild()] {
            let mut rec = Recording(fair, Vec::new());
            let jobs: [(u64, f64, &[f64]); 2] = [(0, 0.0, &[1.0, 3.0, 1.0]), (1, 0.5, &[1.0])];
            let r = run_one_stage(&mut rec, 2, &jobs);
            assert_eq!(r.incomplete, 0);
            let second: Vec<(u64, u32)> = rec.1[1].iter().map(|t| (t.job.0, t.task)).collect();
            // The budgeted path stops after the one free executor's entry.
            assert_eq!(second[0], (1, 0));
            assert_eq!(second.get(1).copied().unwrap_or((0, 2)), (0, 2));
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Fcfs::new().name(), "FCFS");
        assert_eq!(Fair::new().name(), "Fair");
    }
}
