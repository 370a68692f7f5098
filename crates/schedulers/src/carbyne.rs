//! Carbyne-like altruistic baseline (§II-C, §V).
//!
//! Carbyne (OSDI'16) gives each job its fair share, but jobs *altruistically*
//! yield resources that would not improve their own completion time; the
//! leftover is redistributed to shrink the average JCT. This reproduction
//! keeps the two-phase shape:
//!
//! 1. **fair phase** — every job gets its critical-path stage tasks first
//!    (the tasks whose delay would extend the job), round-robin across
//!    jobs ordered by current service;
//! 2. **leftover phase** — non-critical tasks are appended ordered by the
//!    donating job's remaining work (shortest first), which is where the
//!    altruism pays off.
//!
//! The paper finds Carbyne suboptimal for average JCT on compound LLM
//! workloads because fairness-style allocation ignores the JCT objective —
//! this heuristic preserves that behavior. Substitution documented in
//! `DESIGN.md` §6.

use llmsched_sim::incr::EstimateCache;
use llmsched_sim::scheduler::{Preference, SchedContext, SchedDelta, Scheduler};
use llmsched_sim::state::JobRt;

use crate::util::{sorted_jobs, visible_heights, AppPriors, Budget, ReadyTasks};

/// The Carbyne-like altruistic scheduler.
///
/// The fair-phase `(running tasks, arrival, JobId)` order is sorted on
/// every call, each key computed once per job: a persistent delta index
/// repositioned on every task dispatch/finish delta was no faster. The
/// leftover-phase remaining-work estimates come from a delta-refreshed
/// [`EstimateCache`], since an estimate walks the job's whole template.
/// The `::rebuild()` reference recomputes the estimates on every call and
/// emits without a budget.
#[derive(Debug)]
pub struct CarbyneLike {
    priors: AppPriors,
    rebuild: bool,
    estimates: EstimateCache,
}

impl CarbyneLike {
    /// Builds the budgeted policy with historical priors.
    pub fn new(priors: AppPriors) -> Self {
        CarbyneLike {
            priors,
            rebuild: false,
            estimates: EstimateCache::new(),
        }
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild(priors: AppPriors) -> Self {
        CarbyneLike {
            rebuild: true,
            ..Self::new(priors)
        }
    }

    /// Phase 1 on one job: pushes the critical (max-height) ready stage's
    /// tasks and returns the donated leftovers, if any.
    fn fair_phase(p: &mut Preference, job: &JobRt, budget: Budget) -> Option<ReadyTasks> {
        let mut ready = job.ready_stage_ids().to_vec();
        // Heights only for jobs with ready work: computing them for every
        // job first made a 3,000-job run about 10× slower.
        if ready.is_empty() {
            return None;
        }
        let heights = visible_heights(job);
        // Critical stage = max height (ties: lowest id).
        ready.sort_by_key(|s| (std::cmp::Reverse(heights.get(s).copied().unwrap_or(0)), *s));
        budget.push_stage(p, job, ready[0]);
        // Everything else is donated to the leftover pool.
        let rest: ReadyTasks = ready[1..]
            .iter()
            .flat_map(|&s| job.unstarted_tasks(s).map(move |t| (s, t)))
            .collect();
        (!rest.is_empty()).then_some(rest)
    }

    /// Phase 2: redistributes leftovers, shortest-remaining job first.
    fn leftover_phase(
        p: &mut Preference,
        mut leftovers: Vec<(f64, &JobRt, ReadyTasks)>,
        budget: Budget,
    ) {
        leftovers.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("estimates are finite")
                .then_with(|| (a.1.arrival(), a.1.id()).cmp(&(b.1.arrival(), b.1.id())))
        });
        for (_, job, tasks) in leftovers {
            if budget.met(p) {
                break;
            }
            for (s, t) in tasks {
                budget.push_task(p, job, s, t);
            }
        }
    }
}

impl Scheduler for CarbyneLike {
    fn name(&self) -> &str {
        "Carbyne"
    }

    fn on_delta(&mut self, d: &SchedDelta) {
        if !self.rebuild {
            self.estimates.on_delta(d);
        }
    }

    fn reset(&mut self) {
        self.estimates.clear();
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
        if !self.rebuild {
            self.estimates
                .refresh(ctx, |j| priors.remaining_estimate(j));
        }
        let remaining = |j: &JobRt| {
            if self.rebuild {
                priors.remaining_estimate(j)
            } else {
                self.estimates.get(j.id())
            }
        };
        let budget = Budget::for_call(ctx, self.rebuild);
        let mut p = Preference::new();

        // Phase 1: fair share of critical work. For each job (least served
        // first) offer the ready stage with the greatest height — the one
        // whose delay would stretch the job's critical path.
        let mut leftovers: Vec<(f64, &JobRt, ReadyTasks)> = Vec::new();
        for job in sorted_jobs(ctx, |j| (j.running_tasks(), j.arrival())) {
            if budget.met(&p) {
                break;
            }
            if let Some(rest) = Self::fair_phase(&mut p, job, budget) {
                leftovers.push((remaining(job), job, rest));
            }
        }
        Self::leftover_phase(&mut p, leftovers, budget);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_same_schedule, run_two_class_workload, two_class_training};
    use llmsched_dag::time::SimDuration;

    #[test]
    fn completes_the_fixture() {
        let priors = AppPriors::from_training(&two_class_training(), SimDuration::from_millis(20));
        let r = run_two_class_workload(&mut CarbyneLike::new(priors));
        assert_eq!(r.incomplete, 0);
        assert_eq!(r.scheduler, "Carbyne");
    }

    #[test]
    fn critical_stages_first_then_shortest_remaining_leftovers() {
        // Job 1 (a 3 s-per-stage app) arrived before job 0 (a 1 s app).
        // Each job's critical stage is `head` (stage 1); `lone` (stage 0)
        // is its leftover.
        use crate::testkit::{fork_job, fork_template, schedule_once};
        let (long, short) = (fork_template(0), fork_template(1));
        let training = [
            fork_job(&long, 100, 0.0, 3.0),
            fork_job(&short, 101, 0.0, 1.0),
        ];
        let priors = AppPriors::from_training(&training, SimDuration::from_millis(20));
        let jobs = [
            JobRt::new(fork_job(&short, 0, 0.1, 1.0)),
            JobRt::new(fork_job(&long, 1, 0.0, 3.0)),
        ];
        for mut carbyne in [
            CarbyneLike::new(priors.clone()),
            CarbyneLike::rebuild(priors.clone()),
        ] {
            let p = schedule_once(&mut carbyne, &jobs);
            let order: Vec<(u64, u32)> = p.regular.iter().map(|r| (r.job.0, r.stage.0)).collect();
            assert_eq!(order, [(1, 1), (0, 1), (0, 0), (1, 0)]);
        }
    }

    #[test]
    fn incremental_matches_rebuild() {
        let priors = AppPriors::from_training(&two_class_training(), SimDuration::from_millis(20));
        assert_same_schedule(
            &mut CarbyneLike::new(priors.clone()),
            &mut CarbyneLike::rebuild(priors),
        );
    }
}
