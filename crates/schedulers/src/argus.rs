//! Argus-style topology-aware baseline (§II-C, §V).
//!
//! Argus (IPDPS'21) ranks stages by their position in the DAG: stages with
//! greater critical-path depth, more children, and more tasks are served
//! first. It exploits topology but has no notion of duration uncertainty —
//! in the paper's Predefined workloads it effectively degenerates to
//! application-level scheduling, which LLMSched beats by re-estimating
//! durations per job (§V-A).
//!
//! Jobs are sorted by `(arrival, JobId)` on every call: the active jobs
//! are almost always in arrival order already. At 3,000 mixed jobs on a
//! 48× cluster (2-hardware-thread host) a run took 0.12–0.17 s this way
//! against 0.30–0.39 s with a persistent delta index. The one cache kept
//! is each job's critical-path heights.

use std::collections::HashMap;

use llmsched_dag::ids::{JobId, StageId};
use llmsched_sim::scheduler::{Preference, SchedContext, SchedDelta, Scheduler};
use llmsched_sim::state::JobRt;

use crate::util::{sorted_jobs, visible_heights, Budget};

/// The Argus-like stage-rank scheduler.
///
/// Each job's critical-path heights are cached with the length of the
/// visible-stage set they were computed from. Heights are a pure function
/// of the visible DAG, and that set only grows as stages are revealed, so
/// an entry is stale exactly when the length moved; completed jobs are
/// evicted on [`SchedDelta::JobCompleted`]. The `::rebuild()` reference
/// recomputes the heights on every call and emits without a budget.
#[derive(Debug, Default)]
pub struct Argus {
    rebuild: bool,
    heights: HashMap<JobId, (usize, HashMap<StageId, usize>)>,
}

impl Argus {
    /// The budgeted Argus scheduler (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild() -> Self {
        Argus {
            rebuild: true,
            ..Self::default()
        }
    }
}

/// Rank of one candidate stage (higher = served first).
///
/// Depth is the stage's critical-path height *normalized by its job's
/// total height* (per-mille, so `Ord` applies): comparing absolute heights
/// across applications would strictly prioritize the deepest application's
/// jobs — effectively longest-app-first, which is not how a per-job
/// topology ranker behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Rank {
    depth_per_mille: u32,
    children: usize,
    tasks: usize,
}

fn rank(job: &JobRt, stage: StageId, heights: &HashMap<StageId, usize>) -> Rank {
    let view = job.stage_view(stage).expect("ready stage is visible");
    let h = heights.get(&stage).copied().unwrap_or(0);
    let max_h = heights.values().copied().max().unwrap_or(0).max(1);
    Rank {
        depth_per_mille: (h * 1000 / max_h) as u32,
        children: job.visible_succs(stage).count(),
        tasks: view.n_tasks.unwrap_or(0),
    }
}

impl Scheduler for Argus {
    fn name(&self) -> &str {
        "Argus"
    }

    fn on_delta(&mut self, d: &SchedDelta) {
        if let SchedDelta::JobCompleted { job } = d {
            self.heights.remove(job);
        }
    }

    fn reset(&mut self) {
        self.heights.clear();
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
        // Jobs are served in arrival order (Argus is job-duration-blind);
        // the topology rank orders stages *within* a job. Comparing ranks
        // across jobs would strictly prioritize the deepest application —
        // longest-app-first, which no fair reading of Argus intends.
        let budget = Budget::for_call(ctx, self.rebuild);
        let mut p = Preference::new();
        for job in sorted_jobs(ctx, |j| j.arrival()) {
            if budget.met(&p) {
                break;
            }
            let ready = job.ready_stage_ids();
            if ready.is_empty() {
                continue;
            }
            let fresh;
            let heights = if self.rebuild {
                fresh = visible_heights(job);
                &fresh
            } else {
                let visible = job.visible_stage_ids().len();
                let (seen, heights) = self
                    .heights
                    .entry(job.id())
                    .or_insert_with(|| (visible, visible_heights(job)));
                if *seen != visible {
                    *seen = visible;
                    *heights = visible_heights(job);
                }
                debug_assert_eq!(*heights, visible_heights(job), "stale Argus heights");
                &*heights
            };
            let mut ranked: Vec<(Rank, StageId)> =
                ready.iter().map(|&s| (rank(job, s, heights), s)).collect();
            ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            for (_, s) in ranked {
                budget.push_stage(&mut p, job, s);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_same_schedule, run_two_class_workload};

    #[test]
    fn completes_the_fixture() {
        let r = run_two_class_workload(&mut Argus::new());
        assert_eq!(r.incomplete, 0);
        assert_eq!(r.scheduler, "Argus");
    }

    #[test]
    fn incremental_matches_rebuild() {
        assert_same_schedule(&mut Argus::new(), &mut Argus::rebuild());
    }

    #[test]
    fn orders_jobs_by_arrival_and_deeper_stages_first() {
        // Job 1 arrived before job 0; in each job `head` (stage 1, with a
        // child) outranks the childless `lone` (stage 0).
        use crate::testkit::{fork_job, fork_template, schedule_once};
        let t = fork_template(0);
        let jobs = [
            JobRt::new(fork_job(&t, 0, 0.3, 1.0)),
            JobRt::new(fork_job(&t, 1, 0.1, 1.0)),
        ];
        for mut argus in [Argus::new(), Argus::rebuild()] {
            let p = schedule_once(&mut argus, &jobs);
            let order: Vec<(u64, u32)> = p.regular.iter().map(|r| (r.job.0, r.stage.0)).collect();
            assert_eq!(order, [(1, 1), (1, 0), (0, 1), (0, 0)]);
        }
    }

    #[test]
    fn rank_orders_lexicographically() {
        let a = Rank {
            depth_per_mille: 900,
            children: 0,
            tasks: 0,
        };
        let b = Rank {
            depth_per_mille: 500,
            children: 9,
            tasks: 9,
        };
        assert!(a > b, "depth dominates");
        let c = Rank {
            depth_per_mille: 500,
            children: 2,
            tasks: 0,
        };
        assert!(
            c > Rank {
                depth_per_mille: 500,
                children: 1,
                tasks: 5
            },
            "children beat tasks"
        );
    }
}
