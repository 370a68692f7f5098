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
    fn a_reveal_reorders_ready_stages_by_refreshed_heights() {
        // `plan` (LLM) reveals the chain g1 → g2 under the placeholder;
        // `x` (two 1 s tasks) → `y` is the other branch. At t = 0 the one
        // regular executor takes x's first task and the plan runs. The
        // plan's reveal at t = 0.2 s makes g1 ready, and when x's first
        // task ends at t = 1 s the ready stages are x and g1. g1 now sits
        // on the deepest path (height 2 of 3 against x's 1), so it must be
        // offered first; heights cached before the reveal would rank it 0
        // and offer x first.
        use llmsched_dag::prelude::*;
        use llmsched_sim::engine::{simulate, ClusterConfig};
        use llmsched_sim::latency::LatencyProfile;
        use llmsched_sim::scheduler::TaskRef;

        let mut b = TemplateBuilder::new(AppId(0), "reveal");
        let plan = b.llm("plan");
        let x = b.regular("x");
        let y = b.regular("y");
        let tool = Candidate {
            name: "tool".into(),
            class: ExecutorClass::Regular,
        };
        let dynamic = b.dynamic("execute", plan, vec![tool]);
        b.edge(x, y);
        b.edge(plan, dynamic);
        let template = b.build().unwrap();
        let secs = |n: usize| {
            (0..n)
                .map(|_| TaskWork::Regular {
                    duration: SimDuration::from_secs(1),
                })
                .collect::<Vec<_>>()
        };
        let generated = |name: &str| StageSpec {
            revealed_by: Some(plan),
            parent_dynamic: Some(dynamic),
            candidate: Some(0),
            ..StageSpec::executing(name, StageKind::Regular, secs(1))
        };
        let (g1, g2) = (StageId(4), StageId(5));
        let job = JobSpec::new(
            JobId(0),
            &template,
            SimTime::ZERO,
            vec![
                StageSpec::executing(
                    "plan",
                    StageKind::Llm,
                    vec![TaskWork::Llm {
                        prompt_tokens: 0,
                        output_tokens: 10,
                    }],
                ),
                StageSpec::executing("x", StageKind::Regular, secs(2)),
                StageSpec::executing("y", StageKind::Regular, secs(1)),
                StageSpec::executing("execute", StageKind::DynamicPlaceholder, vec![]),
                generated("g1"),
                generated("g2"),
            ],
            vec![(plan, g1), (g1, g2), (g2, dynamic)],
        )
        .unwrap();
        let templates: TemplateSet = [template].into_iter().collect();
        let cfg = ClusterConfig {
            regular_executors: 1,
            llm_executors: 1,
            max_batch: 1,
            latency: LatencyProfile::new(vec![(1, SimDuration::from_millis(20))]).unwrap(),
            ..ClusterConfig::default()
        };

        /// Records every non-empty regular list the inner policy emits.
        struct Recording(Argus, Vec<Vec<TaskRef>>);
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

        for argus in [Argus::new(), Argus::rebuild()] {
            let mut rec = Recording(argus, Vec::new());
            let r = simulate(&cfg, &templates, vec![job.clone()], &mut rec);
            assert_eq!(r.incomplete, 0);
            assert_eq!(rec.1[0][0].stage, x, "t = 0: only x is ready");
            assert_eq!(
                rec.1[1][0].stage, g1,
                "t = 1 s: the revealed chain outranks x"
            );
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
