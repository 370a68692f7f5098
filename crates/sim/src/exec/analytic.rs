//! The paper's analytic *simulator* ([`EngineMode::Analytic`]).
//!
//! It is not a backend of its own: it is [`ClusterExec`] over the
//! homogeneous one-group spec — identical executors on the reference
//! latency curve, placed least-loaded — so its decode timing is the
//! shared rate-rescaling model of `ReplicaBatch`: settle progress on
//! every batch membership change, re-post finish events at the new rate,
//! and let per-task epochs invalidate the superseded ones.
//!
//! [`EngineMode::Analytic`]: super::EngineMode::Analytic

use llmsched_cluster::{ClusterSpec, LatencyProfile};

use super::ClusterExec;

impl ClusterExec {
    /// The paper's analytic simulator: `n_execs` identical executors
    /// batching up to `max_batch` on the `latency` curve, placed
    /// least-loaded ([`ClusterSpec::homogeneous`]). Its name and
    /// descriptor are `"analytic"`.
    ///
    /// Unlike [`ClusterExec::new`] this accepts an empty pool
    /// (`n_execs == 0` or `max_batch == 0`); `simulate` rejects such a
    /// pool with its own capacity check.
    pub fn analytic(n_execs: usize, max_batch: usize, latency: &LatencyProfile) -> Self {
        let spec = ClusterSpec::homogeneous(n_execs, max_batch, latency.clone());
        ClusterExec::from_spec(&spec, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventQueue};
    use crate::exec::{pool, ExecCtx, ExecutorBackend, LlmTaskRef, Post};
    use llmsched_dag::time::{SimDuration, SimTime};
    use llmsched_dag::work::LlmWork;

    fn profile(ms_per_token: u64) -> LatencyProfile {
        LatencyProfile::new(vec![(1, SimDuration::from_millis(ms_per_token))]).unwrap()
    }

    fn t(task: u32) -> LlmTaskRef {
        LlmTaskRef {
            job: 0,
            stage: 0,
            task,
        }
    }

    fn w(tokens: u64) -> LlmWork {
        LlmWork {
            prompt_tokens: 0,
            output_tokens: tokens,
        }
    }

    fn cx_at<'a>(now: f64, latency: &'a LatencyProfile, posts: &'a mut Vec<Post>) -> ExecCtx<'a> {
        ExecCtx {
            now: SimTime::from_secs_f64(now),
            latency,
            posts,
            probe: None,
        }
    }

    #[test]
    fn admit_posts_one_finish_event_per_running_task() {
        let latency = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(4)];
        let mut be = ClusterExec::analytic(1, 8, &latency);
        assert_eq!(be.name(), "analytic");
        let mut posts = Vec::new();
        be.admit(0, t(0), w(100), &mut cx_at(0.0, &latency, &mut posts));
        crate::exec::flush_posts(&mut posts, &mut jobs, &mut queue);
        assert_eq!(be.occupancy(0), 1);
        assert_eq!(queue.len(), 1, "one finish event for the lone task");
        be.admit(0, t(1), w(100), &mut cx_at(0.0, &latency, &mut posts));
        crate::exec::flush_posts(&mut posts, &mut jobs, &mut queue);
        assert_eq!(be.occupancy(0), 2);
        // Both tasks were re-timed: two new events on top of the stale one.
        assert_eq!(queue.len(), 3);
    }

    #[test]
    fn drain_releases_slot_and_retimes_survivors() {
        let latency = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(4)];
        let mut be = ClusterExec::analytic(2, 8, &latency);
        let mut posts = Vec::new();
        be.admit(0, t(0), w(100), &mut cx_at(0.0, &latency, &mut posts));
        be.admit(0, t(1), w(200), &mut cx_at(0.0, &latency, &mut posts));
        be.drain(0, t(0), &mut cx_at(0.0, &latency, &mut posts));
        assert_eq!(be.occupancy(0), 1);
        assert_eq!(be.occupancy(1), 0, "other executors untouched");
        // Draining an already-absent task is a no-op on occupancy.
        be.drain(0, t(0), &mut cx_at(0.0, &latency, &mut posts));
        crate::exec::flush_posts(&mut posts, &mut jobs, &mut queue);
        assert_eq!(be.occupancy(0), 1);
        // The survivor decodes alone again: 200 tokens at 10 ms each.
        let live = jobs[0].task_epoch_of(0, 1);
        let mut finish = None;
        while let Some((time, ev)) = queue.pop() {
            if let Event::TaskFinish { task: 1, epoch, .. } = ev {
                if epoch == live {
                    finish = Some(time.as_secs_f64());
                }
            }
        }
        let finish = finish.expect("survivor has a live finish event");
        assert!((finish - 2.0).abs() < 1e-9, "expected 2.0s, got {finish}");
    }

    #[test]
    fn only_latest_epoch_finish_event_is_valid() {
        let latency = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(1)];
        let mut be = ClusterExec::analytic(1, 8, &latency);
        let mut posts = Vec::new();
        be.admit(0, t(0), w(100), &mut cx_at(0.0, &latency, &mut posts));
        crate::exec::flush_posts(&mut posts, &mut jobs, &mut queue);
        // A no-op membership change (drain of an absent task) still
        // re-times: the old event goes stale.
        be.drain(0, t(99), &mut cx_at(0.5, &latency, &mut posts));
        crate::exec::flush_posts(&mut posts, &mut jobs, &mut queue);
        let current_epoch = jobs[0].task_epoch_of(0, 0);
        let mut valid = 0;
        while let Some((_, ev)) = queue.pop() {
            if let Event::TaskFinish { epoch, .. } = ev {
                valid += u32::from(epoch == current_epoch);
            }
        }
        assert_eq!(valid, 1, "exactly one live finish event per running task");
    }

    #[test]
    fn settles_progress_before_rescaling() {
        // l(1)=10ms, l(2)=20ms. Task A (100 tokens) runs alone for 0.5s
        // (50 tokens done), then B joins: A's remaining 50 tokens at
        // 20ms/token => finish at 0.5 + 1.0 = 1.5s.
        let latency = LatencyProfile::new(vec![
            (1, SimDuration::from_millis(10)),
            (2, SimDuration::from_millis(20)),
        ])
        .unwrap();
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(2)];
        let mut be = ClusterExec::analytic(1, 8, &latency);
        let mut posts = Vec::new();
        be.admit(0, t(0), w(100), &mut cx_at(0.0, &latency, &mut posts));
        crate::exec::flush_posts(&mut posts, &mut jobs, &mut queue);
        be.admit(0, t(1), w(100), &mut cx_at(0.5, &latency, &mut posts));
        crate::exec::flush_posts(&mut posts, &mut jobs, &mut queue);
        let epoch_a = jobs[0].task_epoch_of(0, 0);
        let mut finish_a = None;
        while let Some((time, ev)) = queue.pop() {
            if let Event::TaskFinish { task: 0, epoch, .. } = ev {
                if epoch == epoch_a {
                    finish_a = Some(time);
                }
            }
        }
        let finish_a = finish_a.expect("task 0 has a live finish event");
        assert!(
            (finish_a.as_secs_f64() - 1.5).abs() < 1e-9,
            "expected 1.5s, got {finish_a}"
        );
    }

    #[test]
    fn pool_views_report_occupancy() {
        let latency = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(4)];
        let mut be = ClusterExec::analytic(2, 8, &latency);
        let mut posts = Vec::new();
        be.admit(1, t(0), w(10), &mut cx_at(0.0, &latency, &mut posts));
        crate::exec::flush_posts(&mut posts, &mut jobs, &mut queue);
        let views = pool::views(&be);
        assert_eq!(views.len(), 2);
        assert_eq!((views[0].batch_len, views[1].batch_len), (0, 1));
        assert_eq!((views[0].max_batch, views[1].max_batch), (8, 8));
        assert_eq!(be.place(t(1), w(10)), Some(0));
    }
}
