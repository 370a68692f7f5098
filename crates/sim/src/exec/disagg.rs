//! The disaggregated prefill/decode backend.
//!
//! Production disaggregated serving (DistServe/Splitwise-style) runs
//! prefill and decode on separate replica pools so long prompts cannot
//! stall decode batches. [`DisaggExec`] models that split on top of a
//! [`ClusterSpec`] whose [`DisaggSpec`] designates one group as the
//! prefill pool:
//!
//! 1. **Prefill** — at admission the request is queued FIFO on the
//!    prefill replica that frees up earliest; it holds that replica for
//!    `prompt_tokens × prefill_per_token` (prefill is compute-bound, one
//!    prompt at a time per replica).
//! 2. **Transfer** — the finished KV cache pays a fixed `transfer_delay`
//!    on its way to the decode replica chosen by the router *at
//!    admission* (the slot is reserved immediately, so capacity
//!    accounting never over-admits).
//! 3. **Decode** — the request joins the decode replica's batch and
//!    decodes `output_tokens` analytically (rate-rescaling against the
//!    replica group's latency curve), exactly like
//!    [`ClusterExec`](super::ClusterExec).
//!
//! Event usage: one [`Event::LlmStep`](crate::event::Event::LlmStep) per
//! admitted request — the prefill→decode handoff at its transfer-arrival
//! time — plus the re-timed
//! [`Event::TaskFinish`](crate::event::Event::TaskFinish)s of analytic
//! decode. Handoffs that find their request already moved (same-timestamp
//! flushes) degrade to stale no-ops, so step handling is idempotent.

use llmsched_cluster::{ClusterSpec, DisaggSpec, ReplicaView, RouteRequest, Router};
use llmsched_dag::time::{SimDuration, SimTime};
use llmsched_dag::work::LlmWork;

use super::batching::ReplicaBatch;
use super::{ExecCtx, ExecutorBackend, LlmTaskRef, StepOutcome};

/// One task prefilling / in KV transfer toward a decode replica.
#[derive(Debug, Clone)]
struct Transit {
    task: LlmTaskRef,
    decode_tokens: u64,
    /// When the KV cache lands on the decode replica.
    ready_at: SimTime,
}

/// One decode replica: the shared analytic batch plus the requests
/// holding a reserved slot while they prefill or transfer.
#[derive(Debug)]
struct DecodeUnit {
    batch: ReplicaBatch,
    /// Requests prefilling or in transfer, slot already reserved here.
    transit: Vec<Transit>,
    /// Monotone wake-up counter (one per posted handoff event).
    next_epoch: u64,
}

/// The FIFO prefill pool: earliest-free replica serves next.
#[derive(Debug, Clone)]
struct PrefillPool {
    /// Earliest availability of each prefill replica (FIFO service).
    free_at: Vec<SimTime>,
    per_token: SimDuration,
    transfer: SimDuration,
}

impl PrefillPool {
    /// Builds the pool a disaggregated [`ClusterSpec`] describes.
    ///
    /// # Panics
    /// Panics if the spec carries no [`DisaggSpec`].
    fn from_spec(spec: &ClusterSpec) -> Self {
        let DisaggSpec {
            prefill_group,
            prefill_per_token,
            transfer_delay,
        } = *spec
            .disagg
            .as_ref()
            .expect("EngineMode::Disagg requires ClusterSpec::disagg");
        PrefillPool {
            free_at: vec![SimTime::ZERO; spec.groups[prefill_group].replicas],
            per_token: prefill_per_token,
            transfer: transfer_delay,
        }
    }

    /// Serves `prompt_tokens` on the earliest-free prefill replica (FIFO)
    /// and returns when its KV cache reaches a decode replica.
    fn arrival(&mut self, now: SimTime, prompt_tokens: u64) -> SimTime {
        let p = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|&(i, &t)| (t, i))
            .map(|(i, _)| i)
            .expect("validated: at least one prefill replica");
        let start = self.free_at[p].max(now);
        let done = start + self.per_token * prompt_tokens;
        self.free_at[p] = done;
        done + self.transfer
    }
}

/// The disaggregated prefill/decode executor pool.
#[derive(Debug)]
pub struct DisaggExec {
    units: Vec<DecodeUnit>,
    prefill: PrefillPool,
    router: Box<dyn Router>,
    /// Reused router-view buffer (see [`ClusterExec`](super::ClusterExec)).
    view_scratch: Vec<ReplicaView>,
}

impl DisaggExec {
    /// Builds the backend a disaggregated [`ClusterSpec`] describes.
    ///
    /// # Panics
    /// Panics if the spec fails [`ClusterSpec::validate`] or carries no
    /// [`DisaggSpec`].
    pub fn new(spec: &ClusterSpec) -> Self {
        spec.validate().expect("invalid cluster spec");
        DisaggExec {
            units: ReplicaBatch::table(spec)
                .into_iter()
                .map(|batch| DecodeUnit {
                    batch,
                    transit: Vec::new(),
                    next_epoch: 0,
                })
                .collect(),
            prefill: PrefillPool::from_spec(spec),
            router: spec.routing.build(),
            view_scratch: Vec::new(),
        }
    }

    /// The router view of decode replica `exec`, counting requests in
    /// prefill or KV transfer toward it as occupants.
    fn unit_view(&self, exec: usize) -> ReplicaView {
        let unit = &self.units[exec];
        let staged_tokens = unit.transit.iter().map(|t| t.decode_tokens).sum();
        unit.batch.view(exec, unit.transit.len(), staged_tokens)
    }
}

impl ExecutorBackend for DisaggExec {
    fn name(&self) -> &'static str {
        "disagg"
    }

    fn descriptor(&self) -> String {
        format!("disagg/{}", self.router.name())
    }

    fn n_execs(&self) -> usize {
        self.units.len()
    }

    fn occupancy(&self, exec: usize) -> usize {
        self.units[exec].batch.len() + self.units[exec].transit.len()
    }

    fn capacity(&self, exec: usize) -> usize {
        self.units[exec].batch.capacity
    }

    fn for_each_slot(&self, f: &mut dyn FnMut(usize, usize)) {
        for u in &self.units {
            f(u.batch.len() + u.transit.len(), u.batch.capacity);
        }
    }

    fn place(&mut self, task: LlmTaskRef, work: LlmWork) -> Option<usize> {
        let mut views = std::mem::take(&mut self.view_scratch);
        views.clear();
        views.extend((0..self.units.len()).map(|i| self.unit_view(i)));
        let chosen = self.router.route(
            &views,
            RouteRequest {
                job: task.job as u64,
                tokens: work.decode_tokens(),
            },
        );
        self.view_scratch = views;
        chosen
    }

    fn admit(&mut self, exec: usize, task: LlmTaskRef, work: LlmWork, cx: &mut ExecCtx<'_>) {
        let ready_at = self.prefill.arrival(cx.now, work.prompt_tokens);
        let unit = &mut self.units[exec];
        unit.transit.push(Transit {
            task,
            decode_tokens: work.decode_tokens(),
            ready_at,
        });
        unit.next_epoch += 1;
        let epoch = unit.next_epoch;
        cx.post_step(exec, epoch, ready_at);
        if cx.probe.is_some() {
            let view = self.unit_view(exec);
            cx.emit(llmsched_telemetry::ProbeEvent::Routed {
                at: cx.now,
                job_index: task.job as u32,
                exec: exec as u32,
                group: view.group as u32,
                policy: self.router.name(),
            });
            cx.emit(llmsched_telemetry::ProbeEvent::BatchAdmit {
                at: cx.now,
                exec: exec as u32,
                occupancy: view.occupancy as u32,
                capacity: view.capacity as u32,
            });
        }
    }

    fn step(&mut self, exec: usize, epoch: u64, cx: &mut ExecCtx<'_>) -> StepOutcome {
        let unit = &mut self.units[exec];
        if epoch > unit.next_epoch || !unit.transit.iter().any(|t| t.ready_at <= cx.now) {
            // Leftover wake-up for a handoff an earlier same-timestamp
            // flush already performed (or a foreign epoch): nothing due.
            return StepOutcome::stale();
        }
        unit.batch.settle(cx.now);
        let mut joined = false;
        let mut i = 0;
        while i < unit.transit.len() {
            if unit.transit[i].ready_at <= cx.now {
                let tr = unit.transit.remove(i);
                unit.batch.join(tr.task, tr.decode_tokens);
                joined = true;
            } else {
                i += 1;
            }
        }
        if joined {
            unit.batch.retime(cx);
        }
        // Joining decode changes no scheduler-visible state (the slot was
        // reserved at admission), so the step is never "effective".
        StepOutcome::stale()
    }

    fn drain(&mut self, exec: usize, task: LlmTaskRef, cx: &mut ExecCtx<'_>) {
        let unit = &mut self.units[exec];
        unit.batch.settle(cx.now);
        if unit.batch.drain(task) {
            unit.batch.retime(cx);
        } else if let Some(i) = unit.transit.iter().position(|t| t.task == task) {
            // Defensive: a task killed before its KV cache arrived.
            unit.transit.remove(i);
        }
        let occupancy = self.occupancy(exec) as u32;
        cx.emit(llmsched_telemetry::ProbeEvent::BatchDrain {
            at: cx.now,
            exec: exec as u32,
            occupancy,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventQueue};
    use llmsched_cluster::{LatencyProfile, ReplicaGroup, RoutingPolicy};

    fn profile(ms_per_token: u64) -> LatencyProfile {
        LatencyProfile::new(vec![(1, SimDuration::from_millis(ms_per_token))]).unwrap()
    }

    /// 1 prefill replica at 1 ms/prompt-token, 10 ms transfer, 2 decode
    /// replicas (10 ms/token, batch 4).
    fn spec() -> ClusterSpec {
        ClusterSpec {
            groups: vec![
                ReplicaGroup::new("prefill", 1, 1, profile(1)),
                ReplicaGroup::new("decode", 2, 4, profile(10)),
            ],
            routing: RoutingPolicy::LeastLoaded,
            disagg: Some(DisaggSpec {
                prefill_group: 0,
                prefill_per_token: SimDuration::from_millis(1),
                transfer_delay: SimDuration::from_millis(10),
            }),
        }
    }

    fn t(task: u32) -> LlmTaskRef {
        LlmTaskRef {
            job: 0,
            stage: 0,
            task,
        }
    }

    fn w(prompt: u64, output: u64) -> LlmWork {
        LlmWork {
            prompt_tokens: prompt,
            output_tokens: output,
        }
    }

    /// Drives queued LlmStep events up to and including `until`, returning
    /// observed finish times.
    fn run_events(
        be: &mut DisaggExec,
        queue: &mut EventQueue,
        jobs: &mut [crate::state::JobRt],
        reference: &LatencyProfile,
    ) -> Vec<(u32, f64)> {
        let mut finishes = Vec::new();
        let mut posts = Vec::new();
        while let Some((time, ev)) = queue.pop() {
            match ev {
                Event::LlmStep { exec, epoch } => {
                    let mut cx = ExecCtx {
                        now: time,
                        latency: reference,
                        posts: &mut posts,
                        probe: None,
                    };
                    be.step(exec, epoch, &mut cx);
                    crate::exec::flush_posts(&mut posts, &mut *jobs, &mut *queue);
                }
                Event::TaskFinish { task, epoch, .. } => {
                    if jobs[0].task_epoch_of(0, task) == epoch {
                        finishes.push((task, time.as_secs_f64()));
                        let mut cx = ExecCtx {
                            now: time,
                            latency: reference,
                            posts: &mut posts,
                            probe: None,
                        };
                        be.drain(0, t(task), &mut cx);
                        be.drain(1, t(task), &mut cx);
                        crate::exec::flush_posts(&mut posts, &mut *jobs, &mut *queue);
                    }
                }
                Event::Arrival { .. } => unreachable!(),
            }
        }
        finishes
    }

    #[test]
    fn lone_task_pays_prefill_transfer_then_decodes() {
        // 100 prompt tokens × 1 ms + 10 ms transfer + 50 × 10 ms decode
        // = 0.1 + 0.01 + 0.5 = 0.61 s.
        let reference = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(1)];
        let mut be = DisaggExec::new(&spec());
        let mut posts = Vec::new();
        let mut cx = ExecCtx {
            now: SimTime::ZERO,
            latency: &reference,
            posts: &mut posts,
            probe: None,
        };
        let e = be.place(t(0), w(100, 50)).unwrap();
        be.admit(e, t(0), w(100, 50), &mut cx);
        crate::exec::flush_posts(&mut posts, &mut jobs, &mut queue);
        assert_eq!(be.occupancy(e), 1, "transit counts toward occupancy");
        let finishes = run_events(&mut be, &mut queue, &mut jobs, &reference);
        assert_eq!(finishes.len(), 1);
        assert!(
            (finishes[0].1 - 0.61).abs() < 1e-9,
            "expected 0.61 s, got {}",
            finishes[0].1
        );
        assert_eq!(be.occupancy(0) + be.occupancy(1), 0);
    }

    #[test]
    fn prefill_pool_serializes_prompts() {
        // Two 100-prompt-token tasks, one prefill replica: the second
        // prefill starts only when the first ends (0.1 s), so its decode
        // completes 0.1 s later than the first's.
        let reference = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(2)];
        let mut be = DisaggExec::new(&spec());
        let mut posts = Vec::new();
        let mut cx = ExecCtx {
            now: SimTime::ZERO,
            latency: &reference,
            posts: &mut posts,
            probe: None,
        };
        // Route both to distinct decode replicas (least-loaded does).
        let e0 = be.place(t(0), w(100, 50)).unwrap();
        be.admit(e0, t(0), w(100, 50), &mut cx);
        let e1 = be.place(t(1), w(100, 50)).unwrap();
        assert_ne!(e0, e1);
        be.admit(e1, t(1), w(100, 50), &mut cx);
        crate::exec::flush_posts(&mut posts, &mut jobs, &mut queue);
        let finishes = run_events(&mut be, &mut queue, &mut jobs, &reference);
        assert_eq!(finishes.len(), 2);
        let by_task: std::collections::HashMap<u32, f64> = finishes.into_iter().collect();
        assert!((by_task[&0] - 0.61).abs() < 1e-9);
        assert!((by_task[&1] - 0.71).abs() < 1e-9, "0.1 s prefill queueing");
    }

    #[test]
    fn zero_prompt_tasks_still_transfer() {
        // No prefill work, but the KV handoff is still paid: 10 ms + 10
        // tokens × 10 ms = 0.11 s.
        let reference = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(1)];
        let mut be = DisaggExec::new(&spec());
        let mut posts = Vec::new();
        let mut cx = ExecCtx {
            now: SimTime::ZERO,
            latency: &reference,
            posts: &mut posts,
            probe: None,
        };
        be.admit(0, t(0), w(0, 10), &mut cx);
        crate::exec::flush_posts(&mut posts, &mut jobs, &mut queue);
        let finishes = run_events(&mut be, &mut queue, &mut jobs, &reference);
        assert!((finishes[0].1 - 0.11).abs() < 1e-9);
    }

    #[test]
    fn stale_steps_are_noops() {
        let reference = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(1)];
        let mut be = DisaggExec::new(&spec());
        let mut posts = Vec::new();
        let mut cx = ExecCtx {
            now: SimTime::ZERO,
            latency: &reference,
            posts: &mut posts,
            probe: None,
        };
        be.admit(0, t(0), w(10, 10), &mut cx);
        crate::exec::flush_posts(&mut posts, &mut jobs, &mut queue);
        let mut cx = ExecCtx {
            now: SimTime::ZERO,
            latency: &reference,
            posts: &mut posts,
            probe: None,
        };
        // Before the handoff is due, nothing moves.
        let out = be.step(0, 1, &mut cx);
        assert!(!out.effective && out.finished.is_empty());
        assert_eq!(be.units[0].batch.len(), 0);
        assert_eq!(be.units[0].transit.len(), 1);
        // A foreign epoch far in the future is equally inert.
        let out = be.step(0, 99, &mut cx);
        assert!(!out.effective);
    }

    #[test]
    fn decode_capacity_counts_transit_reservations() {
        let reference = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(16)];
        let mut be = DisaggExec::new(&spec());
        let mut posts = Vec::new();
        let mut cx = ExecCtx {
            now: SimTime::ZERO,
            latency: &reference,
            posts: &mut posts,
            probe: None,
        };
        // 2 decode replicas × batch 4 = 8 slots.
        for i in 0..8 {
            let e = be.place(t(i), w(10, 10)).expect("slot free");
            be.admit(e, t(i), w(10, 10), &mut cx);
        }
        crate::exec::flush_posts(&mut posts, &mut jobs, &mut queue);
        assert_eq!(be.place(t(8), w(10, 10)), None, "pool fully reserved");
    }
}
