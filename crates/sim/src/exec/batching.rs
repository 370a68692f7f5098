//! Shared per-replica batch state for the cluster-shaped backends.
//!
//! [`ClusterExec`](super::ClusterExec) and [`DisaggExec`](super::DisaggExec)
//! both decode under the analytic rate-rescaling model, each replica
//! against its *own* group's latency curve. That subtle settle/retime
//! logic lives here exactly once; the backends differ only in how
//! requests reach the batch (directly vs. via prefill transit).

use llmsched_cluster::{ClusterSpec, LatencyProfile, ReplicaView};
use llmsched_dag::time::{SimDuration, SimTime};

use super::{ExecCtx, LlmTaskRef};

/// One running task and its outstanding decode work.
#[derive(Debug, Clone)]
struct Running {
    task: LlmTaskRef,
    remaining_tokens: f64,
    /// Tokens charged to the replica's queue at admission, released at
    /// drain (keeps JSQ accounting exact under f64 progress rounding).
    admitted_tokens: u64,
}

/// One replica's decode batch under analytic rate-rescaling, plus its
/// group-derived parameters.
#[derive(Debug)]
pub(super) struct ReplicaBatch {
    /// Replica-group index in the originating [`ClusterSpec`].
    pub(super) group: usize,
    /// Maximum co-batched requests.
    pub(super) capacity: usize,
    latency: LatencyProfile,
    running: Vec<Running>,
    /// Decode tokens admitted to the batch and not yet drained.
    pub(super) pending_tokens: u64,
    last_settle: SimTime,
}

impl ReplicaBatch {
    /// The flat serving-replica table of `spec`, one batch per replica.
    pub(super) fn table(spec: &ClusterSpec) -> Vec<ReplicaBatch> {
        spec.serving_replicas()
            .into_iter()
            .map(|(group, g)| ReplicaBatch {
                group,
                capacity: g.max_batch,
                latency: g.latency.clone(),
                running: Vec::new(),
                pending_tokens: 0,
                last_settle: SimTime::ZERO,
            })
            .collect()
    }

    /// Number of co-batched running requests.
    pub(super) fn len(&self) -> usize {
        self.running.len()
    }

    /// Settles decode progress since the last membership change at the
    /// replica's current batch rate.
    pub(super) fn settle(&mut self, now: SimTime) {
        if !self.running.is_empty() {
            let elapsed = (now - self.last_settle).as_secs_f64();
            if elapsed > 0.0 {
                let rate = self.latency.per_token(self.running.len()).as_secs_f64();
                let done = elapsed / rate;
                for r in &mut self.running {
                    r.remaining_tokens = (r.remaining_tokens - done).max(0.0);
                }
            }
        }
        self.last_settle = now;
    }

    /// Re-posts finish events for every running task at the replica's
    /// current batch rate (stale events are invalidated via task epochs).
    pub(super) fn retime(&self, cx: &mut ExecCtx<'_>) {
        if self.running.is_empty() {
            return;
        }
        let rate = self.latency.per_token(self.running.len()).as_secs_f64();
        for r in &self.running {
            let finish = cx.now + SimDuration::from_secs_f64(r.remaining_tokens * rate);
            cx.post_finish(r.task, finish);
        }
    }

    /// Adds `task` with `tokens` to decode. Callers settle before and
    /// retime after (possibly batching several joins into one retime).
    pub(super) fn join(&mut self, task: LlmTaskRef, tokens: u64) {
        self.running.push(Running {
            task,
            remaining_tokens: tokens as f64,
            admitted_tokens: tokens,
        });
        self.pending_tokens += tokens;
    }

    /// Removes `task` if present, releasing its queue tokens; returns
    /// whether it was running.
    pub(super) fn drain(&mut self, task: LlmTaskRef) -> bool {
        if let Some(i) = self.running.iter().position(|r| r.task == task) {
            let removed = self.running.remove(i);
            self.pending_tokens -= removed.admitted_tokens;
            true
        } else {
            false
        }
    }

    /// The router-visible view of this replica. `staged` /
    /// `staged_tokens` account for requests holding a slot without
    /// decoding yet (the disaggregated backend's prefill transit).
    pub(super) fn view(&self, index: usize, staged: usize, staged_tokens: u64) -> ReplicaView {
        ReplicaView {
            index,
            group: self.group,
            occupancy: self.running.len() + staged,
            capacity: self.capacity,
            pending_tokens: self.pending_tokens + staged_tokens,
        }
    }
}
