//! The pluggable LLM executor layer.
//!
//! The engine used to hardcode the paper's two serving fidelities as an
//! inlined enum; every future resource model (paged/chunked batching,
//! multi-replica sharding, disaggregated prefill) would have grown that
//! match. This module splits the concern behind a trait boundary, the way
//! DSLab's dslab-dag keeps resource models behind its scheduler/resource
//! traits:
//!
//! * [`ExecutorBackend`] — what the engine needs from a pool of LLM
//!   executors: **place** a task on an executor (routing), **admit** it
//!   into a batch, advance a backend timer (**step**), remove a finished
//!   task (**drain**), and expose an **occupancy/capacity view** per
//!   executor.
//! * [`analytic::AnalyticExec`] — the paper's *simulator*: rate-rescaling
//!   batching that settles decode progress on every membership change and
//!   re-posts finish events at the new batch rate.
//! * [`token_level::TokenExec`] — the paper's *testbed* stand-in:
//!   per-iteration continuous batching (requests join at iteration
//!   boundaries, every iteration costs `l(batch)` and emits `chunk`
//!   tokens per request).
//! * [`cluster::ClusterExec`] — a heterogeneous multi-group cluster:
//!   replicas carry per-group latency curves and batch capacities
//!   (from a [`ClusterSpec`](llmsched_cluster::ClusterSpec)), and
//!   placement is delegated to a pluggable
//!   [`Router`](llmsched_cluster::Router) policy instead of the paper's
//!   fixed least-loaded rule.
//! * [`disagg::DisaggExec`] — disaggregated prefill/decode serving: a
//!   request first occupies a dedicated prefill replica for
//!   `prompt_tokens × prefill_per_token`, pays a KV-cache
//!   `transfer_delay`, and only then joins a decode batch on the replica
//!   the router chose at admission. Decode proceeds analytically
//!   (rate-rescaling), so the backend is event-sparse: one
//!   [`Event::LlmStep`] per admitted task (the prefill→decode handoff)
//!   plus re-timed [`Event::TaskFinish`]s.
//! * [`pool`] — backend-agnostic pool machinery: the
//!   [`EngineMode`](pool::EngineMode) → backend factory and the
//!   occupancy-view helpers the engine shares across backends.
//!
//! Backends interact with the engine through [`ExecCtx`]: they may read
//! the clock and the reference latency curve, and post [`Event`]s —
//! either a [`Event::TaskFinish`] for a task whose completion time is now
//! known (analytic re-timing) or a [`Event::LlmStep`] wake-up for their
//! own deferred work (the token-level backend's iteration loop, the
//! disaggregated backend's prefill→decode handoffs). The engine remains
//! the only place that mutates job/stage/task state; the reveal protocol
//! of §IV-A never leaks into backends.

pub mod analytic;
mod batching;
pub mod cluster;
pub mod disagg;
pub mod pool;
pub mod token_level;

pub use analytic::AnalyticExec;
pub use cluster::ClusterExec;
pub use disagg::DisaggExec;
pub use pool::{build_backend, EngineMode};
pub use token_level::TokenExec;

use llmsched_dag::time::SimTime;
use llmsched_dag::work::LlmWork;
use llmsched_telemetry::{Probe, ProbeEvent};

use crate::event::{Event, EventQueue};
use crate::latency::LatencyProfile;
use crate::state::JobRt;

/// Identifies one LLM task by the engine's dense coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LlmTaskRef {
    /// Dense job index in the engine's job table.
    pub job: usize,
    /// Stage id within the job.
    pub stage: u32,
    /// Task index within the stage.
    pub task: u32,
}

/// One event a backend asked the engine to schedule.
///
/// Backends never touch the event queue or the job table directly: hooks
/// buffer their requests here and the engine materializes them right
/// after the hook returns, stamping finish epochs via [`flush_posts`].
/// Keeping epoch assignment and queue order in the engine keeps the
/// backends free of job-table state and independently unit-testable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Post {
    /// `task` finishes at `at` (superseding any earlier finish event for
    /// it; the flusher bumps the task's epoch to invalidate those).
    Finish {
        /// The finishing task.
        task: LlmTaskRef,
        /// Absolute finish time.
        at: SimTime,
    },
    /// A backend wake-up ([`Event::LlmStep`]) for executor `exec` at `at`;
    /// `epoch` must match the backend's step epoch when the event fires.
    Step {
        /// LLM executor index.
        exec: usize,
        /// Backend step epoch.
        epoch: u64,
        /// Wake-up time.
        at: SimTime,
    },
}

/// The slice of engine state a backend may touch while handling a hook.
///
/// Rebuilt per call; borrows the engine's clock, the shared decode-latency
/// curve and a buffer of [`Post`]s the caller flushes after the hook.
#[derive(Debug)]
pub struct ExecCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The reference decode-latency curve ([`ClusterConfig::latency`]
    /// (crate::engine::ClusterConfig::latency)). Homogeneous backends decode
    /// with it; cluster backends carry per-group curves and use this only
    /// as the normalization reference.
    pub latency: &'a LatencyProfile,
    /// Events the backend wants scheduled, in emission order. The caller
    /// drains this after the hook returns (see [`flush_posts`]).
    pub posts: &'a mut Vec<Post>,
    /// The run's telemetry probe, present only while one is enabled —
    /// `None` costs backends a single branch per emission (see
    /// [`ExecCtx::emit`]).
    pub probe: Option<&'a mut dyn Probe>,
}

impl ExecCtx<'_> {
    /// Delivers `ev` to the probe if one is enabled. Call sites build the
    /// event inline, so a disabled probe pays only the `None` check.
    pub fn emit(&mut self, ev: ProbeEvent) {
        if let Some(p) = self.probe.as_mut() {
            p.record(&ev);
        }
    }

    /// Schedules `task` to finish at `at`, invalidating any finish event
    /// posted for it earlier (per-task epochs make stale events no-ops).
    pub fn post_finish(&mut self, task: LlmTaskRef, at: SimTime) {
        self.posts.push(Post::Finish { task, at });
    }

    /// Schedules a backend wake-up ([`Event::LlmStep`]) for executor
    /// `exec` at `at`; `epoch` must match the backend's current step epoch
    /// when the event fires, or the step is discarded as stale.
    pub fn post_step(&mut self, exec: usize, epoch: u64, at: SimTime) {
        self.posts.push(Post::Step { exec, epoch, at });
    }
}

/// Drains buffered [`Post`]s into the event queue, stamping each finish
/// with a freshly bumped per-task epoch. Push order equals emission order,
/// so event sequence numbers are exactly what the pre-buffering engine
/// assigned inline.
pub fn flush_posts(posts: &mut Vec<Post>, jobs: &mut [JobRt], queue: &mut EventQueue) {
    for p in posts.drain(..) {
        match p {
            Post::Finish { task, at } => {
                let epoch = jobs[task.job].bump_task_epoch(task.stage, task.task);
                queue.push(
                    at,
                    Event::TaskFinish {
                        job: task.job,
                        stage: task.stage,
                        task: task.task,
                        epoch,
                    },
                );
            }
            Post::Step { exec, epoch, at } => queue.push(at, Event::LlmStep { exec, epoch }),
        }
    }
}

/// What one backend timer event changed.
#[derive(Debug, Default)]
pub struct StepOutcome {
    /// Tasks whose decoding completed during this step, in completion
    /// order. The engine runs its completion cascade for each.
    pub finished: Vec<LlmTaskRef>,
    /// Whether the step changed any state a scheduler could observe
    /// (stale epochs and no-op steps return `false` to suppress a
    /// scheduler invocation).
    pub effective: bool,
}

impl StepOutcome {
    /// A stale or no-op step: nothing finished, nothing observable moved.
    pub fn stale() -> Self {
        StepOutcome::default()
    }
}

/// A pool of LLM executors under one batching/serving model.
///
/// The engine owns exactly one backend (chosen from
/// [`pool::EngineMode`] via [`pool::build_backend`]) and talks to it only
/// through this trait:
///
/// * [`place`](ExecutorBackend::place) when the dispatcher routes a
///   ready LLM task (the default is the paper's least-loaded rule;
///   cluster backends delegate to their
///   [`Router`](llmsched_cluster::Router)),
/// * [`admit`](ExecutorBackend::admit) when the dispatcher places a task
///   on the chosen executor,
/// * [`step`](ExecutorBackend::step) when a [`Event::LlmStep`] the
///   backend posted comes due,
/// * [`drain`](ExecutorBackend::drain) when a task's completion is
///   processed (the batch slot must be released synchronously),
/// * [`occupancy`](ExecutorBackend::occupancy) /
///   [`capacity`](ExecutorBackend::capacity) whenever placement,
///   utilization accounting or the scheduler-visible
///   [`LlmExecutorView`](crate::state::LlmExecutorView)s need batch
///   sizes.
///
/// # Invariants
///
/// Implementations must keep, for every executor index `e`:
///
/// 1. `occupancy(e)` equals admitted − drained tasks for `e` (admission
///    is synchronous, whatever internal join staging — or prefill
///    transit — is used);
/// 2. a task admitted exactly once is eventually reported finished
///    exactly once — via a posted [`Event::TaskFinish`] or a
///    [`StepOutcome::finished`] entry — provided posted events keep
///    being delivered;
/// 3. `drain` of a task already removed by
///    [`step`](ExecutorBackend::step) is a no-op (the engine always
///    drains on completion, including completions the backend itself
///    reported);
/// 4. `place` only returns executors with `occupancy(e) < capacity(e)`.
pub trait ExecutorBackend: std::fmt::Debug {
    /// Short backend family name (e.g. `"analytic"`, `"cluster"`).
    fn name(&self) -> &'static str;

    /// Full self-description for results and reports; backends with a
    /// configurable routing policy append it (e.g. `"cluster/jsq"`).
    fn descriptor(&self) -> String {
        self.name().to_string()
    }

    /// Number of LLM executors in the pool (for disaggregated backends:
    /// the decode replicas — prefill replicas are internal).
    fn n_execs(&self) -> usize;

    /// Number of tasks currently holding a batch slot on executor
    /// `exec` (running, staged to join at the next boundary, or in
    /// prefill transit toward it).
    fn occupancy(&self, exec: usize) -> usize;

    /// Maximum batch slots on executor `exec`.
    fn capacity(&self, exec: usize) -> usize;

    /// Streams `(occupancy, capacity)` of every executor, in index
    /// order, to `f`. The engine's per-timestamp utilization integrals
    /// and per-invocation occupancy snapshots go through this instead
    /// of calling [`occupancy`](ExecutorBackend::occupancy) per
    /// executor, so backends can walk their pools directly. The default
    /// loops over the per-executor accessors; overrides must
    /// visit the exact same values in the same order.
    fn for_each_slot(&self, f: &mut dyn FnMut(usize, usize)) {
        for e in 0..self.n_execs() {
            f(self.occupancy(e), self.capacity(e));
        }
    }

    /// Routes `task` to an executor with a free slot, or `None` when the
    /// pool is full. The default is the paper's least-loaded placement
    /// (fewest occupied slots, ties by index); cluster backends override
    /// it with their configured [`Router`](llmsched_cluster::Router).
    fn place(&mut self, task: LlmTaskRef, work: LlmWork) -> Option<usize> {
        let _ = (task, work);
        (0..self.n_execs())
            .filter(|&e| self.occupancy(e) < self.capacity(e))
            .min_by_key(|&e| self.occupancy(e))
    }

    /// Admits `task` (with token counts `work`) into executor `exec`'s
    /// batch. Called by the dispatcher after readiness checks, with `exec`
    /// the executor [`place`](ExecutorBackend::place) chose.
    fn admit(&mut self, exec: usize, task: LlmTaskRef, work: LlmWork, cx: &mut ExecCtx<'_>);

    /// Handles a [`Event::LlmStep`] wake-up this backend posted earlier.
    /// Returns the tasks that finished and whether anything observable
    /// changed; a mismatched `epoch` must return [`StepOutcome::stale`].
    fn step(&mut self, exec: usize, epoch: u64, cx: &mut ExecCtx<'_>) -> StepOutcome;

    /// Releases `task`'s batch slot on executor `exec`. Called by the
    /// engine for every LLM task completion; must be a no-op if the
    /// backend already removed the task during the step that finished it.
    fn drain(&mut self, exec: usize, task: LlmTaskRef, cx: &mut ExecCtx<'_>);
}
