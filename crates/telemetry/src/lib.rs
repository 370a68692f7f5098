//! Observability for the LLMSched simulator: zero-cost-when-off probes,
//! windowed time-series aggregation, trace export, and scheduler decision
//! provenance.
//!
//! The contract (DESIGN.md §11) mirrors the repo's other equivalence
//! contracts: telemetry is **observation-only**. The engine threads one
//! [`Probe`] through every run; with the default [`NoopProbe`] every
//! emission site is guarded by a cached `enabled()` flag, so the hot path
//! pays one branch per site and allocates nothing. With a recording probe
//! ([`trace::TraceRecorder`]) the *schedule is still bit-identical* —
//! probes receive copies of engine state and can influence nothing, which
//! the `telemetry_equiv` suite pins against the golden oracles.
//!
//! Layout:
//!
//! * [`ProbeEvent`] / [`Probe`] / [`NoopProbe`] — the event vocabulary
//!   and the sink trait (this module);
//! * [`DecisionRecord`] — opt-in per-dispatch scheduler provenance
//!   ("why did LLMSched pick this job"): evidence mask, profile version,
//!   posterior work estimate, Eq. 6 uncertainty-reduction term;
//! * [`window`] — streaming sim-time windows: queue depth, utilization,
//!   windowed p50/p95/p99 JCT, SLO attainment and goodput trajectories;
//! * [`trace`] — an event recorder exporting JSONL and Chrome
//!   `trace_event` JSON (loadable in Perfetto / `chrome://tracing`);
//! * [`reservoir`] — the bounded deterministic wall-clock sample summary
//!   behind `SimResult::sched_wall_samples`;
//! * [`json`] — the dependency-free JSON escaper/validator the exporters
//!   and CI smoke tests share (this repo builds fully offline; no serde).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod reservoir;
pub mod trace;
pub mod window;

pub use reservoir::WallReservoir;
pub use trace::{TraceConfig, TraceRecorder};
pub use window::{TimeSeries, WindowAggregator, WindowConfig, WindowRow};

use llmsched_dag::ids::{AppId, JobId, StageId};
use llmsched_dag::time::SimTime;
use llmsched_dag::work::ExecutorClass;

/// One observation the engine (or a backend, or the scheduler provenance
/// drain) pushes into the active [`Probe`].
///
/// Events are small `Copy` structs built inline at the emission site, so
/// a disabled probe costs one predictable branch and zero allocation.
/// Times are simulation times except where a field is explicitly
/// wall-clock (`wall`, `busy`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeEvent {
    /// A job arrived and entered the active set.
    JobArrived {
        /// Arrival (= current) simulation time.
        at: SimTime,
        /// The job.
        job: JobId,
        /// The application it instantiates.
        app: AppId,
    },
    /// The dispatcher started one task.
    TaskDispatched {
        /// Dispatch time.
        at: SimTime,
        /// The job.
        job: JobId,
        /// The stage.
        stage: StageId,
        /// Task index within the stage.
        task: u32,
        /// Executor class the task runs on.
        class: ExecutorClass,
        /// LLM executor index (global); `None` for regular tasks.
        exec: Option<u32>,
    },
    /// One running task finished.
    TaskFinished {
        /// Completion time.
        at: SimTime,
        /// The job.
        job: JobId,
        /// The stage.
        stage: StageId,
        /// Task index within the stage.
        task: u32,
    },
    /// A stage completed (executed, voided, or auto-completed).
    StageCompleted {
        /// Completion time.
        at: SimTime,
        /// The job.
        job: JobId,
        /// The stage.
        stage: StageId,
    },
    /// The reveal protocol resolved a hidden stage.
    StageRevealed {
        /// Reveal time.
        at: SimTime,
        /// The job.
        job: JobId,
        /// The revealed stage.
        stage: StageId,
        /// True if the stage will execute; false if it voided.
        executes: bool,
    },
    /// A job finished all stages.
    JobCompleted {
        /// Completion time.
        at: SimTime,
        /// The job.
        job: JobId,
        /// Its arrival time (so JCT needs no join against arrivals).
        arrival: SimTime,
    },
    /// One scheduler invocation span: delta delivery + `schedule()`.
    SchedInvoked {
        /// Decision-point simulation time.
        at: SimTime,
        /// Invocation sequence number (0-based, per run).
        seq: u64,
        /// Wall-clock time spent inside the scheduler.
        wall: std::time::Duration,
        /// Deltas delivered to this invocation.
        deltas: u32,
        /// Deferred decision points this invocation folded under the
        /// bounded-staleness horizon (0 in exact mode): the batched-
        /// invocation provenance — `at` is the horizon edge, `deltas`
        /// carries everything the deferred points accumulated.
        folded: u32,
        /// Regular task refs the returned preference held.
        regular: u32,
        /// LLM task refs the returned preference held.
        llm: u32,
    },
    /// Opt-in scheduler decision provenance (see [`DecisionRecord`]).
    Decision(DecisionRecord),
    /// A backend admitted a task into an executor's batch (or, for
    /// disaggregated backends, into prefill transit toward it).
    BatchAdmit {
        /// Admission time.
        at: SimTime,
        /// Global executor index.
        exec: u32,
        /// Occupied batch slots after the admission.
        occupancy: u32,
        /// Batch capacity of the executor.
        capacity: u32,
    },
    /// A backend released a task's batch slot.
    BatchDrain {
        /// Drain time.
        at: SimTime,
        /// Global executor index.
        exec: u32,
        /// Occupied batch slots after the drain.
        occupancy: u32,
    },
    /// A routed backend's placement decision, as admitted: which replica
    /// the routing policy chose for a task. (Emitted by cluster/disagg
    /// backends; homogeneous pools use the paper's fixed least-loaded
    /// rule, fully reconstructible from [`ProbeEvent::TaskDispatched`].)
    Routed {
        /// Admission time.
        at: SimTime,
        /// Dense engine job index (backends do not know `JobId`s).
        job_index: u32,
        /// Chosen global executor index.
        exec: u32,
        /// Replica group of the chosen executor.
        group: u32,
        /// Routing policy name (e.g. `"jsq"`, `"least-loaded"`).
        policy: &'static str,
    },
    /// Piecewise-constant cluster state over `[from, to)` — emitted by the
    /// engine whenever sim time advances, only while a probe is enabled.
    /// The windowed aggregator integrates these into queue-depth and
    /// utilization trajectories.
    UtilSample {
        /// Span start (previous event time).
        from: SimTime,
        /// Span end (current event time).
        to: SimTime,
        /// Active (arrived, incomplete) jobs over the span.
        active: u32,
        /// Busy regular executors.
        regular_busy: u32,
        /// Total regular executors.
        regular_total: u32,
        /// Occupied LLM batch slots.
        llm_busy_slots: u32,
        /// Total LLM batch slots.
        llm_slots: u32,
    },
}

impl ProbeEvent {
    /// The event's JSONL `type` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            ProbeEvent::JobArrived { .. } => "job_arrived",
            ProbeEvent::TaskDispatched { .. } => "task_dispatched",
            ProbeEvent::TaskFinished { .. } => "task_finished",
            ProbeEvent::StageCompleted { .. } => "stage_completed",
            ProbeEvent::StageRevealed { .. } => "stage_revealed",
            ProbeEvent::JobCompleted { .. } => "job_completed",
            ProbeEvent::SchedInvoked { .. } => "sched_invoked",
            ProbeEvent::Decision(_) => "decision",
            ProbeEvent::BatchAdmit { .. } => "batch_admit",
            ProbeEvent::BatchDrain { .. } => "batch_drain",
            ProbeEvent::Routed { .. } => "routed",
            ProbeEvent::UtilSample { .. } => "util_sample",
        }
    }
}

/// Which preference list a provenance record's stage was drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionList {
    /// The SRTF exploitation list St (all tasks attached).
    Exploit,
    /// The most-uncertainty-reduction-first exploration list Su (a sampled
    /// fraction of tasks attached).
    Explore,
    /// The line-21 tail: unsampled remainders re-attached in SRTF order.
    Tail,
}

impl DecisionList {
    /// Stable lowercase name for trace output.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionList::Exploit => "exploit",
            DecisionList::Explore => "explore",
            DecisionList::Tail => "tail",
        }
    }
}

/// Why one stage entered a scheduler's preference lists: the posterior
/// state LLMSched acted on at the moment of the decision.
///
/// Collection is opt-in (`Scheduler::set_telemetry`) and observation-only:
/// records are built from values the scheduler already computed, so the
/// ε-greedy RNG stream — and therefore the schedule — is untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRecord {
    /// Decision-point simulation time (stamped by the engine at drain).
    pub at: SimTime,
    /// Scheduler invocation sequence number (stamped by the engine).
    pub seq: u64,
    /// The chosen job.
    pub job: JobId,
    /// The chosen stage.
    pub stage: StageId,
    /// Which list the stage was drawn from.
    pub list: DecisionList,
    /// Emission rank within this invocation (0-based).
    pub rank: u32,
    /// Task references attached for the stage by this emission.
    pub tasks: u32,
    /// The job's Bayesian evidence mask (completed template stages).
    pub evidence_mask: u64,
    /// The app's profile snapshot version the estimate was derived under.
    pub profile_version: u64,
    /// Calibrated posterior expected remaining work, seconds (Eq. 2/3).
    pub expected_work: f64,
    /// Calibrated remaining-work support interval, seconds.
    pub interval: (f64, f64),
    /// Eq. 6 uncertainty-reduction (entropy / MI) score of the stage;
    /// `None` for exploit/tail emissions, which are not score-driven.
    pub reduction: Option<f64>,
}

/// A telemetry sink. The engine calls [`Probe::record`] at every probe
/// point while [`Probe::enabled`] is true; implementations must be pure
/// observers (no feedback into the simulation).
pub trait Probe: std::fmt::Debug {
    /// Whether emission sites should build and deliver events. The engine
    /// caches this once per run, so it must be constant over a run.
    fn enabled(&self) -> bool;

    /// Consumes one event. Only called while [`Probe::enabled`].
    fn record(&mut self, ev: &ProbeEvent);

    /// Hands over the finished windowed time-series, if this probe
    /// aggregates one; `end` is the run's makespan (the final partial
    /// window closes there). The engine calls this once, at the end of a
    /// run, to surface the series on `SimResult`.
    fn take_timeseries(&mut self, end: SimTime) -> Option<TimeSeries> {
        let _ = end;
        None
    }
}

/// The default probe: disabled, records nothing, costs one branch per
/// probe point.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _ev: &ProbeEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_probe_is_disabled_and_inert() {
        let mut p = NoopProbe;
        assert!(!p.enabled());
        p.record(&ProbeEvent::JobArrived {
            at: SimTime::ZERO,
            job: JobId(0),
            app: AppId(0),
        });
        assert!(p.take_timeseries(SimTime::ZERO).is_none());
    }

    #[test]
    fn event_kinds_are_stable() {
        assert_eq!(
            ProbeEvent::JobCompleted {
                at: SimTime::ZERO,
                job: JobId(1),
                arrival: SimTime::ZERO,
            }
            .kind(),
            "job_completed"
        );
        assert_eq!(DecisionList::Explore.as_str(), "explore");
    }
}
