//! The benchmark workloads: what each one runs, why it exists, and which
//! end-to-end metric each layer's metrics should move on it.
//!
//! All three share the Mixed application mix (jobs uniformly spread over
//! the six applications), Poisson arrivals at [`LAMBDA`] and the Mixed
//! cluster scaled by [`CLUSTER_SCALE`] — the setting of the
//! `scale_throughput` bin, where hundreds of jobs are in flight. Decision
//! timing is exact (`decision_horizon = None`) everywhere, so
//! `decisions.deferred` stays 0 until a workload opts into the horizon.

use llmsched_bench::TrainedArtifacts;
use llmsched_core::prelude::{
    LlmSched, LlmSchedConfig, ProfileStore, ProfileStoreConfig, ProfileUpdate,
};
use llmsched_dag::ids::AppId;
use llmsched_schedulers::prelude::Fcfs;
use llmsched_sim::engine::{ClusterConfig, EngineMode};
use llmsched_sim::scheduler::Scheduler;
use llmsched_workloads::apps::all_templates;
use llmsched_workloads::prelude::{
    generate_drift_workload, generate_workload_with, training_jobs, AppKind, ArrivalProcess,
    DriftSpec, Workload, WorkloadKind,
};

use crate::layers::Tracer;

/// Executor multiplier over the Mixed default cluster (the
/// `scale_throughput` setting): enough capacity that λ = [`LAMBDA`] keeps
/// the queue stable with hundreds of jobs active.
pub const CLUSTER_SCALE: usize = 48;

/// Poisson arrival rate, jobs per simulated second.
pub const LAMBDA: f64 = 24.0;

/// Historical jobs per application in the profiler's training corpus.
pub const TRAIN_PER_APP: usize = 200;

/// Seed of the training corpus. Fixed: the trained profile is part of the
/// system under test, not of the benchmark input, which `--seed` drives.
pub const TRAIN_SEED: u64 = 1;

/// Observation rows the online store keeps per app (the `drift_adapt`
/// setting). The training corpus already fills it, so every refit works
/// on a full window and its cost does not grow over the run.
pub const STORE_WINDOW: usize = 128;

/// Work multiplier of drifted jobs in `drift-online`.
pub const DRIFT_FACTOR: f64 = 0.3;

/// The policy a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Stock LLMSched over the frozen trained profiler.
    LlmSchedFrozen,
    /// First come, first served.
    Fcfs,
    /// LLMSched over a [`ProfileStore`] refit after every completion.
    LlmSchedOnline,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one sentence).
    pub why: &'static str,
    /// Layer → the end-to-end metrics its per-layer metrics should move on
    /// this workload.
    pub moves: &'static [(&'static str, &'static str)],
    /// Jobs per simulation.
    pub jobs: usize,
    /// Inputs in the suite an untraced run simulates, each generated from
    /// its own seed: one input's cost depends on its seed (queueing bursts
    /// last minutes of simulated time), so one run averages over several.
    pub inputs: usize,
    /// Executor backend.
    pub mode: EngineMode,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Whether CodeGeneration jobs arriving after T/3 carry
    /// [`DRIFT_FACTOR`]× work (`generate_drift_workload`).
    pub drift: bool,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "mixed-llmsched",
        why: "The paper's policy (stock LLMSched, frozen profiler, exact decision timing) \
              at a load with hundreds of jobs in flight, where the scheduler takes about \
              80% of wall time, so LLMSched and decision-point changes show here.",
        moves: &[
            ("workloads", "none (generation is outside jobs_per_s)"),
            ("profiler", "setup_s"),
            ("engine", "jobs_per_s (about 20% of wall)"),
            (
                "exec",
                "avg_jct_s, p99_jct_s (any movement is a schedule change)",
            ),
            ("decisions", "jobs_per_s; deferral also moves avg_jct_s"),
            ("sched", "jobs_per_s, decision_p50_us, decision_p99_us"),
            ("store", "none (frozen profile: store.* stay 0)"),
            ("telemetry", "none (tracing is off in end-to-end runs)"),
        ],
        jobs: 5_000,
        inputs: 4,
        mode: EngineMode::Analytic,
        policy: PolicyKind::LlmSchedFrozen,
        drift: false,
    },
    WorkloadDef {
        name: "token-fcfs",
        why: "The same mix, rate and cluster on the token-level backend under FCFS: the \
              engine and executor do most of the work and no LLMSched or Bayes code runs, \
              so engine changes show here and scheduler-side changes must not.",
        moves: &[
            ("workloads", "none (generation is outside jobs_per_s)"),
            ("profiler", "setup_s"),
            ("engine", "jobs_per_s (most of wall)"),
            (
                "exec",
                "avg_jct_s, p99_jct_s (any movement is a schedule change)",
            ),
            ("decisions", "jobs_per_s (small share)"),
            ("sched", "no change for LLMSched changes"),
            ("store", "none (no profile store: store.* stay 0)"),
            ("telemetry", "none (tracing is off in end-to-end runs)"),
        ],
        jobs: 5_000,
        inputs: 8,
        mode: EngineMode::TokenLevel,
        policy: PolicyKind::Fcfs,
        drift: false,
    },
    WorkloadDef {
        name: "drift-online",
        why: "The same mix, rate and cluster with CodeGeneration drifting to 0.3x work \
              after T/3, scheduled by LLMSched over a per-completion ProfileStore: it \
              writes (refits, drift re-learning) beside the posterior reads, so a change \
              that helps refits but hurts frozen reads, or the reverse, shows.",
        moves: &[
            ("workloads", "none (generation is outside jobs_per_s)"),
            ("profiler", "setup_s"),
            ("engine", "about 0 (the scheduler takes ~98% of wall)"),
            (
                "exec",
                "avg_jct_s, p99_jct_s (any movement is a schedule change)",
            ),
            ("decisions", "jobs_per_s"),
            ("sched", "jobs_per_s, decision_p50_us"),
            ("store", "jobs_per_s, decision_p99_us"),
            ("telemetry", "none (tracing is off in end-to-end runs)"),
        ],
        jobs: 2_000,
        inputs: 3,
        mode: EngineMode::Analytic,
        policy: PolicyKind::LlmSchedOnline,
        drift: true,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A constructed policy, kept concrete so the benchmark can read its
/// counters (profile versions, pool-scored candidates) after a run.
#[derive(Debug)]
pub enum Policy {
    /// LLMSched (frozen or online).
    Llm(Box<LlmSched>),
    /// FCFS.
    Fcfs(Fcfs),
}

impl Policy {
    /// The policy as the engine sees it — no wrapper in between.
    pub fn as_sched(&mut self) -> &mut dyn Scheduler {
        match self {
            Policy::Llm(s) => &mut **s,
            Policy::Fcfs(s) => s,
        }
    }

    /// Read-only view of [`Policy::as_sched`].
    pub fn as_sched_ref(&self) -> &dyn Scheduler {
        match self {
            Policy::Llm(s) => &**s,
            Policy::Fcfs(s) => s,
        }
    }

    /// Σ `ProfileStore::version` over `apps` (0 for policies without a
    /// store).
    pub fn store_versions(&self, apps: &[AppId]) -> u64 {
        match self {
            Policy::Llm(s) => apps.iter().map(|&a| s.profile_store().version(a).0).sum(),
            Policy::Fcfs(_) => 0,
        }
    }

    /// `LlmSched::par_scored` (0 for other policies).
    pub fn par_scored(&self) -> u64 {
        match self {
            Policy::Llm(s) => s.par_scored(),
            Policy::Fcfs(_) => 0,
        }
    }
}

/// The applications of the Mixed mix, the apps every workload draws from.
pub fn apps() -> Vec<AppId> {
    WorkloadKind::Mixed
        .apps()
        .into_iter()
        .map(AppKind::app_id)
        .collect()
}

impl WorkloadDef {
    /// The scaled Mixed cluster on this workload's backend.
    pub fn cluster(&self) -> ClusterConfig {
        let base = WorkloadKind::Mixed.default_cluster();
        ClusterConfig {
            regular_executors: base.regular_executors * CLUSTER_SCALE,
            llm_executors: base.llm_executors * CLUSTER_SCALE,
            mode: self.mode,
            iteration_chunk: 1,
            decision_horizon: None,
            ..base
        }
    }

    /// The benchmark input: `jobs` jobs generated from `seed`.
    pub fn generate(&self, jobs: usize, seed: u64) -> Workload {
        let kind = WorkloadKind::Mixed;
        if self.drift {
            let at = jobs as f64 / LAMBDA / 3.0;
            let drift = DriftSpec::new(at, DRIFT_FACTOR, vec![AppKind::CodeGeneration]);
            generate_drift_workload(kind, jobs, LAMBDA, seed, &drift)
        } else {
            let arrivals = ArrivalProcess::Poisson { lambda: LAMBDA };
            generate_workload_with(kind, jobs, &arrivals, seed)
        }
    }

    /// Sets the policy up, the way a program that runs it does before
    /// `simulate`: trains the profiler (or profile store) in a
    /// `profiler.train` span and constructs the policy in a `sched.build`
    /// span, both children of span `parent` of `run`. Returns the policy
    /// and the training time in seconds. `cfg` overrides the LLMSched
    /// configuration (the benchmark runs `LlmSchedConfig::default()`;
    /// tests flip `work_conserving`).
    pub fn setup(
        &self,
        cfg: &LlmSchedConfig,
        tracer: &mut Tracer,
        parent: u32,
        run: u32,
    ) -> (Policy, f64) {
        let train_roster = || TrainedArtifacts::train(TRAIN_PER_APP, TRAIN_SEED);
        match self.policy {
            PolicyKind::LlmSchedFrozen => {
                let (art, train_s) = tracer.time("profiler.train", Some(parent), run, train_roster);
                let (p, _) = tracer.time("sched.build", Some(parent), run, || {
                    Policy::Llm(Box::new(LlmSched::new(art.profiler, cfg.clone())))
                });
                (p, train_s)
            }
            PolicyKind::Fcfs => {
                // FCFS reads no profile, but the roster is trained before
                // any policy runs, so set-up covers the same training on
                // every workload.
                let (_art, train_s) =
                    tracer.time("profiler.train", Some(parent), run, train_roster);
                let (p, _) = tracer.time("sched.build", Some(parent), run, || {
                    Policy::Fcfs(Fcfs::new())
                });
                (p, train_s)
            }
            PolicyKind::LlmSchedOnline => {
                let (store, train_s) = tracer.time("profiler.train", Some(parent), run, || {
                    let corpus =
                        training_jobs(&WorkloadKind::Mixed.apps(), TRAIN_PER_APP, TRAIN_SEED);
                    let cfg = ProfileStoreConfig {
                        update: ProfileUpdate::PerCompletion,
                        window_cap: STORE_WINDOW,
                        ..ProfileStoreConfig::default()
                    };
                    ProfileStore::train(&all_templates(), &corpus, cfg)
                });
                let (p, _) = tracer.time("sched.build", Some(parent), run, || {
                    Policy::Llm(Box::new(LlmSched::with_store(store, cfg.clone())))
                });
                (p, train_s)
            }
        }
    }
}
