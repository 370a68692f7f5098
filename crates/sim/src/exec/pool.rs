//! Backend-agnostic pool machinery: fidelity selection and the
//! occupancy-view helpers the engine uses over any [`ExecutorBackend`].

use llmsched_cluster::ClusterSpec;

use super::{AnalyticExec, ClusterExec, DisaggExec, ExecutorBackend, TokenExec};
use crate::engine::ClusterConfig;
use crate::state::LlmExecutorView;

/// LLM execution fidelity: which [`ExecutorBackend`] a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Rate-rescaling analytic batching (fast; the paper's simulator).
    #[default]
    Analytic,
    /// Per-iteration continuous batching (the paper's testbed stand-in).
    TokenLevel,
    /// Heterogeneous multi-group cluster with routed placement
    /// ([`ClusterExec`]); uses [`ClusterConfig::spec`], or a homogeneous
    /// spec derived from the scalar fields when none is given.
    Cluster,
    /// Disaggregated prefill/decode serving ([`DisaggExec`]); uses
    /// [`ClusterConfig::spec`], or a derived layout with one dedicated
    /// prefill replica when none is given.
    Disagg,
}

/// Builds the executor backend a cluster configuration asks for. The only
/// place the workspace dispatches on [`EngineMode`]; everything downstream
/// of here is trait-object code.
///
/// # Panics
/// Panics if [`ClusterConfig::spec`] is present but invalid, or lacks a
/// disaggregation layout in [`EngineMode::Disagg`].
pub fn build_backend(cfg: &ClusterConfig) -> Box<dyn ExecutorBackend> {
    match cfg.mode {
        EngineMode::Analytic => Box::new(AnalyticExec::new(cfg.llm_executors, cfg.max_batch)),
        EngineMode::TokenLevel => Box::new(TokenExec::new(
            cfg.llm_executors,
            cfg.max_batch,
            cfg.iteration_chunk,
        )),
        EngineMode::Cluster => {
            let spec = cfg.spec.clone().unwrap_or_else(|| {
                ClusterSpec::homogeneous(cfg.llm_executors, cfg.max_batch, cfg.latency.clone())
            });
            Box::new(ClusterExec::new(&spec))
        }
        EngineMode::Disagg => {
            let spec = cfg.spec.clone().unwrap_or_else(|| {
                ClusterSpec::disaggregated(cfg.llm_executors, cfg.max_batch, cfg.latency.clone())
            });
            Box::new(DisaggExec::new(&spec))
        }
    }
}

/// True if any executor can admit one more task.
pub fn has_free_slot(backend: &dyn ExecutorBackend) -> bool {
    (0..backend.n_execs()).any(|e| backend.occupancy(e) < backend.capacity(e))
}

/// Total batch slots across the pool.
pub fn total_slots(backend: &dyn ExecutorBackend) -> usize {
    (0..backend.n_execs()).map(|e| backend.capacity(e)).sum()
}

/// Scheduler-visible occupancy snapshot of every executor.
pub fn views(backend: &dyn ExecutorBackend) -> Vec<LlmExecutorView> {
    let mut out = Vec::new();
    views_into(backend, &mut out);
    out
}

/// Refreshes a reused occupancy-view buffer in place — the engine calls
/// this once per scheduler invocation instead of collecting a fresh `Vec`.
pub fn views_into(backend: &dyn ExecutorBackend, out: &mut Vec<LlmExecutorView>) {
    out.clear();
    let mut index = 0usize;
    backend.for_each_slot(&mut |occ, cap| {
        out.push(LlmExecutorView {
            index,
            batch_len: occ,
            max_batch: cap,
        });
        index += 1;
    });
}

/// `(occupied slots, non-idle executors)` across the pool — the inputs to
/// the engine's utilization integrals, probed at every timestamp advance
/// (hence the bulk walk rather than per-executor accessor calls).
pub fn slot_stats(backend: &dyn ExecutorBackend) -> (usize, usize) {
    let mut slots = 0usize;
    let mut busy = 0usize;
    backend.for_each_slot(&mut |occ, _| {
        slots += occ;
        busy += usize::from(occ > 0);
    });
    (slots, busy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyProfile;
    use llmsched_cluster::{ReplicaGroup, RoutingPolicy};

    fn cfg(mode: EngineMode) -> ClusterConfig {
        ClusterConfig {
            regular_executors: 1,
            llm_executors: 3,
            max_batch: 4,
            latency: LatencyProfile::default(),
            mode,
            iteration_chunk: 2,
            spec: None,
            coalescing: true,
            elision: true,
            decision_horizon: None,
        }
    }

    #[test]
    fn factory_builds_the_requested_backend() {
        let a = build_backend(&cfg(EngineMode::Analytic));
        assert_eq!(a.name(), "analytic");
        assert_eq!(a.descriptor(), "analytic");
        assert_eq!(a.n_execs(), 3);
        let t = build_backend(&cfg(EngineMode::TokenLevel));
        assert_eq!(t.name(), "token-level");
        assert_eq!(t.n_execs(), 3);
    }

    #[test]
    fn cluster_modes_derive_specs_from_scalar_fields() {
        let c = build_backend(&cfg(EngineMode::Cluster));
        assert_eq!(c.name(), "cluster");
        assert_eq!(c.descriptor(), "cluster/least-loaded");
        assert_eq!(c.n_execs(), 3);
        assert_eq!(total_slots(&*c), 12);

        let d = build_backend(&cfg(EngineMode::Disagg));
        assert_eq!(d.name(), "disagg");
        // Decode replicas mirror llm_executors; prefill is internal.
        assert_eq!(d.n_execs(), 3);
        assert_eq!(total_slots(&*d), 12);
    }

    #[test]
    fn explicit_spec_overrides_scalar_fields() {
        let spec = ClusterSpec::new(
            vec![
                ReplicaGroup::new("fast", 1, 8, LatencyProfile::default()),
                ReplicaGroup::new("slow", 2, 2, LatencyProfile::default()),
            ],
            RoutingPolicy::JoinShortestQueue,
        );
        let c = build_backend(&ClusterConfig {
            spec: Some(spec),
            ..cfg(EngineMode::Cluster)
        });
        assert_eq!(c.n_execs(), 3);
        assert_eq!(c.descriptor(), "cluster/jsq");
        assert_eq!((c.capacity(0), c.capacity(1)), (8, 2));
        assert_eq!(total_slots(&*c), 12);
    }

    #[test]
    fn empty_pool_has_no_placement() {
        let cfg = ClusterConfig {
            llm_executors: 0,
            ..cfg(EngineMode::Analytic)
        };
        let mut be = build_backend(&cfg);
        assert!(!has_free_slot(&*be));
        assert_eq!(
            be.place(
                super::super::LlmTaskRef {
                    job: 0,
                    stage: 0,
                    task: 0
                },
                llmsched_dag::work::LlmWork {
                    prompt_tokens: 0,
                    output_tokens: 1
                }
            ),
            None
        );
        assert!(views(&*be).is_empty());
        assert_eq!(slot_stats(&*be), (0, 0));
    }
}
