//! Persistent per-job scheduling beliefs: the incremental replacement for
//! recomputing Bayesian evidence, posterior work estimates, and Eq. 6
//! uncertainty reductions from scratch at every decision point.
//!
//! A [`JobBelief`] is everything LLMSched knows about one active job under
//! its current evidence: the completed-stage fingerprint (`mask`), the
//! extracted [`Evidence`], the posterior [`WorkEstimate`], and a handle to
//! the [`EvidencePosteriors`] shared by every job of its application under
//! the same evidence. That shared state holds the only Eq. 6 memo: the MI
//! term per stage, filled on first use by [`BeliefStore::reduction`] under
//! the BN and the w/o-BN ablation alike. Beliefs change **only when the
//! job's evidence changes or its app's profile snapshot moves**. Evidence
//! can only change when a stage of that job completes — so the
//! [`BeliefStore`] listens to the engine's [`SchedDelta`] stream, marks
//! jobs dirty on [`SchedDelta::StageCompleted`], and recomputes a belief
//! iff the dirty job's evidence mask actually moved. Profile snapshots
//! can only move when the [`ProfileStore`] publishes — the caller routes
//! the store's bumped-app list through
//! [`BeliefStore::mark_app_dirty`], which invalidates exactly the
//! affected application's jobs (and its shared posterior bands) and
//! nothing else. Completed jobs are evicted deterministically on
//! [`SchedDelta::JobCompleted`] (replacing the old size-triggered
//! `prune_cache` heuristic).
//!
//! The per-invocation cost drops from O(jobs · (stage scan + posterior
//! clone)) to O(changed jobs · posterior), while producing bit-identical
//! values to the rebuild path: the same estimator functions run on the
//! same inputs, just not redundantly.
//!
//! A posterior build itself ([`EvidencePosteriors::build`]) needs every
//! unobserved stage's marginal. Variable elimination runs in ascending
//! variable order and skips only its target, so all targets above `t`
//! share the pool left after eliminating everything below `t`: the build
//! eliminates that shared prefix once and resumes each target from it
//! ([`llmsched_bayes::factor::eliminate_marginals`]), the same operations
//! in the same order per target, hence the same bits.
//! [`LlmSched::stats`](crate::scheduler::LlmSched::stats) reports the
//! store's counts of builds, eliminations and Eq. 6 memo misses.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};

use llmsched_bayes::network::Evidence;
use llmsched_dag::ids::{AppId, JobId, StageId};
use llmsched_sim::scheduler::{SchedContext, SchedDelta};
use llmsched_sim::state::JobRt;

use std::rc::Rc;

use crate::estimator::{EvidencePosteriors, WorkEstimate};
use crate::store::ProfileStore;
use crate::uncertainty::{
    add_dynamic_bonus, mi_part, mi_part_cached, uncertainty_reduction, MiEstimator,
};

/// Cap on memoized posterior-band entries per app; reaching it clears
/// that app's memo (values are recomputed identically, so this only
/// bounds memory).
const BANDS_MEMO_CAP: usize = 1 << 16;

/// One application's posterior-band memo, valid for exactly one profile
/// snapshot version.
#[derive(Debug, Clone, Default)]
struct AppBands {
    version: u64,
    by_evidence: HashMap<Vec<(usize, usize)>, Rc<EvidencePosteriors>>,
}

/// Everything LLMSched believes about one active job under its current
/// evidence.
#[derive(Debug, Clone, Default)]
pub struct JobBelief {
    /// The job's application (bookkeeping for per-app invalidation).
    pub app: AppId,
    /// The profile snapshot version the belief was computed under: the
    /// belief is valid while the app's published version equals this.
    pub version: u64,
    /// Completed-template-stage fingerprint
    /// ([`AppProfile::evidence_mask`](crate::profiler::AppProfile::evidence_mask)):
    /// the belief is valid while the job's mask equals this.
    pub mask: u64,
    /// Completed-stage duration bins the posterior conditions on.
    pub evidence: Evidence,
    /// Posterior remaining-work estimate (batch-1 seconds; apply the Eq. 2
    /// calibration when comparing against wall-clock time).
    pub work: WorkEstimate,
    /// The shared per-evidence posterior state this belief was derived
    /// from (bands, and under the BN the reduced-CPT pool and marginals)
    /// plus the Eq. 6 MI memo — scoring reuses both instead of re-running
    /// the inference.
    shared: Option<Rc<EvidencePosteriors>>,
}

/// Work counters of a [`BeliefStore`] since it was last cleared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BeliefStats {
    /// Posterior states built ([`EvidencePosteriors::build`] calls, one
    /// per new `(application, version, evidence)`).
    pub(crate) posterior_builds: u64,
    /// Variable eliminations those builds ran.
    pub(crate) vars_eliminated: u64,
    /// Eq. 6 MI terms computed because the shared memo missed.
    pub(crate) mi_misses: u64,
}

/// Delta-maintained [`JobBelief`] records for every active job.
#[derive(Debug, Clone, Default)]
pub struct BeliefStore {
    beliefs: HashMap<JobId, JobBelief>,
    dirty: HashSet<JobId>,
    /// Active jobs per application — the inverse index behind
    /// [`BeliefStore::mark_app_dirty`].
    by_app: HashMap<AppId, HashSet<JobId>>,
    /// Posterior bands shared across jobs: the BN inference behind a work
    /// estimate depends only on (application, snapshot version, evidence),
    /// so every job of an app under the same evidence reuses one
    /// computation — at scale, thousands of fresh arrivals share the
    /// single no-evidence entry. A snapshot bump drops exactly that app's
    /// entries.
    bands: HashMap<AppId, AppBands>,
    /// Work counters; a `Cell` because scoring counts memo misses through
    /// `&self`.
    stats: Cell<BeliefStats>,
}

impl BeliefStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of held beliefs.
    pub fn len(&self) -> usize {
        self.beliefs.len()
    }

    /// True if no beliefs are held.
    pub fn is_empty(&self) -> bool {
        self.beliefs.is_empty()
    }

    /// Drops everything (scheduler reset).
    pub fn clear(&mut self) {
        self.beliefs.clear();
        self.dirty.clear();
        self.by_app.clear();
        self.bands.clear();
        self.stats.set(BeliefStats::default());
    }

    /// Work counters since the store was last cleared.
    pub(crate) fn stats(&self) -> BeliefStats {
        self.stats.get()
    }

    /// Routes one delta: arrivals and stage completions mark the job's
    /// belief stale; job completion evicts it. Observation deltas are
    /// ignored — profile movement reaches beliefs only through
    /// [`BeliefStore::mark_app_dirty`], after the store has actually
    /// published.
    pub fn on_delta(&mut self, d: &SchedDelta) {
        match d {
            SchedDelta::JobArrived { job, .. } | SchedDelta::StageCompleted { job, .. } => {
                self.dirty.insert(*job);
            }
            SchedDelta::JobCompleted { job } => {
                if let Some(b) = self.beliefs.remove(job) {
                    if let Some(set) = self.by_app.get_mut(&b.app) {
                        set.remove(job);
                    }
                }
                self.dirty.remove(job);
            }
            _ => {}
        }
    }

    /// Marks every active job of `app` stale — called with the
    /// [`ProfileStore`]'s bumped-app list after a snapshot publish, so a
    /// version bump invalidates exactly the affected app's posteriors.
    pub fn mark_app_dirty(&mut self, app: AppId) {
        if let Some(jobs) = self.by_app.get(&app) {
            self.dirty.extend(jobs.iter().copied());
        }
    }

    /// Brings the store in sync with `ctx` and returns the ids whose
    /// [`JobBelief::work`] actually changed (callers reposition those in
    /// their ordered indices).
    ///
    /// Dirty jobs re-derive their evidence mask — an O(template stages)
    /// scan — and only a *moved* mask (or snapshot version) triggers the
    /// BN posterior. The count-mismatch safety net rebuilds every belief
    /// when the context was produced outside the engine's delta stream.
    pub fn refresh(
        &mut self,
        store: &ProfileStore,
        ctx: &SchedContext<'_>,
        use_bn: bool,
        tail_mass: f64,
    ) -> Vec<JobId> {
        let mut changed = Vec::new();
        for id in std::mem::take(&mut self.dirty) {
            match ctx.job(id) {
                Some(job) => {
                    if self.update(store, job, use_bn, tail_mass) {
                        changed.push(id);
                    }
                }
                None => {
                    self.evict(id);
                }
            }
        }
        if self.beliefs.len() != ctx.jobs.len() {
            self.beliefs.clear();
            self.by_app.clear();
            changed.clear();
            for job in &ctx.jobs {
                self.update(store, job, use_bn, tail_mass);
                changed.push(job.id());
            }
        }
        changed
    }

    fn evict(&mut self, id: JobId) {
        if let Some(b) = self.beliefs.remove(&id) {
            if let Some(set) = self.by_app.get_mut(&b.app) {
                set.remove(&id);
            }
        }
    }

    /// Recomputes one job's belief if its evidence mask or profile
    /// version moved; returns whether anything changed.
    fn update(&mut self, store: &ProfileStore, job: &JobRt, use_bn: bool, tail_mass: f64) -> bool {
        let version = store.version(job.app()).0;
        let Some(profile) = store.profile(job.app()) else {
            // Unprofiled application: a zero-work belief, version-stamped
            // so a later cold-start bootstrap (version bump) re-estimates.
            let stale = self
                .beliefs
                .get(&job.id())
                .map_or(true, |b| b.version != version);
            if stale {
                self.beliefs.insert(
                    job.id(),
                    JobBelief {
                        app: job.app(),
                        version,
                        ..JobBelief::default()
                    },
                );
                self.by_app.entry(job.app()).or_default().insert(job.id());
            }
            return stale;
        };
        let mask = profile.evidence_mask(job);
        if let Some(b) = self.beliefs.get(&job.id()) {
            if b.mask == mask && b.version == version {
                return false;
            }
        }
        let evidence = profile.evidence_of(job);
        let app_bands = self.bands.entry(job.app()).or_default();
        if app_bands.version != version || app_bands.by_evidence.len() >= BANDS_MEMO_CAP {
            app_bands.version = version;
            app_bands.by_evidence.clear();
        }
        let key: Vec<(usize, usize)> = evidence.iter().map(|(&s, &b)| (s, b)).collect();
        let stats = &self.stats;
        let entry = app_bands.by_evidence.entry(key).or_insert_with(|| {
            let ep = EvidencePosteriors::build(profile, &evidence, use_bn, tail_mass);
            let mut s = stats.get();
            s.posterior_builds += 1;
            s.vars_eliminated += ep.eliminations;
            stats.set(s);
            Rc::new(ep)
        });
        let shared = Rc::clone(entry);
        let work = crate::estimator::remaining_work_from_bands(profile, job, &shared.bands);
        self.beliefs.insert(
            job.id(),
            JobBelief {
                app: job.app(),
                version,
                mask,
                evidence,
                work,
                shared: Some(shared),
            },
        );
        self.by_app.entry(job.app()).or_default().insert(job.id());
        true
    }

    /// The belief of `job`, if held (refresh first).
    pub fn get(&self, job: JobId) -> Option<&JobBelief> {
        self.beliefs.get(&job)
    }

    /// The remaining-work estimate of `job` (zero if unknown).
    pub fn work(&self, job: JobId) -> WorkEstimate {
        self.beliefs.get(&job).map(|b| b.work).unwrap_or_default()
    }

    /// Eq. 6 uncertainty-reduction score for a ready stage. The MI term is
    /// a pure function of `(application, evidence)`, so it is memoized once
    /// in the job's shared [`EvidencePosteriors`] and reused by every job
    /// under that evidence — on the BN path and the w/o-BN ablation alike;
    /// only the job-specific dynamic-expansion bonus is added per call.
    /// Composition and guards mirror [`uncertainty_reduction`] exactly.
    /// Scores of jobs without a belief are computed uncached.
    pub fn reduction(
        &self,
        store: &ProfileStore,
        mi: MiEstimator,
        job: &JobRt,
        stage: StageId,
    ) -> f64 {
        let Some(profile) = store.profile(job.app()) else {
            return 0.0;
        };
        if stage.index() >= profile.n_stages() {
            return 0.0; // generated stages carry no BN variable of their own
        }
        // No belief (context outside the delta stream and not yet
        // refreshed): compute against fresh evidence, uncached.
        let Some(b) = self.beliefs.get(&job.id()) else {
            return uncertainty_reduction(profile, job, stage, &profile.evidence_of(job), mi);
        };
        let Some(ep) = &b.shared else {
            return uncertainty_reduction(profile, job, stage, &b.evidence, mi);
        };
        if b.evidence.contains_key(&stage.index()) {
            return 0.0;
        }
        let part = ep.mi_memo(stage.0).unwrap_or_else(|| {
            let m = if ep.has_bn_cache() {
                mi_part_cached(profile, job, stage, &b.evidence, ep, mi)
            } else {
                mi_part(profile, job, stage, &b.evidence, mi)
            };
            ep.mi_memo_insert(stage.0, m);
            let mut s = self.stats.get();
            s.mi_misses += 1;
            self.stats.set(s);
            m
        });
        add_dynamic_bonus(profile, job, stage, part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Profiler, ProfilerConfig};
    use crate::store::{ProfileStoreConfig, ProfileUpdate};
    use llmsched_dag::time::SimTime;
    use llmsched_sim::state::LlmExecutorView;
    use llmsched_workloads::prelude::*;

    fn ctx_of<'a>(
        jobs: &'a [JobRt],
        templates: &'a llmsched_dag::template::TemplateSet,
        latency: &'a llmsched_sim::latency::LatencyProfile,
    ) -> SchedContext<'a> {
        SchedContext {
            now: SimTime::ZERO,
            jobs: llmsched_sim::scheduler::ActiveJobs::dense(jobs),
            llm_executors: &[LlmExecutorView {
                index: 0,
                batch_len: 0,
                max_batch: 8,
            }],
            backend: "analytic",
            regular_total: 2,
            regular_busy: 0,
            dispatchable: jobs.iter().map(|j| j.ready_unstarted_tasks()).sum(),
            dispatchable_regular: jobs.iter().map(|j| j.ready_unstarted_by_class().0).sum(),
            dispatchable_llm: jobs.iter().map(|j| j.ready_unstarted_by_class().1).sum(),
            could_dispatch: true,
            templates,
            latency,
        }
    }

    fn frozen_store(kinds: &[AppKind]) -> ProfileStore {
        let templates = all_templates();
        let corpus = training_jobs(kinds, 40, 9);
        let profiler = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
        ProfileStore::frozen(&profiler)
    }

    #[test]
    fn refresh_fills_missing_beliefs_and_reports_all_changed() {
        let store = frozen_store(&AppKind::ALL);
        let w = generate_workload(WorkloadKind::Mixed, 5, 0.9, 4);
        let jobs: Vec<JobRt> = w.jobs.into_iter().map(JobRt::new).collect();
        let latency = llmsched_sim::latency::LatencyProfile::default();
        let ctx = ctx_of(&jobs, &w.templates, &latency);

        let mut beliefs = BeliefStore::new();
        let changed = beliefs.refresh(&store, &ctx, true, 0.35);
        assert_eq!(changed.len(), 5, "safety net computes every belief");
        assert_eq!(beliefs.len(), 5);

        // A second refresh with no deltas changes nothing.
        let changed = beliefs.refresh(&store, &ctx, true, 0.35);
        assert!(changed.is_empty(), "clean store must not recompute");

        // Dirty without an actual evidence change: still nothing.
        beliefs.on_delta(&SchedDelta::StageCompleted {
            job: jobs[0].id(),
            stage: StageId(0),
        });
        let changed = beliefs.refresh(&store, &ctx, true, 0.35);
        assert!(
            changed.is_empty(),
            "unchanged evidence mask must not invalidate the belief"
        );
    }

    #[test]
    fn job_completion_evicts_deterministically() {
        let mut store = BeliefStore::new();
        store.beliefs.insert(JobId(7), JobBelief::default());
        store.on_delta(&SchedDelta::JobCompleted { job: JobId(7) });
        assert!(store.is_empty());
        assert_eq!(store.work(JobId(7)), WorkEstimate::default());
    }

    #[test]
    fn without_bn_same_evidence_jobs_share_one_mi_memo_entry() {
        use rand::SeedableRng;
        let templates = all_templates();
        let corpus = training_jobs(&[AppKind::SequenceSorting], 300, 13);
        let profiler = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
        let store = ProfileStore::frozen(&profiler);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let jobs: Vec<JobRt> = (0..2)
            .map(|i| {
                JobRt::new(AppKind::SequenceSorting.generator().generate(
                    JobId(i),
                    SimTime::ZERO,
                    &mut rng,
                ))
            })
            .collect();
        let latency = llmsched_sim::latency::LatencyProfile::default();
        let ctx = ctx_of(&jobs, &templates, &latency);
        let mut beliefs = BeliefStore::new();
        beliefs.refresh(&store, &ctx, false, 0.35);

        let mi = MiEstimator::default();
        let profile = store.profile(jobs[0].app()).unwrap();
        let stage = StageId(0);
        for job in &jobs {
            let expected = uncertainty_reduction(profile, job, stage, &Evidence::new(), mi);
            assert!(expected > 0.0, "the split stage reduces uncertainty");
            assert_eq!(
                beliefs.reduction(&store, mi, job, stage).to_bits(),
                expected.to_bits()
            );
        }
        let shared = |id: JobId| beliefs.get(id).unwrap().shared.clone().unwrap();
        let (a, b) = (shared(JobId(0)), shared(JobId(1)));
        assert!(!a.has_bn_cache(), "w/o BN builds no BN cache");
        assert!(
            Rc::ptr_eq(&a, &b),
            "same evidence shares one posterior state"
        );
        assert_eq!(a.mi.borrow().len(), 1, "both scores fill one memo entry");
    }

    #[test]
    fn snapshot_bump_invalidates_exactly_the_affected_app() {
        let templates = all_templates();
        let corpus = training_jobs(&AppKind::ALL, 40, 9);
        let cfg = ProfileStoreConfig {
            update: ProfileUpdate::PerCompletion,
            ..ProfileStoreConfig::default()
        };
        let mut store = ProfileStore::train(&templates, &corpus, cfg);
        let w = generate_workload(WorkloadKind::Mixed, 8, 0.9, 4);
        let jobs: Vec<JobRt> = w.jobs.into_iter().map(JobRt::new).collect();
        let latency = llmsched_sim::latency::LatencyProfile::default();
        let ctx = ctx_of(&jobs, &w.templates, &latency);

        let mut beliefs = BeliefStore::new();
        beliefs.refresh(&store, &ctx, true, 0.35);
        assert!(beliefs.refresh(&store, &ctx, true, 0.35).is_empty());

        // Publish a new snapshot for exactly one app.
        let app = jobs[0].app();
        let kind = AppKind::from_app_id(app).unwrap();
        let extra = training_jobs(&[kind], 1, 77);
        assert!(store.observe_job_spec(w.templates.expect(app), &extra[0]));
        beliefs.mark_app_dirty(app);

        let changed = beliefs.refresh(&store, &ctx, true, 0.35);
        let expected: Vec<JobId> = jobs
            .iter()
            .filter(|j| j.app() == app)
            .map(|j| j.id())
            .collect();
        let mut changed = changed;
        changed.sort();
        assert_eq!(
            changed, expected,
            "only the bumped app's jobs are re-estimated"
        );
        // Their beliefs now carry the new version.
        let v = store.version(app).0;
        for id in &changed {
            assert_eq!(beliefs.get(*id).unwrap().version, v);
        }
    }
}
