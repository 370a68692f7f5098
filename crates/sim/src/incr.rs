//! Incremental-scheduling toolkit: a delta-maintained ordered job index
//! and an estimate cache, for policies whose per-call cost they measurably
//! cut.
//!
//! The pieces compose into one pattern (see `DESIGN.md` §7):
//!
//! 1. [`Scheduler::on_delta`](crate::scheduler::Scheduler::on_delta) marks
//!    jobs whose key may have changed (and removes completed jobs);
//! 2. at the top of `schedule`, the policy *refreshes* the structure —
//!    only dirty jobs have their keys recomputed (and, for an index,
//!    repositioned: O(changes · log n) instead of an O(n log n) sort);
//! 3. the policy then reads keys or iterates the index in key order.
//!
//! Users, and the measurement that keeps each (Mixed mix, analytic
//! backend, seed 7, 300 jobs at λ = 0.9 on the default cluster and
//! 3,000 jobs at λ = 24 on a 48× cluster, 2-hardware-thread host):
//!
//! * [`DeltaIndex`]: SJF and SRTF, whose keys rarely move. Sorting per
//!   call instead made SJF 1.5–1.6× slower, and SRTF, which then also
//!   recomputes every remaining-work estimate, 4.3–5.9× slower. FCFS,
//!   Fair, Argus and Carbyne sort per call: for them the index was no
//!   faster than the sort.
//! * [`EstimateCache`]: Decima and Carbyne, whose remaining-work estimate
//!   walks a job's whole template. Uncached, Decima is 8.5× slower at
//!   300 jobs.
//! * [`OrderedJobs`]: the order inside [`DeltaIndex`]. LLMSched keeps its
//!   own indices, whose entries also carry what its walks read (the
//!   interval's upper bound, the ready-stage count).
//!
//! A count-mismatch safety net (`refresh` compares the structure's size
//! against the context's job count) rebuilds it whole when a context was
//! built outside the engine's delta stream (hand-built test contexts,
//! wrappers that forget to forward `on_delta` after a membership change).

use std::collections::{BTreeSet, HashMap, HashSet};

use llmsched_dag::ids::JobId;

use crate::scheduler::{SchedContext, SchedDelta};
use crate::state::JobRt;

/// A totally ordered `f64` sort key.
///
/// Scheduling keys are always finite (duration estimates, historical
/// means); comparing panics on NaN, matching the
/// `partial_cmp().expect("finite")` comparators the sorted-vector paths
/// use.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FiniteF64(pub f64);

impl Eq for FiniteF64 {}

impl PartialOrd for FiniteF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FiniteF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite scheduling key")
    }
}

/// A persistent job index ordered by `(key, JobId)` — the incremental
/// replacement for `sort_by_key(|j| (key(j), j.id()))` over the context's
/// job list.
#[derive(Debug, Clone, Default)]
pub struct OrderedJobs<K: Ord + Copy> {
    order: BTreeSet<(K, JobId)>,
    keys: HashMap<JobId, K>,
}

impl<K: Ord + Copy> OrderedJobs<K> {
    /// An empty index.
    pub fn new() -> Self {
        OrderedJobs {
            order: BTreeSet::new(),
            keys: HashMap::new(),
        }
    }

    /// Number of indexed jobs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no jobs are indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.order.clear();
        self.keys.clear();
    }

    /// Inserts `job` or repositions it under a new key: O(log n).
    pub fn upsert(&mut self, job: JobId, key: K) {
        if let Some(old) = self.keys.insert(job, key) {
            if old == key {
                return;
            }
            self.order.remove(&(old, job));
        }
        self.order.insert((key, job));
    }

    /// Removes `job` if present: O(log n).
    pub fn remove(&mut self, job: JobId) {
        if let Some(k) = self.keys.remove(&job) {
            self.order.remove(&(k, job));
        }
    }

    /// The current key of `job`, if indexed.
    pub fn key(&self, job: JobId) -> Option<&K> {
        self.keys.get(&job)
    }

    /// Job ids in ascending `(key, JobId)` order.
    pub fn ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.order.iter().map(|&(_, j)| j)
    }
}

/// [`OrderedJobs`] plus delta-driven dirtiness tracking: the standard
/// scaffolding for an incremental baseline scheduler.
#[derive(Debug, Clone, Default)]
pub struct DeltaIndex<K: Ord + Copy> {
    jobs: OrderedJobs<K>,
    dirty: HashSet<JobId>,
}

impl<K: Ord + Copy> DeltaIndex<K> {
    /// An empty index.
    pub fn new() -> Self {
        DeltaIndex {
            jobs: OrderedJobs::new(),
            dirty: HashSet::new(),
        }
    }

    /// Drops everything (for [`Scheduler::reset`](crate::scheduler::Scheduler::reset)).
    pub fn clear(&mut self) {
        self.jobs.clear();
        self.dirty.clear();
    }

    /// Marks a job's key stale; its key is recomputed at the next
    /// [`DeltaIndex::refresh`]. Also how arrivals enter the index.
    pub fn mark(&mut self, job: JobId) {
        self.dirty.insert(job);
    }

    /// Evicts a completed job.
    pub fn complete(&mut self, job: JobId) {
        self.jobs.remove(job);
        self.dirty.remove(&job);
    }

    /// Standard delta routing: arrivals and `changes`-selected deltas mark
    /// the job dirty, completions evict. Policies with bespoke needs can
    /// route deltas themselves via [`DeltaIndex::mark`] /
    /// [`DeltaIndex::complete`].
    pub fn on_delta(&mut self, delta: &SchedDelta, changes_key: impl Fn(&SchedDelta) -> bool) {
        match delta {
            SchedDelta::JobArrived { job, .. } => self.mark(*job),
            SchedDelta::JobCompleted { job } => self.complete(*job),
            d if changes_key(d) => self.mark(d.job()),
            _ => {}
        }
    }

    /// Brings the index in sync with `ctx`: recomputes keys of dirty jobs
    /// (dropping any that are no longer active), then falls back to a full
    /// rebuild if the index does not cover exactly the context's jobs —
    /// the safety net for contexts built outside the engine's delta
    /// stream.
    pub fn refresh(&mut self, ctx: &SchedContext<'_>, mut key: impl FnMut(&JobRt) -> K) {
        for id in std::mem::take(&mut self.dirty) {
            match ctx.job(id) {
                Some(job) => self.jobs.upsert(id, key(job)),
                None => self.jobs.remove(id),
            }
        }
        if self.jobs.len() != ctx.jobs.len() {
            self.jobs.clear();
            for job in &ctx.jobs {
                self.jobs.upsert(job.id(), key(job));
            }
        }
    }

    /// The synchronized ordered index (call [`DeltaIndex::refresh`] first).
    pub fn jobs(&self) -> &OrderedJobs<K> {
        &self.jobs
    }
}

/// A delta-maintained per-job `f64` estimate cache (no ordering) — for
/// policies that fold over the context's job list but want the
/// per-job estimate recomputed only when that job actually changed.
///
/// Entries are implicitly keyed by a *generation* counter: estimate
/// sources that can change wholesale (an online-updated profile snapshot,
/// a re-trained predictor) call [`EstimateCache::bump_generation`] when
/// they publish, which invalidates every cached value at once without the
/// policy having to enumerate jobs. Static sources (historical priors)
/// never bump and pay nothing.
#[derive(Debug, Clone, Default)]
pub struct EstimateCache {
    est: HashMap<JobId, f64>,
    dirty: HashSet<JobId>,
    generation: u64,
}

impl EstimateCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.est.clear();
        self.dirty.clear();
    }

    /// The generation the cached estimates belong to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Declares every cached estimate stale (the estimate source itself
    /// changed — e.g. a new profile snapshot was published) and advances
    /// the generation. The next [`EstimateCache::refresh`] recomputes all
    /// entries; per-job delta tracking resumes from there.
    pub fn bump_generation(&mut self) {
        self.est.clear();
        self.dirty.clear();
        self.generation += 1;
    }

    /// Standard delta routing: arrivals and stage completions dirty the
    /// estimate, completions evict it.
    pub fn on_delta(&mut self, delta: &SchedDelta) {
        match delta {
            SchedDelta::JobArrived { job, .. } | SchedDelta::StageCompleted { job, .. } => {
                self.dirty.insert(*job);
            }
            SchedDelta::JobCompleted { job } => {
                self.est.remove(job);
                self.dirty.remove(job);
            }
            _ => {}
        }
    }

    /// Recomputes dirty estimates, with the same count-mismatch rebuild
    /// safety net as [`DeltaIndex::refresh`].
    pub fn refresh(&mut self, ctx: &SchedContext<'_>, mut estimate: impl FnMut(&JobRt) -> f64) {
        for id in std::mem::take(&mut self.dirty) {
            match ctx.job(id) {
                Some(job) => {
                    self.est.insert(id, estimate(job));
                }
                None => {
                    self.est.remove(&id);
                }
            }
        }
        if self.est.len() != ctx.jobs.len() {
            self.est.clear();
            for job in &ctx.jobs {
                self.est.insert(job.id(), estimate(job));
            }
        }
    }

    /// The cached estimate of `job` (refresh first; jobs absent from the
    /// synchronizing context report 0).
    pub fn get(&self, job: JobId) -> f64 {
        self.est.get(&job).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_key_orders_like_partial_cmp() {
        let mut v = vec![FiniteF64(3.0), FiniteF64(-1.0), FiniteF64(0.5)];
        v.sort();
        assert_eq!(v, vec![FiniteF64(-1.0), FiniteF64(0.5), FiniteF64(3.0)]);
    }

    #[test]
    #[should_panic(expected = "finite scheduling key")]
    fn nan_key_panics() {
        let _ = FiniteF64(f64::NAN).cmp(&FiniteF64(0.0));
    }

    #[test]
    fn ordered_jobs_upsert_repositions() {
        let mut idx = OrderedJobs::new();
        idx.upsert(JobId(1), FiniteF64(5.0));
        idx.upsert(JobId(2), FiniteF64(1.0));
        idx.upsert(JobId(3), FiniteF64(3.0));
        assert_eq!(
            idx.ids().collect::<Vec<_>>(),
            [JobId(2), JobId(3), JobId(1)]
        );
        // Reposition job 1 to the front; same-key upsert is a no-op.
        idx.upsert(JobId(1), FiniteF64(0.0));
        idx.upsert(JobId(3), FiniteF64(3.0));
        assert_eq!(
            idx.ids().collect::<Vec<_>>(),
            [JobId(1), JobId(2), JobId(3)]
        );
        idx.remove(JobId(2));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.key(JobId(2)), None);
    }

    #[test]
    fn estimate_cache_generation_invalidates_everything() {
        let mut c = EstimateCache::new();
        assert_eq!(c.generation(), 0);
        c.est.insert(JobId(1), 5.0);
        c.est.insert(JobId(2), 7.0);
        c.bump_generation();
        assert_eq!(c.generation(), 1);
        assert_eq!(c.get(JobId(1)), 0.0, "bumped generation drops estimates");
        assert_eq!(c.get(JobId(2)), 0.0);
    }

    #[test]
    fn ordered_jobs_ties_break_by_job_id() {
        let mut idx = OrderedJobs::new();
        idx.upsert(JobId(9), FiniteF64(1.0));
        idx.upsert(JobId(4), FiniteF64(1.0));
        assert_eq!(idx.ids().collect::<Vec<_>>(), [JobId(4), JobId(9)]);
    }
}
