//! Request routing across cluster replicas.
//!
//! A [`Router`] answers one question at admission time: *which replica
//! should this request join?* It sees only what a production frontend
//! sees — per-replica occupancy, capacity and queued decode work
//! ([`ReplicaView`]) plus the request's job id and token estimate
//! ([`RouteRequest`]) — never hidden job structure, so routing policies sit
//! on the same information footing as schedulers.
//!
//! Three policies ship, selected by the [`RoutingPolicy`] enum so specs
//! stay plain data:
//!
//! * [`LeastLoaded`] — fewest occupied batch slots (the paper's balancer,
//!   generalized to heterogeneous capacities by breaking ties on free
//!   slots);
//! * [`JoinShortestQueue`] — least queued decode work in tokens, the
//!   classic JSQ policy at token granularity;
//! * [`SessionAffinity`] — requests of one job hash to a home replica
//!   (KV-cache / prefix-cache reuse), spilling to the least-loaded
//!   replica only when the home replica is full.

/// What a router may observe about one replica at a decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaView {
    /// Replica index in the backend's flat executor table.
    pub index: usize,
    /// Replica-group index the replica belongs to.
    pub group: usize,
    /// Occupied batch slots (running or staged requests).
    pub occupancy: usize,
    /// Maximum batch slots.
    pub capacity: usize,
    /// Decode tokens admitted and not yet finished — the queue length JSQ
    /// minimizes.
    pub pending_tokens: u64,
}

impl ReplicaView {
    /// Free batch slots.
    pub fn free_slots(&self) -> usize {
        self.capacity.saturating_sub(self.occupancy)
    }

    /// True if the replica can admit one more request.
    pub fn has_room(&self) -> bool {
        self.occupancy < self.capacity
    }
}

/// The routed request: everything a frontend knows about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRequest {
    /// Dense job index (stable for the job's lifetime — the affinity key).
    pub job: u64,
    /// Estimated decode tokens of the request.
    pub tokens: u64,
}

/// A request-routing policy over cluster replicas.
pub trait Router: std::fmt::Debug {
    /// Short policy name, used in reports (e.g. `"jsq"`).
    fn name(&self) -> &'static str;

    /// Picks the replica `req` should join, or `None` if every replica is
    /// full. `views` covers all serving replicas in index order.
    fn route(&mut self, views: &[ReplicaView], req: RouteRequest) -> Option<usize>;
}

/// Fewest occupied batch slots, ties broken by more free slots then lower
/// index — so a big idle replica beats a small idle one.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl Router for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn route(&mut self, views: &[ReplicaView], _req: RouteRequest) -> Option<usize> {
        views
            .iter()
            .filter(|v| v.has_room())
            .min_by_key(|v| (v.occupancy, std::cmp::Reverse(v.free_slots()), v.index))
            .map(|v| v.index)
    }
}

/// Join-shortest-queue at token granularity: the replica with the least
/// queued decode work that still has a free slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinShortestQueue;

impl Router for JoinShortestQueue {
    fn name(&self) -> &'static str {
        "jsq"
    }

    fn route(&mut self, views: &[ReplicaView], _req: RouteRequest) -> Option<usize> {
        views
            .iter()
            .filter(|v| v.has_room())
            .min_by_key(|v| (v.pending_tokens, v.occupancy, v.index))
            .map(|v| v.index)
    }
}

/// Session affinity: a job's requests hash to a home replica for KV/prefix
/// cache reuse, spilling least-loaded when the home replica is full.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionAffinity;

/// Fibonacci-hash of a job id onto `n` replicas (avalanches well for the
/// dense 0,1,2,… ids jobs actually carry).
fn home_replica(job: u64, n: usize) -> usize {
    (job.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n
}

impl Router for SessionAffinity {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn route(&mut self, views: &[ReplicaView], req: RouteRequest) -> Option<usize> {
        if views.is_empty() {
            return None;
        }
        let home = &views[home_replica(req.job, views.len())];
        if home.has_room() {
            return Some(home.index);
        }
        LeastLoaded.route(views, req)
    }
}

/// Routing-policy selector: keeps [`crate::ClusterSpec`] plain data while
/// [`build`](RoutingPolicy::build) yields the trait object backends drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingPolicy {
    /// [`LeastLoaded`].
    #[default]
    LeastLoaded,
    /// [`JoinShortestQueue`].
    JoinShortestQueue,
    /// [`SessionAffinity`].
    SessionAffinity,
}

impl RoutingPolicy {
    /// All shipped policies, in presentation order.
    pub const ALL: [RoutingPolicy; 3] = [
        RoutingPolicy::LeastLoaded,
        RoutingPolicy::JoinShortestQueue,
        RoutingPolicy::SessionAffinity,
    ];

    /// The policy's display name (matches [`Router::name`]).
    pub fn name(self) -> &'static str {
        match self {
            RoutingPolicy::LeastLoaded => "least-loaded",
            RoutingPolicy::JoinShortestQueue => "jsq",
            RoutingPolicy::SessionAffinity => "affinity",
        }
    }

    /// Builds the router implementing this policy.
    pub fn build(self) -> Box<dyn Router> {
        match self {
            RoutingPolicy::LeastLoaded => Box::new(LeastLoaded),
            RoutingPolicy::JoinShortestQueue => Box::new(JoinShortestQueue),
            RoutingPolicy::SessionAffinity => Box::new(SessionAffinity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(index: usize, occupancy: usize, capacity: usize, pending: u64) -> ReplicaView {
        ReplicaView {
            index,
            group: 0,
            occupancy,
            capacity,
            pending_tokens: pending,
        }
    }

    fn req(job: u64) -> RouteRequest {
        RouteRequest { job, tokens: 100 }
    }

    #[test]
    fn least_loaded_prefers_fewest_slots_then_biggest_replica() {
        let views = [view(0, 2, 4, 0), view(1, 1, 2, 0), view(2, 1, 8, 0)];
        // Replicas 1 and 2 tie on occupancy; 2 has more free slots.
        assert_eq!(LeastLoaded.route(&views, req(0)), Some(2));
    }

    #[test]
    fn full_replicas_are_never_routed_to() {
        let views = [view(0, 4, 4, 0), view(1, 2, 2, 0)];
        assert_eq!(LeastLoaded.route(&views, req(0)), None);
        assert_eq!(JoinShortestQueue.route(&views, req(0)), None);
        assert_eq!(SessionAffinity.route(&views, req(0)), None);
    }

    #[test]
    fn jsq_minimizes_pending_tokens_not_occupancy() {
        // Replica 0 holds one huge request, replica 1 three small ones.
        let views = [view(0, 1, 4, 5000), view(1, 3, 4, 90)];
        assert_eq!(JoinShortestQueue.route(&views, req(0)), Some(1));
        // Least-loaded disagrees: it only counts slots.
        assert_eq!(LeastLoaded.route(&views, req(0)), Some(0));
    }

    #[test]
    fn affinity_is_sticky_per_job_and_spills_when_full() {
        let views = [view(0, 0, 4, 0), view(1, 0, 4, 0), view(2, 0, 4, 0)];
        let mut aff = SessionAffinity;
        let home = aff.route(&views, req(7)).unwrap();
        // Same job always lands on the same replica…
        for _ in 0..5 {
            assert_eq!(aff.route(&views, req(7)), Some(home));
        }
        // …until its home fills up, then it spills to the least loaded.
        let mut full = views;
        full[home].occupancy = full[home].capacity;
        full[(home + 1) % 3].occupancy = 2;
        let spilled = aff.route(&full, req(7)).unwrap();
        assert_ne!(spilled, home);
        assert_eq!(spilled, (home + 2) % 3);
    }

    #[test]
    fn affinity_spreads_distinct_jobs() {
        let views: Vec<ReplicaView> = (0..8).map(|i| view(i, 0, 4, 0)).collect();
        let mut aff = SessionAffinity;
        let homes: std::collections::BTreeSet<usize> = (0..64)
            .map(|j| aff.route(&views, req(j)).unwrap())
            .collect();
        assert!(
            homes.len() >= 6,
            "64 jobs over 8 replicas should hit most replicas, got {homes:?}"
        );
    }

    #[test]
    fn policy_enum_builds_matching_router() {
        for p in RoutingPolicy::ALL {
            assert_eq!(p.build().name(), p.name());
        }
        assert_eq!(RoutingPolicy::default(), RoutingPolicy::LeastLoaded);
    }
}
