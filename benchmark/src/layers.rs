//! Per-layer measurement from outside the program: in-memory spans, a
//! timing [`Scheduler`] wrapper and a counting [`Probe`].
//!
//! Everything here observes through public hooks only. The wrapper
//! forwards every `Scheduler` hook to the policy it wraps, so a traced
//! run makes the same decisions as an untraced one; `tests.rs` pins that.

use std::time::Instant;

use llmsched_dag::ids::AppId;
use llmsched_sim::scheduler::{Preference, SchedContext, SchedDelta, Scheduler};
use llmsched_sim::telemetry::json::{escape, num};
use llmsched_sim::telemetry::{DecisionRecord, Probe, ProbeEvent};

use crate::workloads::Policy;

/// One timed interval. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified span name (`engine.simulate`, `sched.schedule`, …).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<u32>,
    /// Which repeat (or set-up/generation pass) the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span list with one clock origin.
#[derive(Debug)]
pub struct Tracer {
    /// Clock origin every span time is measured from.
    pub origin: Instant,
    /// Recorded spans, in open order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose origin is now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        nanos_since(self.origin)
    }

    /// Opens a span now; returns its index for [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, run: u32) -> u32 {
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            run,
        });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Closes span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: u32) -> f64 {
        let now = self.now();
        let s = &mut self.spans[id as usize];
        s.end = now;
        s.dur() as f64 * 1e-9
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        run: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, run);
        let out = f();
        (out, self.close(id))
    }
}

fn nanos_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Totals per span name of self time: each span's duration minus the
/// part of it its child spans cover. `spans` starts at index `offset` of
/// the list its parent indices point into (parents before it are
/// ignored). Returns `(name, total self ns)` in first-seen order.
pub fn self_times(spans: &[Span], offset: usize) -> Vec<(&'static str, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = s
            .parent
            .and_then(|p| (p as usize).checked_sub(offset))
            .and_then(|p| children.get_mut(p))
        {
            kids.push((s.start, s.end));
        }
    }
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start);
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = s.dur().saturating_sub(covered);
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => totals.push((s.name, own)),
        }
    }
    totals
}

/// The spans as a Chrome `trace_event` document (complete `X` events,
/// µs timestamps; `tid` is the run id). Spans named in `sampled` are
/// written every `stride`-th only, so a long run stays loadable; self
/// times are computed from the full in-memory list.
pub fn chrome_trace(
    spans: &[Span],
    sampled: &[&str],
    stride: usize,
    meta: &[(&str, String)],
) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut seen = 0usize;
    for (i, s) in spans.iter().enumerate() {
        if sampled.contains(&s.name) {
            seen += 1;
            if !(seen - 1).is_multiple_of(stride.max(1)) {
                continue;
            }
        }
        if !first {
            out.push(',');
        }
        first = false;
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{}}}}}",
            escape(s.name),
            num(s.start as f64 / 1e3),
            num(s.dur() as f64 / 1e3),
            s.run,
            s.run
        ));
    }
    out.push_str("],\"otherData\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":\"{}\"", escape(k), escape(v)));
    }
    out.push_str(&format!(",\"sched_span_stride\":\"{}\"}}}}", stride.max(1)));
    out
}

/// Counters the [`Timed`] wrapper keeps over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedStats {
    /// `schedule` calls.
    pub calls: u64,
    /// `on_delta` calls.
    pub deltas: u64,
    /// Wall ns inside `schedule`.
    pub schedule_ns: u64,
    /// Wall ns inside delta batches (first `on_delta` start to last end).
    pub on_delta_ns: u64,
    /// Task refs returned across all preferences.
    pub refs_offered: u64,
    /// Calls that returned an empty preference.
    pub empty: u64,
    /// Invocations (delta batch + `schedule`) across which the policy's
    /// Σ profile version changed.
    pub refit_calls: u64,
    /// Wall ns of those invocations.
    pub refit_ns: u64,
}

/// A timing wrapper: records a `sched.schedule` span per call and one
/// `sched.on_delta` span per delta batch, and forwards every hook.
#[derive(Debug)]
pub struct Timed {
    /// The wrapped policy.
    pub inner: Policy,
    /// Counters over the current run.
    pub stats: SchedStats,
    /// Recorded spans (parented to `parent`).
    pub spans: Vec<Span>,
    apps: Vec<AppId>,
    origin: Instant,
    parent: u32,
    run: u32,
    batch_start: Option<u64>,
    batch_end: u64,
    versions: u64,
    initial_versions: u64,
}

impl Timed {
    /// Wraps `inner`; spans go under span `parent` of run `run`, timed
    /// from `origin`. `apps` are the apps whose profile versions count.
    pub fn new(inner: Policy, apps: Vec<AppId>, origin: Instant, parent: u32, run: u32) -> Self {
        let versions = inner.store_versions(&apps);
        Timed {
            inner,
            stats: SchedStats::default(),
            spans: Vec::new(),
            apps,
            origin,
            parent,
            run,
            batch_start: None,
            batch_end: 0,
            versions,
            initial_versions: versions,
        }
    }

    /// Profile versions the policy published since the run started.
    pub fn published(&self) -> u64 {
        self.versions - self.initial_versions
    }

    fn span(&mut self, name: &'static str, start: u64, end: u64) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(self.parent),
            run: self.run,
        });
    }
}

impl Scheduler for Timed {
    fn name(&self) -> &str {
        self.inner.as_sched_ref().name()
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
        let t0 = nanos_since(self.origin);
        let pref = self.inner.as_sched().schedule(ctx);
        let t1 = nanos_since(self.origin);
        let mut invocation = t1 - t0;
        if let Some(start) = self.batch_start.take() {
            let end = self.batch_end;
            self.span("sched.on_delta", start, end);
            self.stats.on_delta_ns += end - start;
            invocation += end - start;
        }
        self.span("sched.schedule", t0, t1);
        self.stats.calls += 1;
        self.stats.schedule_ns += t1 - t0;
        self.stats.refs_offered += pref.len() as u64;
        self.stats.empty += u64::from(pref.is_empty());
        let versions = self.inner.store_versions(&self.apps);
        if versions != self.versions {
            self.versions = versions;
            self.stats.refit_calls += 1;
            self.stats.refit_ns += invocation;
        }
        pref
    }

    fn on_delta(&mut self, delta: &SchedDelta) {
        if self.batch_start.is_none() {
            self.batch_start = Some(nanos_since(self.origin));
        }
        self.inner.as_sched().on_delta(delta);
        self.batch_end = nanos_since(self.origin);
        self.stats.deltas += 1;
    }

    fn reset(&mut self) {
        self.inner.as_sched().reset();
        self.versions = self.inner.store_versions(&self.apps);
        self.initial_versions = self.versions;
    }

    fn set_telemetry(&mut self, enabled: bool) {
        self.inner.as_sched().set_telemetry(enabled);
    }

    fn drain_provenance(&mut self, out: &mut Vec<DecisionRecord>) {
        self.inner.as_sched().drain_provenance(out);
    }

    fn is_work_conserving(&self) -> bool {
        self.inner.as_sched_ref().is_work_conserving()
    }
}

/// A probe that counts the events the per-layer metrics and the traced
/// run's checks need, and stores nothing else.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingProbe {
    /// Every event recorded.
    pub events: u64,
    /// `SchedInvoked` events.
    pub sched_invoked: u64,
    /// Σ `SchedInvoked::folded`.
    pub folded: u64,
    /// Σ `SchedInvoked::deltas`.
    pub invoked_deltas: u64,
    /// `TaskDispatched` events.
    pub dispatched: u64,
    /// `BatchAdmit` events.
    pub batch_admits: u64,
}

impl Probe for CountingProbe {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: &ProbeEvent) {
        self.events += 1;
        match *ev {
            ProbeEvent::SchedInvoked { folded, deltas, .. } => {
                self.sched_invoked += 1;
                self.folded += u64::from(folded);
                self.invoked_deltas += u64::from(deltas);
            }
            ProbeEvent::TaskDispatched { .. } => self.dispatched += 1,
            ProbeEvent::BatchAdmit { .. } => self.batch_admits += 1,
            _ => {}
        }
    }
}
