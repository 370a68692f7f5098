//! The recording probe and its two export formats.
//!
//! [`TraceRecorder`] implements [`Probe`] by buffering every event (and
//! optionally feeding a [`WindowAggregator`]); after the run it renders:
//!
//! * **JSONL** ([`TraceRecorder::jsonl`]) — one self-describing JSON
//!   object per line, `"type"`-tagged, all simulation times in seconds,
//!   wall-clock in microseconds; windowed rows appended as
//!   `{"type":"window",…}`. Grep/jq-friendly.
//! * **Chrome `trace_event` JSON** ([`TraceRecorder::chrome_trace`]) —
//!   a `{"traceEvents":[…]}` document loadable in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`. Timestamps are
//!   simulation microseconds (`SimTime` ticks verbatim). Processes:
//!   pid 0 = jobs (one track per job: arrival→completion span, stage
//!   instants, queue-depth counter), pid 1 = executors (occupancy
//!   counters, routing instants), pid 2 = scheduler (invocation spans —
//!   note their `dur` is *wall-clock* µs drawn on the sim timeline, the
//!   one deliberate unit mix, so overhead is visible in situ; decision
//!   instants).

use crate::json::{escape, num};
use crate::window::{TimeSeries, WindowAggregator, WindowConfig};
use crate::{Probe, ProbeEvent};
use llmsched_dag::time::SimTime;
use llmsched_dag::work::ExecutorClass;
use std::fmt::Write as _;

/// Recorder configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceConfig {
    /// Attach a windowed aggregator, surfacing a [`TimeSeries`] on
    /// `SimResult` and `{"type":"window"}` rows in the exports.
    pub window: Option<WindowConfig>,
}

/// A [`Probe`] that records the full event stream for export.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Vec<ProbeEvent>,
    window: Option<WindowAggregator>,
}

impl TraceRecorder {
    /// Creates a recorder; pass a `window` config to also aggregate the
    /// windowed time-series.
    pub fn new(cfg: TraceConfig) -> Self {
        TraceRecorder {
            events: Vec::new(),
            window: cfg.window.map(WindowAggregator::new),
        }
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[ProbeEvent] {
        &self.events
    }

    /// Renders the stream as JSONL. `series` (as returned on
    /// `SimResult::timeseries`) appends the window rows.
    pub fn jsonl(&self, series: Option<&TimeSeries>) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for ev in &self.events {
            event_jsonl(&mut out, ev);
            out.push('\n');
        }
        if let Some(ts) = series {
            for r in &ts.rows {
                let _ = write!(
                    out,
                    concat!(
                        "{{\"type\":\"window\",\"index\":{},\"start\":{},\"end\":{},",
                        "\"arrivals\":{},\"completions\":{},\"jct_p50\":{},\"jct_p95\":{},",
                        "\"jct_p99\":{},\"slo_attainment\":{},\"goodput\":{},",
                        "\"mean_queue_depth\":{},\"regular_util\":{},\"llm_util\":{}}}"
                    ),
                    r.index,
                    num(r.start.as_secs_f64()),
                    num(r.end.as_secs_f64()),
                    r.arrivals,
                    r.completions,
                    opt(r.jct_p50),
                    opt(r.jct_p95),
                    opt(r.jct_p99),
                    num(r.slo_attainment),
                    num(r.goodput),
                    num(r.mean_queue_depth),
                    num(r.regular_util),
                    num(r.llm_util),
                );
                out.push('\n');
            }
        }
        out
    }

    /// Renders the stream as Chrome `trace_event` JSON (see module docs
    /// for the process/track layout).
    pub fn chrome_trace(&self, series: Option<&TimeSeries>) -> String {
        let mut evs: Vec<String> = Vec::with_capacity(self.events.len() + 8);
        for (pid, name) in [(0, "jobs"), (1, "executors"), (2, "scheduler")] {
            evs.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        for ev in &self.events {
            event_chrome(&mut evs, ev);
        }
        if let Some(ts) = series {
            for r in &ts.rows {
                let t = r.start.0;
                evs.push(format!(
                    "{{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":{t},\"name\":\"window\",\
                     \"args\":{{\"p99_jct_s\":{},\"slo_attainment\":{},\"goodput\":{}}}}}",
                    num(r.jct_p99.unwrap_or(0.0)),
                    num(r.slo_attainment),
                    num(r.goodput),
                ));
            }
        }
        let mut out = String::with_capacity(evs.iter().map(|e| e.len() + 2).sum::<usize>() + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in evs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(e);
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Probe for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: &ProbeEvent) {
        if let Some(w) = &mut self.window {
            w.observe(ev);
        }
        self.events.push(*ev);
    }

    fn take_timeseries(&mut self, end: SimTime) -> Option<TimeSeries> {
        self.window.take().map(|w| w.finish(end))
    }
}

fn class_str(c: ExecutorClass) -> &'static str {
    match c {
        ExecutorClass::Regular => "regular",
        ExecutorClass::Llm => "llm",
    }
}

fn opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), num)
}

fn opt_u32(v: Option<u32>) -> String {
    v.map_or_else(|| "null".to_string(), |x| x.to_string())
}

/// Writes one event's JSONL object (no trailing newline) into `out`.
fn event_jsonl(out: &mut String, ev: &ProbeEvent) {
    let kind = ev.kind();
    match *ev {
        ProbeEvent::JobArrived { at, job, app } => {
            let _ = write!(
                out,
                "{{\"type\":\"{kind}\",\"t\":{},\"job\":{},\"app\":{}}}",
                num(at.as_secs_f64()),
                job.0,
                app.0
            );
        }
        ProbeEvent::TaskDispatched {
            at,
            job,
            stage,
            task,
            class,
            exec,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"{kind}\",\"t\":{},\"job\":{},\"stage\":{},\"task\":{},\
                 \"class\":\"{}\",\"exec\":{}}}",
                num(at.as_secs_f64()),
                job.0,
                stage.0,
                task,
                class_str(class),
                opt_u32(exec)
            );
        }
        ProbeEvent::TaskFinished {
            at,
            job,
            stage,
            task,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"{kind}\",\"t\":{},\"job\":{},\"stage\":{},\"task\":{}}}",
                num(at.as_secs_f64()),
                job.0,
                stage.0,
                task
            );
        }
        ProbeEvent::StageCompleted { at, job, stage } => {
            let _ = write!(
                out,
                "{{\"type\":\"{kind}\",\"t\":{},\"job\":{},\"stage\":{}}}",
                num(at.as_secs_f64()),
                job.0,
                stage.0
            );
        }
        ProbeEvent::StageRevealed {
            at,
            job,
            stage,
            executes,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"{kind}\",\"t\":{},\"job\":{},\"stage\":{},\"executes\":{executes}}}",
                num(at.as_secs_f64()),
                job.0,
                stage.0
            );
        }
        ProbeEvent::JobCompleted { at, job, arrival } => {
            let _ = write!(
                out,
                "{{\"type\":\"{kind}\",\"t\":{},\"job\":{},\"arrival\":{},\"jct\":{}}}",
                num(at.as_secs_f64()),
                job.0,
                num(arrival.as_secs_f64()),
                num(at.since(arrival).as_secs_f64())
            );
        }
        ProbeEvent::SchedInvoked {
            at,
            seq,
            wall,
            deltas,
            folded,
            regular,
            llm,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"{kind}\",\"t\":{},\"seq\":{seq},\"wall_us\":{},\
                 \"deltas\":{deltas},\"folded\":{folded},\"regular\":{regular},\"llm\":{llm}}}",
                num(at.as_secs_f64()),
                num(wall.as_secs_f64() * 1e6)
            );
        }
        ProbeEvent::Decision(d) => {
            let _ = write!(
                out,
                "{{\"type\":\"{kind}\",\"t\":{},\"seq\":{},\"job\":{},\"stage\":{},\
                 \"list\":\"{}\",\"rank\":{},\"tasks\":{},\"evidence_mask\":{},\
                 \"profile_version\":{},\"expected_work\":{},\"interval_lo\":{},\
                 \"interval_hi\":{},\"reduction\":{}}}",
                num(d.at.as_secs_f64()),
                d.seq,
                d.job.0,
                d.stage.0,
                d.list.as_str(),
                d.rank,
                d.tasks,
                d.evidence_mask,
                d.profile_version,
                num(d.expected_work),
                num(d.interval.0),
                num(d.interval.1),
                opt(d.reduction)
            );
        }
        ProbeEvent::BatchAdmit {
            at,
            exec,
            occupancy,
            capacity,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"{kind}\",\"t\":{},\"exec\":{exec},\"occupancy\":{occupancy},\
                 \"capacity\":{capacity}}}",
                num(at.as_secs_f64())
            );
        }
        ProbeEvent::BatchDrain {
            at,
            exec,
            occupancy,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"{kind}\",\"t\":{},\"exec\":{exec},\"occupancy\":{occupancy}}}",
                num(at.as_secs_f64())
            );
        }
        ProbeEvent::Routed {
            at,
            job_index,
            exec,
            group,
            policy,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"{kind}\",\"t\":{},\"job_index\":{job_index},\"exec\":{exec},\
                 \"group\":{group},\"policy\":\"{}\"}}",
                num(at.as_secs_f64()),
                escape(policy)
            );
        }
        ProbeEvent::UtilSample {
            from,
            to,
            active,
            regular_busy,
            regular_total,
            llm_busy_slots,
            llm_slots,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"{kind}\",\"from\":{},\"to\":{},\"active\":{active},\
                 \"regular_busy\":{regular_busy},\"regular_total\":{regular_total},\
                 \"llm_busy_slots\":{llm_busy_slots},\"llm_slots\":{llm_slots}}}",
                num(from.as_secs_f64()),
                num(to.as_secs_f64())
            );
        }
    }
}

/// Appends one event's Chrome trace records to `evs`.
fn event_chrome(evs: &mut Vec<String>, ev: &ProbeEvent) {
    match *ev {
        ProbeEvent::JobArrived { at, job, .. } => {
            evs.push(format!(
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"ts\":{},\"name\":\"arrive\",\"s\":\"t\"}}",
                job.0, at.0
            ));
        }
        ProbeEvent::TaskDispatched {
            at,
            job,
            stage,
            task,
            class,
            exec,
        } => {
            evs.push(format!(
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"ts\":{},\
                 \"name\":\"dispatch s{}t{}\",\"s\":\"t\",\
                 \"args\":{{\"class\":\"{}\",\"exec\":{}}}}}",
                job.0,
                at.0,
                stage.0,
                task,
                class_str(class),
                opt_u32(exec)
            ));
        }
        ProbeEvent::TaskFinished {
            at,
            job,
            stage,
            task,
        } => {
            evs.push(format!(
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"ts\":{},\
                 \"name\":\"finish s{}t{}\",\"s\":\"t\"}}",
                job.0, at.0, stage.0, task
            ));
        }
        ProbeEvent::StageCompleted { at, job, stage } => {
            evs.push(format!(
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"ts\":{},\
                 \"name\":\"stage {} done\",\"s\":\"t\"}}",
                job.0, at.0, stage.0
            ));
        }
        ProbeEvent::StageRevealed {
            at,
            job,
            stage,
            executes,
        } => {
            evs.push(format!(
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"ts\":{},\
                 \"name\":\"reveal {} {}\",\"s\":\"t\"}}",
                job.0,
                at.0,
                stage.0,
                if executes { "run" } else { "void" }
            ));
        }
        ProbeEvent::JobCompleted { at, job, arrival } => {
            evs.push(format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"name\":\"job {}\",\"cat\":\"job\"}}",
                job.0,
                arrival.0,
                at.since(arrival).0,
                job.0
            ));
        }
        ProbeEvent::SchedInvoked {
            at,
            seq,
            wall,
            deltas,
            folded,
            regular,
            llm,
        } => {
            evs.push(format!(
                "{{\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":{},\"dur\":{},\
                 \"name\":\"schedule#{seq}\",\"cat\":\"sched\",\
                 \"args\":{{\"deltas\":{deltas},\"folded\":{folded},\
                 \"regular\":{regular},\"llm\":{llm}}}}}",
                at.0,
                wall.as_micros()
            ));
        }
        ProbeEvent::Decision(d) => {
            evs.push(format!(
                "{{\"ph\":\"i\",\"pid\":2,\"tid\":0,\"ts\":{},\
                 \"name\":\"pick job {} ({})\",\"s\":\"t\",\
                 \"args\":{{\"stage\":{},\"rank\":{},\"evidence_mask\":{},\
                 \"profile_version\":{},\"expected_work\":{},\"reduction\":{}}}}}",
                d.at.0,
                d.job.0,
                d.list.as_str(),
                d.stage.0,
                d.rank,
                d.evidence_mask,
                d.profile_version,
                num(d.expected_work),
                opt(d.reduction)
            ));
        }
        ProbeEvent::BatchAdmit {
            at,
            exec,
            occupancy,
            ..
        }
        | ProbeEvent::BatchDrain {
            at,
            exec,
            occupancy,
        } => {
            evs.push(format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{},\"name\":\"exec{exec}_occ\",\
                 \"args\":{{\"occ\":{occupancy}}}}}",
                at.0
            ));
        }
        ProbeEvent::Routed {
            at,
            job_index,
            exec,
            group,
            policy,
        } => {
            evs.push(format!(
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{exec},\"ts\":{},\
                 \"name\":\"route j{job_index} g{group} ({})\",\"s\":\"t\"}}",
                at.0,
                escape(policy)
            ));
        }
        ProbeEvent::UtilSample {
            from,
            active,
            regular_busy,
            llm_busy_slots,
            ..
        } => {
            evs.push(format!(
                "{{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":{},\"name\":\"queue_depth\",\
                 \"args\":{{\"jobs\":{active}}}}}",
                from.0
            ));
            evs.push(format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{},\"name\":\"busy\",\
                 \"args\":{{\"regular\":{regular_busy},\"llm_slots\":{llm_busy_slots}}}}}",
                from.0
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::{DecisionList, DecisionRecord};
    use llmsched_dag::ids::{AppId, JobId, StageId};
    use llmsched_dag::time::SimDuration;
    use std::time::Duration;

    fn sample_recorder() -> TraceRecorder {
        let mut rec = TraceRecorder::new(TraceConfig {
            window: Some(WindowConfig::new(
                SimDuration::from_secs(1),
                SimDuration::from_secs(2),
            )),
        });
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_secs_f64(0.5);
        let t2 = SimTime::from_secs_f64(1.5);
        rec.record(&ProbeEvent::JobArrived {
            at: t0,
            job: JobId(7),
            app: AppId(1),
        });
        rec.record(&ProbeEvent::SchedInvoked {
            at: t0,
            seq: 0,
            wall: Duration::from_micros(42),
            deltas: 1,
            folded: 0,
            regular: 1,
            llm: 2,
        });
        rec.record(&ProbeEvent::Decision(DecisionRecord {
            at: t0,
            seq: 0,
            job: JobId(7),
            stage: StageId(0),
            list: DecisionList::Explore,
            rank: 0,
            tasks: 2,
            evidence_mask: 0b101,
            profile_version: 3,
            expected_work: 1.25,
            interval: (0.5, 2.0),
            reduction: Some(0.75),
        }));
        rec.record(&ProbeEvent::TaskDispatched {
            at: t0,
            job: JobId(7),
            stage: StageId(0),
            task: 0,
            class: ExecutorClass::Llm,
            exec: Some(3),
        });
        rec.record(&ProbeEvent::BatchAdmit {
            at: t0,
            exec: 3,
            occupancy: 1,
            capacity: 8,
        });
        rec.record(&ProbeEvent::Routed {
            at: t0,
            job_index: 0,
            exec: 3,
            group: 1,
            policy: "jsq",
        });
        rec.record(&ProbeEvent::UtilSample {
            from: t0,
            to: t1,
            active: 1,
            regular_busy: 0,
            regular_total: 2,
            llm_busy_slots: 1,
            llm_slots: 8,
        });
        rec.record(&ProbeEvent::TaskFinished {
            at: t1,
            job: JobId(7),
            stage: StageId(0),
            task: 0,
        });
        rec.record(&ProbeEvent::BatchDrain {
            at: t1,
            exec: 3,
            occupancy: 0,
        });
        rec.record(&ProbeEvent::StageCompleted {
            at: t1,
            job: JobId(7),
            stage: StageId(0),
        });
        rec.record(&ProbeEvent::StageRevealed {
            at: t1,
            job: JobId(7),
            stage: StageId(1),
            executes: false,
        });
        rec.record(&ProbeEvent::UtilSample {
            from: t1,
            to: t2,
            active: 1,
            regular_busy: 1,
            regular_total: 2,
            llm_busy_slots: 0,
            llm_slots: 8,
        });
        rec.record(&ProbeEvent::JobCompleted {
            at: t2,
            job: JobId(7),
            arrival: t0,
        });
        rec
    }

    #[test]
    fn jsonl_lines_are_valid_json_with_type_tags() {
        let mut rec = sample_recorder();
        let series = rec.take_timeseries(SimTime::from_secs_f64(1.5));
        let out = rec.jsonl(series.as_ref());
        let lines: Vec<&str> = out.lines().collect();
        // 13 events + 2 window rows.
        assert_eq!(lines.len(), 15);
        for line in &lines {
            validate(line).unwrap_or_else(|e| panic!("bad JSONL line {line}: {e}"));
            assert!(line.starts_with("{\"type\":\""), "missing tag: {line}");
        }
        assert!(out.contains("\"type\":\"decision\""));
        assert!(out.contains("\"evidence_mask\":5"));
        assert!(out.contains("\"type\":\"window\""));
        assert!(out.contains("\"jct_p99\":"));
        assert!(out.contains("\"goodput\":"));
        assert!(out.contains("\"slo_attainment\":"));
    }

    #[test]
    fn chrome_trace_is_valid_and_perfetto_shaped() {
        let mut rec = sample_recorder();
        let series = rec.take_timeseries(SimTime::from_secs_f64(1.5));
        let out = rec.chrome_trace(series.as_ref());
        validate(&out).unwrap_or_else(|e| panic!("bad chrome trace: {e}"));
        assert!(out.starts_with("{\"traceEvents\":["));
        for needle in [
            "\"ph\":\"M\"", // process metadata
            "\"ph\":\"X\"", // spans (job / scheduler)
            "\"ph\":\"i\"", // instants
            "\"ph\":\"C\"", // counters
            "\"name\":\"schedule#0\"",
            "\"name\":\"queue_depth\"",
            "\"name\":\"window\"",
        ] {
            assert!(out.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn recorder_take_timeseries_is_one_shot() {
        let mut rec = sample_recorder();
        assert!(rec.take_timeseries(SimTime::from_secs_f64(1.5)).is_some());
        assert!(rec.take_timeseries(SimTime::from_secs_f64(1.5)).is_none());
        assert_eq!(rec.events().len(), 13);
    }
}
