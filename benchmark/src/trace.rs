//! An in-memory span recorder for the traced run.
//!
//! Spans form a tree `workload → setup | op#i → job#j → stage#k` (and
//! `probe` spans beside them). Op and probe spans are timed by the
//! benchmark around the public call. Job and stage spans are rebuilt after
//! each op from the scheduler's own `JobReport`s: the reports carry
//! durations but no timestamps, so a job is placed at the end of the job
//! before it and a stage at the end of the stage before it — the durations
//! are the system's, the placement is the benchmark's. Spans are kept in memory
//! and written out once, when the run ends.

use crate::json::Value;
use spangle_dataflow::JobReport;
use std::time::{Duration, Instant};

pub type SpanId = usize;

struct Span {
    parent: Option<SpanId>,
    name: String,
    start: Duration,
    end: Duration,
    attrs: Vec<(&'static str, Value)>,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now; [`Recorder::close`] ends it.
    pub fn open(&mut self, parent: Option<SpanId>, name: impl Into<String>) -> SpanId {
        let now = self.origin.elapsed();
        self.push(parent, name.into(), now, now, Vec::new())
    }

    /// `instant` on the recorder's clock.
    pub fn at(&self, instant: Instant) -> Duration {
        instant.saturating_duration_since(self.origin)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.origin.elapsed();
    }

    pub fn set(&mut self, id: SpanId, key: &'static str, value: Value) {
        self.spans[id].attrs.push((key, value));
    }

    /// Start of a span, for placing reconstructed children.
    pub fn start_of(&self, id: SpanId) -> Duration {
        self.spans[id].start
    }

    fn push(
        &mut self,
        parent: Option<SpanId>,
        name: String,
        start: Duration,
        end: Duration,
        attrs: Vec<(&'static str, Value)>,
    ) -> SpanId {
        self.spans.push(Span {
            parent,
            name,
            start,
            end,
            attrs,
        });
        self.spans.len() - 1
    }

    /// Adds a finished child span of known duration at `start`.
    pub fn add(
        &mut self,
        parent: SpanId,
        name: impl Into<String>,
        start: Duration,
        duration: Duration,
    ) -> SpanId {
        self.push(
            Some(parent),
            name.into(),
            start,
            start + duration,
            Vec::new(),
        )
    }

    /// Rebuilds the job and stage spans of one op from its reports, laid
    /// end to end from the op's start.
    pub fn add_jobs(&mut self, op: SpanId, reports: &[JobReport]) {
        let mut cursor = self.start_of(op);
        for report in reports {
            let wall = Duration::from_nanos(report.wall_nanos);
            let job = self.add(op, format!("job#{}", report.job_id), cursor, wall);
            let nanos = |n: u64| Value::Num(n as f64);
            self.spans[job].attrs = vec![
                ("outcome", Value::str(format!("{:?}", report.outcome))),
                ("queue_wait_ns", nanos(report.queue_wait_nanos)),
                ("admission_wait_ns", nanos(report.admission_wait_nanos)),
                (
                    "executor_busy_ns",
                    Value::Arr(
                        report
                            .executor_busy_nanos
                            .iter()
                            .map(|n| nanos(*n))
                            .collect(),
                    ),
                ),
                ("placement", Value::str("reconstructed")),
            ];
            let mut stage_cursor = cursor;
            for stage in &report.stages {
                let stage_wall = Duration::from_nanos(stage.wall_nanos);
                let id = self.add(
                    job,
                    format!("stage#{}", stage.stage_id),
                    stage_cursor,
                    stage_wall,
                );
                stage_cursor += stage_wall;
                self.spans[id].attrs = vec![
                    ("outcome", Value::str(format!("{:?}", stage.outcome))),
                    ("tasks", Value::Num(stage.num_tasks as f64)),
                    ("task_ns", nanos(stage.task_nanos)),
                    ("tasks_stolen", Value::Num(stage.tasks_stolen as f64)),
                ];
            }
            cursor += wall;
        }
    }

    /// Self time of a span: its duration minus what its direct children
    /// cover (children are laid end to end, so their durations add).
    pub fn self_time(&self, id: SpanId) -> Duration {
        let span = &self.spans[id];
        let covered: Duration = self
            .spans
            .iter()
            .filter(|child| child.parent == Some(id))
            .map(|child| child.end - child.start)
            .sum();
        (span.end - span.start).saturating_sub(covered)
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, span)| {
                    let mut entries = vec![
                        ("id".to_string(), Value::Num(id as f64)),
                        (
                            "parent".to_string(),
                            span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("name".to_string(), Value::str(span.name.clone())),
                        (
                            "start_ns".to_string(),
                            Value::Num(span.start.as_nanos() as f64),
                        ),
                        ("end_ns".to_string(), Value::Num(span.end.as_nanos() as f64)),
                    ];
                    entries.extend(span.attrs.iter().map(|(k, v)| (k.to_string(), v.clone())));
                    Value::Obj(entries)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new();
        let op = rec.open(None, "op#0");
        rec.spans[op].end = Duration::from_millis(10);
        let at = rec.start_of(op);
        let job = rec.add(op, "job#0", at, Duration::from_millis(4));
        rec.add(
            op,
            "job#1",
            at + Duration::from_millis(4),
            Duration::from_millis(3),
        );
        rec.add(job, "stage#0", at, Duration::from_millis(4));
        assert_eq!(
            rec.self_time(op),
            Duration::from_millis(10) - at - Duration::from_millis(7)
        );
        assert_eq!(rec.self_time(job), Duration::ZERO);
        let json = rec.to_json();
        assert_eq!(json.as_arr().unwrap().len(), 4);
        assert_eq!(
            json.as_arr().unwrap()[1].get("parent"),
            Some(&Value::Num(0.0))
        );
    }
}
