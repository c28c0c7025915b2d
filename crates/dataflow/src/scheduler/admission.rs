//! The admission controller: the gate in front of the driver's
//! running-job map.
//!
//! A job that arrives while the scheduler is saturated — job slots full,
//! with capacity scaled down while replacement executors warm up after a
//! kill, or resident cache + shuffle memory at the configured high
//! watermark — is *queued* (FIFO within its priority, released as
//! capacity frees), or *shed* with [`JobOutcome::Rejected`] when its
//! priority falls below the shed threshold or its tasks overflow the
//! per-priority queue bound. A job whose deadline passes is resolved as
//! [`JobOutcome::Deadlined`] — never admitting a queued one, aborting a
//! running one through the normal abandon path.

use super::{JobError, JobRun, TaskError};
use crate::context::SpangleContext;
use crate::metrics::{JobOutcome, MetricField};
use crate::sync::PriorityFifo;
use std::collections::HashMap;
use std::time::Instant;

/// Holds jobs the context's [`crate::context::AdmissionConfig`] bounds
/// keep out, in FIFO order within each priority, and releases them as
/// capacity frees.
pub(super) struct AdmissionController {
    pub(super) queue: PriorityFifo<Box<JobRun>>,
}

impl AdmissionController {
    /// The job-slot capacity right now: the configured bound scaled down
    /// by the fraction of executors still warming up after a kill,
    /// floored at one so a fully-degraded pool cannot wedge admission.
    fn effective_capacity(ctx: &SpangleContext) -> usize {
        let total = ctx.num_executors();
        let warming = ctx.inner.pool.warming_replacements().min(total);
        let bound = ctx.config().admission.max_concurrent_jobs;
        (bound.saturating_mul(total - warming) / total).max(1)
    }

    /// Whether the scheduler is saturated for new admissions: job slots
    /// full, or resident memory (cache + shuffle) still at the high
    /// watermark *after* the spill tier has had a chance to demote cold
    /// blocks to disk. Spilling comes before shedding: memory saturation
    /// only queues or sheds work when the disk tier could not (or was not
    /// allowed to) bring resident bytes back under the watermark.
    fn saturated(ctx: &SpangleContext, running: usize) -> bool {
        running >= Self::effective_capacity(ctx) || !ctx.enforce_memory_watermark()
    }

    /// Planned tasks currently queued at `priority` (the unit of the
    /// per-priority backpressure bound).
    fn queued_tasks_at(&self, priority: i32) -> usize {
        self.queue
            .iter()
            .filter(|j| j.priority == priority)
            .map(|j| j.planned_tasks())
            .sum()
    }

    /// Routes a newly submitted job: admit directly when there is room,
    /// otherwise queue it — or shed it when its priority falls below the
    /// shed threshold or its tasks do not fit the per-priority queue bound.
    pub(super) fn submit(&mut self, mut job: Box<JobRun>, jobs: &mut HashMap<usize, Box<JobRun>>) {
        let ctx = job.ctx.clone();
        if self.queue.is_empty() && !Self::saturated(&ctx, jobs.len()) {
            admit(job, jobs);
            return;
        }
        // The job would have to wait. (The queue is only ever non-empty
        // while the scheduler is saturated: drain() empties it otherwise.)
        let cfg = &ctx.config().admission;
        let shed = cfg.shed_below_priority.is_some_and(|t| job.priority < t)
            || self.queued_tasks_at(job.priority) + job.planned_tasks()
                > cfg.max_queued_tasks_per_priority;
        if shed {
            ctx.metrics().add(MetricField::JobsRejected, 1);
            job.resolve_unadmitted(JobOutcome::Rejected, TaskError::Rejected);
            return;
        }
        job.admission_queued_at = Some(Instant::now());
        self.queue.push(job.priority, job);
        ctx.metrics()
            .raise(MetricField::AdmissionQueuePeak, self.queue.len() as u64);
    }

    /// Releases queued jobs (highest priority first, FIFO within one)
    /// while the scheduler has capacity for them. Deadlines expire
    /// *before* the queue drains: a queued job whose deadline has passed
    /// is resolved here and never runs at all, even when the slot it was
    /// waiting for frees in the same instant.
    pub(super) fn drain(&mut self, jobs: &mut HashMap<usize, Box<JobRun>>, now: Instant) {
        for job in self.queue.extract(|j| j.deadline.is_some_and(|d| d <= now)) {
            job.ctx.metrics().add(MetricField::JobsDeadlined, 1);
            job.resolve_unadmitted(JobOutcome::Deadlined, TaskError::DeadlineExceeded);
        }
        while let Some(front) = self.queue.front() {
            let ctx = front.ctx.clone();
            if Self::saturated(&ctx, jobs.len()) {
                break;
            }
            let mut job = self.queue.pop_front().expect("front observed above");
            let waited = job
                .admission_queued_at
                .take()
                .map_or(0, |t| t.elapsed().as_nanos() as u64);
            job.admission_wait_nanos = waited;
            ctx.metrics()
                .add(MetricField::AdmissionQueueWaitNanos, waited);
            admit(job, jobs);
        }
    }

    /// Aborts every running job whose deadline has passed, through the
    /// normal abandon path so its owned shuffles are released.
    pub(super) fn expire_running(jobs: &mut HashMap<usize, Box<JobRun>>, now: Instant) {
        let expired: Vec<usize> = jobs
            .iter()
            .filter(|(_, j)| j.deadline.is_some_and(|d| d <= now))
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let mut job = jobs.remove(&id).expect("expired job vanished");
            job.ctx.metrics().add(MetricField::JobsDeadlined, 1);
            let err = job.abort(JobError::without_task(id, TaskError::DeadlineExceeded));
            job.fail_with(JobOutcome::Deadlined, err);
        }
    }

    /// The nearest deadline among queued jobs.
    pub(super) fn nearest_deadline(&self) -> Option<Instant> {
        self.queue.iter().filter_map(|j| j.deadline).min()
    }
}

/// Starts an admitted job and parks it in the running map unless it
/// resolved instantly (zero-stage result, or a failure to even start).
fn admit(mut job: Box<JobRun>, jobs: &mut HashMap<usize, Box<JobRun>>) {
    match job.activate(job.result_idx) {
        Err(err) => job.fail(err),
        Ok(()) if job.is_finished() => job.finish(),
        Ok(()) => {
            jobs.insert(job.job_id, job);
        }
    }
}
