//! The one supervised cycle loop behind every workload entry point.
//!
//! [`NocWorkload::drive`] owns supervision, window statistics and
//! checkpointing; what a run does with each stepped cycle is its
//! [`CycleConsumer`] — the batch paths sample site rails, the closed
//! loop senses → delays → actuates.

use psnt_ctx::RunCtx;
use psnt_obs::{MetricsRegistry, Observer, Span};

use crate::campaign::{NocWorkload, WindowStats};
use crate::checkpoint::{save_json, Checkpoint, CheckpointPolicy, CHECKPOINT_VERSION};
use crate::error::WorkloadError;
use crate::stepper::CycleStepper;

/// What a supervised run does with each stepped cycle, and the part of
/// the run state its checkpoints carry beyond the shared one.
pub(crate) trait CycleConsumer {
    /// The checkpoint type the run writes and resumes from.
    type Checkpoint: Checkpoint;

    /// Opens the run's span.
    fn begin_span(&self, obs: &mut Observer) -> Span;

    /// Reinstates the consumer's part of `ckpt`, captured after `done`
    /// cycles; the shared part is already validated and restored.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidConfig`] (`"resume"`) when the snapshot
    /// does not fit this run.
    fn resume(&mut self, ckpt: &Self::Checkpoint, done: usize) -> Result<(), WorkloadError>;

    /// Folds stepped cycle `c` into the consumer; the consumer may
    /// actuate the stepper for the next cycle.
    ///
    /// # Errors
    ///
    /// Sensing and actuation failures.
    fn consume(&mut self, c: usize, stepper: &mut CycleStepper<'_>) -> Result<(), WorkloadError>;

    /// Captures the run so far: the stepper, the touched window
    /// statistics and the consumer's own state.
    fn checkpoint(
        &self,
        seed: u64,
        stepper: &CycleStepper<'_>,
        stats_done: Vec<WindowStats>,
    ) -> Self::Checkpoint;

    /// Records the consumer's metrics once the run completes.
    fn record(&self, metrics: &mut MetricsRegistry);
}

impl NocWorkload {
    /// Drives the stepper from cycle 0 (or from `resume`'s cycle)
    /// to the end of the run, folding every cycle into the window
    /// statistics and handing it to `consumer`; returns the stepper and
    /// the statistics.
    ///
    /// The context's supervisor is checked once per cycle. A trip
    /// writes a final checkpoint (when `policy.path` is set) and
    /// surfaces as [`WorkloadError::Interrupted`]; with a path, a
    /// snapshot is also written at the policy's (or the budget's)
    /// cadence. Harness faults drive deterministic chaos:
    /// [`Fault::CancelAt`](psnt_fault::Fault::CancelAt) cancels the
    /// token at exactly that cycle and
    /// [`Fault::DeadlineTrip`](psnt_fault::Fault::DeadlineTrip) trips
    /// the deadline at the run's midpoint. A detached supervisor with
    /// no policy costs one atomic load per cycle.
    ///
    /// # Errors
    ///
    /// Solver and consumer errors, [`WorkloadError::Interrupted`],
    /// [`WorkloadError::Checkpoint`] on snapshot I/O failures, and
    /// [`WorkloadError::InvalidConfig`] for a resume snapshot that does
    /// not fit this run.
    pub(crate) fn drive<'w, K: CycleConsumer>(
        &'w self,
        ctx: &mut RunCtx<'_>,
        consumer: &mut K,
        policy: &CheckpointPolicy,
        resume: Option<&K::Checkpoint>,
    ) -> Result<(CycleStepper<'w>, Vec<WindowStats>), WorkloadError> {
        let cfg = self.config();
        let n = self.campaign().floorplan().grid().tiles();
        let mut stepper = CycleStepper::new(self, ctx)?;
        if let Some(obs) = ctx.observer() {
            obs.metrics
                .counter_add("workload.flits", stepper.planned_flits());
        }
        let mut span = ctx.observer().map(|o| consumer.begin_span(o));
        let mut stats = self.window_stats_shell();
        let start = match resume {
            Some(ckpt) => {
                let done = self.resume(ctx, ckpt, &mut stepper, &mut stats)?;
                consumer.resume(ckpt, done)?;
                done
            }
            None => 0,
        };

        let sup = ctx.supervisor().clone();
        let cancel_at = ctx.fault_plan().and_then(|p| p.cancel_at_cycle());
        let trip_deadline_at = ctx
            .fault_plan()
            .is_some_and(|p| p.deadline_trip())
            .then_some(cfg.cycles / 2);
        let seed = ctx.seed();
        let cadence = policy.every.or_else(|| sup.budget().checkpoint_cadence());

        for c in start..cfg.cycles {
            if cancel_at == Some(c as u64) {
                sup.token().cancel();
            }
            if trip_deadline_at == Some(c) {
                sup.force_expire();
            }
            let tripped = sup.check().err();
            let cadence_due =
                cadence.is_some_and(|every| c > start && (c as u64).is_multiple_of(every));
            if let Some(path) = policy.path.as_deref() {
                if tripped.is_some() || cadence_due {
                    let touched = c.div_ceil(cfg.measure_every).min(stats.len());
                    save_json(
                        &consumer.checkpoint(seed, &stepper, stats[..touched].to_vec()),
                        path,
                    )?;
                }
            }
            if let Some(reason) = tripped {
                if let (Some(obs), Some(span)) = (ctx.observer(), span.take()) {
                    obs.end_span(span);
                }
                return Err(WorkloadError::Interrupted(reason));
            }
            sup.charge_events(1);
            stepper.step()?;
            self.accumulate_window(&mut stats, c, &stepper, n);
            consumer.consume(c, &mut stepper)?;
        }

        if let Some(obs) = ctx.observer() {
            obs.metrics
                .counter_add("workload.delta_solves", stepper.delta_solves());
            consumer.record(&mut obs.metrics);
        }
        if let (Some(obs), Some(span)) = (ctx.observer(), span) {
            obs.end_span(span);
        }
        Ok((stepper, stats))
    }

    /// The resume check every checkpoint type shares: schema version,
    /// run seed, the stepper snapshot (see [`CycleStepper::restore`])
    /// and the window-statistics prefix. Restores the stepper and the
    /// statistics; returns the cycle the loop continues from.
    fn resume(
        &self,
        ctx: &RunCtx<'_>,
        ckpt: &impl Checkpoint,
        stepper: &mut CycleStepper<'_>,
        stats: &mut [WindowStats],
    ) -> Result<usize, WorkloadError> {
        let (version, seed, snapshot, stats_done) = ckpt.shared();
        if version != CHECKPOINT_VERSION {
            return Err(invalid_resume(format!(
                "checkpoint schema version {version}, this build reads {CHECKPOINT_VERSION}"
            )));
        }
        if seed != ctx.seed() {
            return Err(invalid_resume(format!(
                "checkpoint was captured under seed {seed}, this run uses {}",
                ctx.seed()
            )));
        }
        stepper.restore(snapshot)?;
        let done = stepper.cycle();
        let touched = done.div_ceil(self.config().measure_every).min(stats.len());
        if stats_done.len() != touched {
            return Err(invalid_resume(format!(
                "{} windows captured, cycle {done} expects {touched}",
                stats_done.len()
            )));
        }
        stats[..touched].clone_from_slice(stats_done);
        Ok(done)
    }
}

/// A resume snapshot that does not fit the run it is offered to.
pub(crate) fn invalid_resume(reason: String) -> WorkloadError {
    WorkloadError::InvalidConfig {
        name: "resume",
        reason,
    }
}
