//! Checkpoint/resume for workload campaigns.
//!
//! A supervised run snapshots its solve-phase state — the
//! [`StepperSnapshot`] plus everything the driver accumulated — at the
//! cadence the supervisor's [`RunBudget`](psnt_sup::RunBudget) asks
//! for, and again the moment a cooperative interrupt trips. The
//! snapshot restores onto a fresh run over the **same workload, seed
//! and worker count**, after which the run is bit-identical,
//! record for record, to one that was never interrupted: the stepper's
//! captured rails are reinstated bit for bit and the traffic plan (a
//! pure function of the seed) is rebuilt, not stored.
//!
//! Both checkpoint types share one resume check (schema version, seed,
//! stepper snapshot, window-statistics prefix). The stepper snapshot
//! carries a fingerprint of the full workload config
//! ([`psnt_obs::manifest::config_hash`] of the [`NocWorkloadConfig`]), so a
//! snapshot captured under another config — say 3× the flit current
//! with the same seed and traffic — is refused instead of resuming
//! into a silent hybrid run. Restore also checks the snapshot's
//! structure (routes and deferred destinations inside the mesh, a
//! grid-sized, finite solution), so a corrupted snapshot is a
//! structured error, never a panic in the next step.
//!
//! Checkpoints cover the cycle loop only. The scan sweep that follows
//! the solve always runs in full — an interrupt during the sweep
//! surfaces as the stream's terminal
//! [`StreamRecord::Aborted`](psnt_scan::campaign::StreamRecord::Aborted)
//! record, and a resumed run re-enters the sweep from its start, which
//! keeps the record stream identical without sweep-side bookkeeping.
//!
//! On-disk format: one JSON document, written atomically (`.tmp` +
//! rename) so a crash mid-write never leaves a truncated checkpoint in
//! place of a good one. Schema version 2 added the config fingerprint,
//! version 3 the closed loop's code-distribution latency, and version 4
//! marks rails from the tile-basis grid update (a version-3 file holds
//! rails from the triangular delta chain, and resuming it would mix the
//! two numerics); files of other versions are refused.
//!
//! [`NocWorkloadConfig`]: crate::NocWorkloadConfig

use std::fs;
use std::path::{Path, PathBuf};

use psnt_cells::units::Time;
use psnt_control::Actuation;
use psnt_control::ControlFrame;
use serde::{json, Deserialize, Serialize};

use crate::campaign::WindowStats;
use crate::error::WorkloadError;
use crate::mitigated::ActuationSample;
use crate::stepper::StepperSnapshot;

/// Schema version stamped into every checkpoint; loads refuse other
/// versions instead of misinterpreting the payload.
pub const CHECKPOINT_VERSION: u32 = 4;

/// Where and how often a supervised run snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Snapshot destination; `None` disables checkpointing (the run is
    /// still supervised, it just has nothing to resume from).
    pub path: Option<PathBuf>,
    /// Snapshot cadence in cycles. `None` falls back to the
    /// supervisor budget's
    /// [`checkpoint_cadence`](psnt_sup::RunBudget::checkpoint_cadence);
    /// if that is also unset, only interrupts trigger a snapshot.
    pub every: Option<u64>,
}

impl CheckpointPolicy {
    /// No checkpointing.
    pub fn none() -> CheckpointPolicy {
        CheckpointPolicy::default()
    }

    /// Snapshot to `path` every `every` cycles (and on interrupt).
    pub fn to_path(path: impl Into<PathBuf>, every: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            path: Some(path.into()),
            every: Some(every.max(1)),
        }
    }
}

/// A batch-path solve checkpoint ([`NocWorkload::run`] /
/// [`NocWorkload::run_streamed`] drivers).
///
/// [`NocWorkload::run`]: crate::NocWorkload::run
/// [`NocWorkload::run_streamed`]: crate::NocWorkload::run_streamed
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The run seed the snapshot was captured under.
    pub seed: u64,
    /// The stepper's dynamic state at the captured cycle.
    pub stepper: StepperSnapshot,
    /// Window statistics of every window touched so far (a prefix of
    /// the run's windows; untouched windows are rebuilt empty).
    pub stats_done: Vec<WindowStats>,
    /// Per-site sampled rail points so far, one series per sensor
    /// site.
    pub site_points: Vec<Vec<(Time, f64)>>,
}

/// A closed-loop checkpoint ([`NocWorkload::run_mitigated`] driver):
/// the solve state plus the control loop's traces, in-flight frames
/// and policy state. Its `(policy, latency)` pair names the loop it
/// captured, so a sweep of closed-loop runs can tell which arm to
/// resume from the checkpoint alone.
///
/// [`NocWorkload::run_mitigated`]: crate::NocWorkload::run_mitigated
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MitigatedCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The run seed the snapshot was captured under.
    pub seed: u64,
    /// The policy name in force (`"open-loop"` for no mitigator);
    /// resume refuses a mismatched policy.
    pub policy: String,
    /// The code-distribution latency of the loop, cycles; resume
    /// refuses a mismatched latency.
    pub latency: usize,
    /// The stepper's dynamic state at the captured cycle.
    pub stepper: StepperSnapshot,
    /// Window statistics of every window touched so far.
    pub stats_done: Vec<WindowStats>,
    /// Per-cycle droop depths so far.
    pub droop_trace: Vec<f64>,
    /// Per-cycle actuation summaries so far.
    pub actuation_trace: Vec<ActuationSample>,
    /// Deepest droop so far, volts.
    pub worst_droop: f64,
    /// Cycle of the deepest droop so far.
    pub worst_droop_cycle: usize,
    /// Cycles run with non-neutral actuation so far.
    pub engaged_cycles: u64,
    /// Site readings dropped by faults so far.
    pub degraded_readings: u64,
    /// Peak throttle backlog so far.
    pub deferred_peak: usize,
    /// Frames in the delay line, oldest first.
    pub in_flight: Vec<ControlFrame>,
    /// The actuation the controller last derived.
    pub act: Actuation,
    /// The mitigator's serialized state
    /// ([`Mitigator::state_snapshot`](psnt_control::Mitigator::state_snapshot));
    /// `None` when the policy is stateless or does not support
    /// snapshots.
    pub mitigator_state: Option<String>,
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> WorkloadError {
    WorkloadError::Checkpoint {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

/// Writes `ckpt` to `path` as JSON, atomically: a sibling `.tmp` file
/// is written, then renamed over the destination.
pub(crate) fn save_json(ckpt: &impl Serialize, path: &Path) -> Result<(), WorkloadError> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, json::to_string(ckpt)).map_err(|e| io_err(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Reads a checkpoint, checking its schema version before decoding the
/// payload, so a file of another version is named as such instead of
/// failing to decode.
fn load_checked<T: Deserialize>(path: &Path) -> Result<T, WorkloadError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let decode = |e| io_err(path, format!("decode: {e:?}"));
    let value = json::parse(&text).map_err(decode)?;
    match value.get("version").and_then(serde::Value::as_u64) {
        Some(v) if v == u64::from(CHECKPOINT_VERSION) => json::from_value(&value).map_err(decode),
        v => Err(io_err(
            path,
            format!(
                "schema version {}, this build reads {CHECKPOINT_VERSION}",
                v.map_or_else(|| "?".into(), |v| v.to_string())
            ),
        )),
    }
}

/// A checkpoint type the supervised driver writes and resumes from.
pub(crate) trait Checkpoint: Serialize {
    /// The state every checkpoint shares and one routine validates on
    /// resume: `(version, seed, stepper, stats_done)`.
    fn shared(&self) -> (u32, u64, &StepperSnapshot, &[WindowStats]);
}

impl Checkpoint for WorkloadCheckpoint {
    fn shared(&self) -> (u32, u64, &StepperSnapshot, &[WindowStats]) {
        (self.version, self.seed, &self.stepper, &self.stats_done)
    }
}

impl Checkpoint for MitigatedCheckpoint {
    fn shared(&self) -> (u32, u64, &StepperSnapshot, &[WindowStats]) {
        (self.version, self.seed, &self.stepper, &self.stats_done)
    }
}

impl WorkloadCheckpoint {
    /// Saves the checkpoint to `path` atomically.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Checkpoint`] on I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), WorkloadError> {
        save_json(self, path)
    }

    /// Loads and validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Checkpoint`] on I/O failure, undecodable JSON,
    /// or a schema-version mismatch.
    pub fn load(path: &Path) -> Result<WorkloadCheckpoint, WorkloadError> {
        load_checked(path)
    }

    /// The cycle the snapshot was captured at.
    pub fn cycle(&self) -> usize {
        self.stepper.cycle()
    }
}

impl MitigatedCheckpoint {
    /// Saves the checkpoint to `path` atomically.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Checkpoint`] on I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), WorkloadError> {
        save_json(self, path)
    }

    /// Loads and validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Checkpoint`] on I/O failure, undecodable JSON,
    /// or a schema-version mismatch.
    pub fn load(path: &Path) -> Result<MitigatedCheckpoint, WorkloadError> {
        load_checked(path)
    }

    /// The cycle the snapshot was captured at.
    pub fn cycle(&self) -> usize {
        self.stepper.cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_constructors() {
        assert_eq!(CheckpointPolicy::none(), CheckpointPolicy::default());
        let p = CheckpointPolicy::to_path("/tmp/x.ckpt", 0);
        assert_eq!(p.every, Some(1), "cadence clamps to ≥ 1");
        assert!(p.path.is_some());
    }

    #[test]
    fn load_rejects_missing_and_garbage_files() {
        let dir = std::env::temp_dir().join("psnt-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("missing.ckpt");
        assert!(matches!(
            WorkloadCheckpoint::load(&missing),
            Err(WorkloadError::Checkpoint { .. })
        ));
        let garbage = dir.join("garbage.ckpt");
        fs::write(&garbage, "not json").unwrap();
        assert!(matches!(
            MitigatedCheckpoint::load(&garbage),
            Err(WorkloadError::Checkpoint { .. })
        ));
        fs::remove_file(&garbage).unwrap();
    }

    #[test]
    fn load_names_a_foreign_schema_version() {
        let path = std::env::temp_dir().join(format!("psnt-ckpt-v1-{}.json", std::process::id()));
        fs::write(&path, r#"{"version": 1, "seed": 7}"#).unwrap();
        match WorkloadCheckpoint::load(&path) {
            Err(WorkloadError::Checkpoint { reason, .. }) => {
                assert!(reason.contains("schema version 1"), "{reason}");
            }
            other => panic!("expected a version error, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_refuses_a_version_3_file() {
        let path = std::env::temp_dir().join(format!("psnt-ckpt-v3-{}.json", std::process::id()));
        fs::write(&path, r#"{"version": 3, "seed": 7}"#).unwrap();
        for err in [
            WorkloadCheckpoint::load(&path).map(|_| ()),
            MitigatedCheckpoint::load(&path).map(|_| ()),
        ] {
            match err {
                Err(WorkloadError::Checkpoint { reason, .. }) => {
                    assert_eq!(reason, "schema version 3, this build reads 4");
                }
                other => panic!("expected a version error, got {other:?}"),
            }
        }
        fs::remove_file(&path).unwrap();
    }
}
