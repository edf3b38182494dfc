//! The `droop-mitigation` sweep resumes from its checkpoint alone: an
//! interrupt inside a later arm, resumed on a fresh context, renders
//! the report of a sweep that was never interrupted.

use psnt_bench::checkpointed::{
    droop_mitigation_checkpointed, noc_campaign_checkpointed, CheckpointOptions,
};
use psnt_bench::figures;
use psnt_ctx::RunCtx;
use psnt_fault::{Fault, FaultPlan};
use psnt_sup::{CancelToken, RunBudget, Supervisor};
use psnt_workload::{MitigatedCheckpoint, WorkloadError};

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("psnt-droop-resume-{}-{name}", std::process::id()))
}

#[test]
fn interrupted_sweep_resumes_to_the_uninterrupted_report() {
    let plain = figures::droop_mitigation(&mut RunCtx::serial());

    // Each swept cycle charges one event and every arm runs 400
    // cycles, so this budget trips 150 cycles into the third arm.
    let path = scratch("sweep.ckpt");
    let budget = RunBudget::unlimited().events(950);
    let mut ctx = RunCtx::serial().with_supervisor(Supervisor::new(CancelToken::new(), budget));
    let opts = CheckpointOptions {
        checkpoint: Some(path.clone()),
        every: Some(100),
        resume: None,
    };
    let cut = droop_mitigation_checkpointed(&mut ctx, &opts).unwrap();
    assert!(cut.interrupted, "{}", cut.report);
    assert!(
        cut.report
            .contains("run 3/13: policy threshold-throttle, latency 1 cy"),
        "{}",
        cut.report
    );
    let ckpt = MitigatedCheckpoint::load(&path).unwrap();
    assert_eq!(
        (ckpt.policy.as_str(), ckpt.latency),
        ("threshold-throttle", 1)
    );
    assert!(ckpt.cycle() > 0);

    let resume = CheckpointOptions {
        resume: Some(path.clone()),
        ..CheckpointOptions::none()
    };
    let resumed = droop_mitigation_checkpointed(&mut RunCtx::serial(), &resume).unwrap();
    assert!(!resumed.interrupted);
    assert_eq!(resumed.report, plain, "resumed sweep ≡ uninterrupted sweep");
    std::fs::remove_file(&path).ok();
}

#[test]
fn sweep_refuses_a_noc_campaign_checkpoint() {
    let path = scratch("noc.ckpt");
    let mut ctx =
        RunCtx::serial().with_fault_plan(FaultPlan::new().with(Fault::CancelAt { cycle: 1 }));
    let opts = CheckpointOptions {
        checkpoint: Some(path.clone()),
        every: None,
        resume: None,
    };
    assert!(
        noc_campaign_checkpointed(&mut ctx, &opts)
            .unwrap()
            .interrupted
    );

    let resume = CheckpointOptions {
        resume: Some(path.clone()),
        ..CheckpointOptions::none()
    };
    let err = droop_mitigation_checkpointed(&mut RunCtx::serial(), &resume).unwrap_err();
    assert!(
        matches!(err, WorkloadError::Checkpoint { .. }),
        "expected a structured checkpoint error, got {err:?}"
    );
    std::fs::remove_file(&path).ok();
}
