//! Benchmark self-test: each workload passes its output checks at the
//! default and the held-out seed, and two traced repetitions repeat
//! every deterministic work counter exactly.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;

use psnt_perfbench::trace::Tracer;
use psnt_perfbench::{Checks, Workload, DEFAULT_SEED, HELD_OUT_SEED};

fn self_test(w: Workload, counters: &[&str]) {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(w.name());
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let built = w.build(&mut Tracer::off()).expect("build");
        let mut bench = w.prepare(built, seed, &scratch).expect("reference");
        bench.run().expect("program run");
        let mut checks = Checks::default();
        bench.check(&mut checks);
        assert!(checks.attempted > 0);
        assert_eq!(
            checks.failed,
            0,
            "{} seed {seed}: {:?}",
            w.name(),
            checks.first_failure
        );
        let mut first = Tracer::off();
        bench.traced(&mut first).expect("traced run");
        let mut second = Tracer::off();
        bench.traced(&mut second).expect("traced run");
        assert_eq!(
            first.counters(),
            second.counters(),
            "{} seed {seed}",
            w.name()
        );
        for name in counters {
            assert!(
                first.counter(name) > 0,
                "{} seed {seed}: {name} is 0",
                w.name()
            );
        }
    }
}

#[test]
fn noc_open_loop() {
    self_test(
        Workload::NocOpenLoop,
        &[
            "workload.flits_planned",
            "workload.flits_spawned",
            "pdn.delta_solves",
            "pdn.sparse_solves",
            "pdn.nodes_changed",
            "scan.records",
        ],
    );
}

#[test]
fn droop_closed_loop() {
    self_test(
        Workload::DroopClosedLoop,
        &[
            "workload.flits_planned",
            "pdn.delta_solves",
            "pdn.nodes_changed",
            "core.readings",
            "control.frames",
            "control.engaged_cycles",
        ],
    );
}

#[test]
fn noc_checkpoint_resume() {
    self_test(
        Workload::NocCheckpointResume,
        &[
            "pdn.delta_solves",
            "scan.records",
            "checkpoint.saves",
            "checkpoint.bytes",
        ],
    );
}

#[test]
fn sensor_characterize() {
    self_test(
        Workload::SensorCharacterize,
        &["core.mc_instances", "netlist.plans", "netlist.events"],
    );
}
