//! End-to-end and per-layer benchmark of the psn-thermometer
//! chip-to-cell loop.
//!
//! Four workloads, each a batch job driven as a closed loop with one
//! caller (the next repetition starts when the previous one ends):
//!
//! * `noc-open-loop` — `NocWorkload::run_streamed` on `chip_8x8`; the
//!   grid dominates, so it shows `pdn` changes and bypasses sensing and
//!   control;
//! * `droop-closed-loop` — the XP-DROOP chip through `run_mitigated`,
//!   open loop plus four policy arms; per-cycle sensing and control
//!   dominate, and throttle and boost take the stepper's deferral and
//!   overlay paths;
//! * `noc-checkpoint-resume` — `run_checkpointed` at a fixed cadence,
//!   cancelled mid-run, loaded and resumed; checkpoint I/O dominates;
//! * `sensor-characterize` — Monte-Carlo mismatch, corner trims,
//!   delay-code characteristics and the XP-FAULT gate-level fault
//!   sweep; no grid and no mesh, so it bypasses `pdn` and `workload`.
//!
//! Every repetition is checked against a reference (see [`chip`] and
//! [`characterize`]); a traced repetition times each call into a
//! layer's public functions from this crate's own code ([`trace`]).

pub mod characterize;
pub mod chip;
pub mod trace;

use std::fmt::Display;
use std::path::Path;

use trace::Tracer;

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 2009;
/// A seed held out from tuning, for checking claims on unseen inputs.
pub const HELD_OUT_SEED: u64 = 4099;

/// Maps an error into a message naming the step that failed.
pub fn fail<E: Display>(step: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{step}: {e}")
}

/// Output checks of one run: failures over attempts.
#[derive(Debug, Default)]
pub struct Checks {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed their check.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Records one checked output.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }
}

/// Work one repetition delivered.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    /// Simulated chip cycles completed.
    pub cycles: u64,
    /// Thermometer codes delivered.
    pub codes: u64,
}

/// A prepared workload.
pub trait Bench {
    /// One untraced repetition through the program's own entry points.
    /// Its outputs are kept for [`Bench::check`] and [`Bench::traced`].
    ///
    /// # Errors
    ///
    /// Program errors.
    fn run(&mut self) -> Result<(), String>;

    /// Checks the last [`Bench::run`] against the reference and returns
    /// the work it delivered.
    fn check(&self, ch: &mut Checks) -> Work;

    /// One traced repetition through the benchmark's own per-layer loop.
    ///
    /// # Errors
    ///
    /// Program errors, or outputs that differ from the last
    /// [`Bench::run`] (which must exist) at the same seed.
    fn traced(&mut self, tr: &mut Tracer) -> Result<(), String>;
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_streamed` on the 8×8 chip.
    NocOpenLoop,
    /// `run_mitigated` arms on the XP-DROOP chip.
    DroopClosedLoop,
    /// `run_checkpointed`, interrupted and resumed.
    NocCheckpointResume,
    /// Mismatch, trim, characteristics and the gate-level fault sweep.
    SensorCharacterize,
}

/// What [`Workload::build`] constructs.
#[derive(Debug)]
pub enum Built {
    /// A chip-scale workload.
    Chip(chip::Chip),
    /// The sensor characterization set.
    Sensor(characterize::Sensor),
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::NocOpenLoop,
        Workload::DroopClosedLoop,
        Workload::NocCheckpointResume,
        Workload::SensorCharacterize,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NocOpenLoop => "noc-open-loop",
            Workload::DroopClosedLoop => "droop-closed-loop",
            Workload::NocCheckpointResume => "noc-checkpoint-resume",
            Workload::SensorCharacterize => "sensor-characterize",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the system under test: the set-up `setup_s` times.
    ///
    /// # Errors
    ///
    /// Construction failures.
    pub fn build(self, tr: &mut Tracer) -> Result<Built, String> {
        use psnt_workload::NocWorkloadConfig;
        Ok(match self {
            Workload::NocOpenLoop | Workload::NocCheckpointResume => {
                Built::Chip(chip::Chip::build(NocWorkloadConfig::chip_8x8(), tr)?)
            }
            Workload::DroopClosedLoop => Built::Chip(chip::Chip::build(chip::droop_chip(), tr)?),
            Workload::SensorCharacterize => Built::Sensor(characterize::Sensor::build()?),
        })
    }

    /// Generates the inputs for `seed` and computes the reference
    /// outputs (untimed). `scratch` is a directory the workload may
    /// write files in.
    ///
    /// # Errors
    ///
    /// Reference failures.
    pub fn prepare(
        self,
        built: Built,
        seed: u64,
        scratch: &Path,
    ) -> Result<Box<dyn Bench>, String> {
        Ok(match (self, built) {
            (Workload::NocOpenLoop, Built::Chip(c)) => Box::new(chip::NocOpenLoop::new(c, seed)?),
            (Workload::DroopClosedLoop, Built::Chip(c)) => {
                Box::new(chip::DroopClosedLoop::new(c, seed)?)
            }
            (Workload::NocCheckpointResume, Built::Chip(c)) => Box::new(
                chip::NocCheckpointResume::new(c, seed, scratch.join("noc.ckpt"))?,
            ),
            (Workload::SensorCharacterize, Built::Sensor(s)) => {
                Box::new(characterize::Characterize::new(s, seed)?)
            }
            (w, _) => return Err(format!("{} was built for another workload", w.name())),
        })
    }
}
