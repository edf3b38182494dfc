//! `sensor-characterize`: the sensor-cell characterization set, with no
//! grid and no mesh.
//!
//! One repetition runs, on freshly built arrays (so the threshold memo
//! starts cold, as in a one-shot characterization):
//!
//! * batched `monte_carlo_yield` at the XP-MISMATCH sigma scales, seeded
//!   from the workload seed;
//! * `array_characteristic` for every delay code on the supply and the
//!   ground array (Fig. 5 and XP-GND);
//! * `trim_for_corner` for every process corner (XP-PV);
//! * the XP-FAULT gate-level fault universe, up to 64 plans per
//!   `GateLevelArray::measure_batch` word, at three rails.
//!
//! The universe is packed so that every word stays inside the batch
//! kernel's exact delay banding (at most `MAX_DELAY_BANDS` distinct delay
//! factors per gate, the unit factor of unfaulted and unused lanes
//! included). XP-FAULT's own packing, 64 plans in universe order, puts
//! nine distinct factors on one gate in some words; the kernel then
//! snaps factors to a grid, and 56 more plans read as detected than the
//! scalar simulator finds. The benchmark measures the kernel where it
//! is specified to be exact.
//!
//! The reference takes the scalar paths the batched kernels are
//! documented to match bit for bit: `monte_carlo_yield_scalar`,
//! per-element `SenseElement::threshold`, and one scalar
//! `measure_detailed` per fault plan and rail.

use psnt_cells::logic::Logic;
use psnt_cells::process::{ProcessCorner, Pvt};
use psnt_cells::units::{Temperature, Voltage};
use psnt_core::element::RailMode;
use psnt_core::{
    array_characteristic, monte_carlo_yield, monte_carlo_yield_scalar, trim_for_corner,
    ArrayCharacteristic, DelayCode, GateLevelArray, MismatchModel, PulseGenerator, SensorConfig,
    SensorError, SensorSystem, ThermometerArray, ThermometerCode, TrimResult, YieldReport,
};
use psnt_ctx::RunCtx;
use psnt_fault::{Fault, FaultPlan};
use psnt_netlist::batch::MAX_DELAY_BANDS;
use psnt_netlist::LANES;

use crate::trace::Tracer;
use crate::{fail, Bench, Checks, Work};

/// XP-MISMATCH's sigma scales.
const MC_SCALES: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];
/// Mismatched arrays per sigma scale (whole 64-lane words).
const MC_TRIALS: usize = 640;
/// XP-FAULT's three-rail signature, volts.
const RAILS: [f64; 3] = [1.0, 0.96, 0.9];
/// XP-FAULT's delay factors: 4× fast to 6× slow, 8 per gate so the
/// batch kernel's delay banding stays exact.
const FACTORS: [f64; 8] = [0.25, 0.5, 0.75, 1.5, 2.0, 3.0, 4.0, 6.0];

fn code011() -> DelayCode {
    DelayCode::new(3).expect("static code")
}

fn corners() -> impl Iterator<Item = Pvt> {
    ProcessCorner::ALL
        .into_iter()
        .map(|c| Pvt::new(c, Voltage::from_v(1.0), Temperature::from_celsius(25.0)))
}

/// The XP-FAULT universe in its canonical order: single and double
/// stuck-ats on every net, 8 delay factors on every sense inverter, and
/// stuck-at × delay crosses.
fn fault_universe(gate: &GateLevelArray) -> Vec<FaultPlan> {
    let nets: Vec<String> = gate
        .netlist()
        .nets()
        .map(|(_, n)| n.name().to_string())
        .collect();
    let gates: Vec<String> = gate
        .netlist()
        .gates()
        .iter()
        .map(|g| g.name().to_string())
        .collect();
    let mut plans = Vec::new();
    for name in &nets {
        for v in [Logic::Zero, Logic::One] {
            plans.push(FaultPlan::new().with(Fault::stuck_at(name.clone(), v)));
        }
    }
    for i in 0..nets.len() {
        for j in (i + 1)..nets.len() {
            for va in [Logic::Zero, Logic::One] {
                for vb in [Logic::Zero, Logic::One] {
                    plans.push(
                        FaultPlan::new()
                            .with(Fault::stuck_at(nets[i].clone(), va))
                            .with(Fault::stuck_at(nets[j].clone(), vb)),
                    );
                }
            }
        }
    }
    for g in &gates {
        for f in FACTORS {
            plans.push(FaultPlan::new().with(Fault::delay_scale(g.clone(), f)));
        }
    }
    for (k, an) in nets.iter().step_by(2).enumerate() {
        let av = if k % 2 == 0 { Logic::Zero } else { Logic::One };
        for g in &gates {
            for f in FACTORS {
                plans.push(
                    FaultPlan::new()
                        .with(Fault::stuck_at(an.clone(), av))
                        .with(Fault::delay_scale(g.clone(), f)),
                );
            }
        }
    }
    plans
}

/// Packs plans, in order, first-fit into words of at most [`LANES`]
/// plans on which the batch kernel's delay banding is exact. Every gate
/// is taken to carry the unit factor on some lane, so a word may hold at
/// most `MAX_DELAY_BANDS - 1` other distinct factors per gate. Returns
/// the plan indices of each word.
fn pack_exact(plans: &[FaultPlan]) -> Vec<Vec<usize>> {
    use std::collections::{BTreeMap, BTreeSet};
    // Per word: its plan indices and, per gate, the non-unit factors.
    type Word<'a> = (Vec<usize>, BTreeMap<&'a str, BTreeSet<u64>>);
    let mut words: Vec<Word> = Vec::new();
    for (ix, plan) in plans.iter().enumerate() {
        let mut factors: BTreeMap<&str, f64> = BTreeMap::new();
        for f in &plan.faults {
            if let Fault::DelayScale { gate, factor } = f {
                *factors.entry(gate.as_str()).or_insert(1.0) *= factor;
            }
        }
        factors.retain(|_, f| *f != 1.0);
        let fits = |(lanes, bands): &(Vec<usize>, BTreeMap<&str, BTreeSet<u64>>)| {
            lanes.len() < LANES
                && factors.iter().all(|(gate, f)| {
                    bands
                        .get(gate)
                        .map_or(0, |b| b.len() + usize::from(!b.contains(&f.to_bits())))
                        < MAX_DELAY_BANDS
                })
        };
        let word = match words.iter().position(fits) {
            Some(w) => w,
            None => {
                words.push((Vec::new(), BTreeMap::new()));
                words.len() - 1
            }
        };
        let (lanes, bands) = &mut words[word];
        lanes.push(ix);
        for (gate, f) in factors {
            bands.entry(gate).or_default().insert(f.to_bits());
        }
    }
    words.into_iter().map(|(lanes, _)| lanes).collect()
}

/// XP-FAULT's verdict on one plan: detected when any rail's code
/// differs from golden or the measure fails; the residual is the worst
/// bubble-corrected level error over the rails that measured.
fn score(senses: &[Option<&ThermometerCode>], golden: &[ThermometerCode]) -> (bool, usize) {
    let mut detected = false;
    let mut residual = 0;
    for (sense, gold) in senses.iter().zip(golden) {
        match sense {
            Some(s) => {
                detected |= *s != gold;
                residual = residual.max(
                    s.correct_bubbles()
                        .level()
                        .abs_diff(gold.correct_bubbles().level()),
                );
            }
            None => detected = true,
        }
    }
    (detected, residual)
}

/// The scalar characterization of one delay code: one threshold search
/// per element.
fn scalar_characteristic(
    array: &ThermometerArray,
    pg: &PulseGenerator,
    code: DelayCode,
    pvt: &Pvt,
) -> Result<ArrayCharacteristic, SensorError> {
    let skew = pg.skew(code, pvt);
    let thresholds = array
        .elements()
        .iter()
        .map(|e| e.threshold(skew, pvt))
        .collect::<Result<Vec<_>, _>>()?;
    let lo = thresholds
        .iter()
        .copied()
        .fold(Voltage::from_v(f64::INFINITY), Voltage::min);
    let hi = thresholds
        .iter()
        .copied()
        .fold(Voltage::from_v(f64::NEG_INFINITY), Voltage::max);
    Ok(ArrayCharacteristic {
        code,
        skew,
        thresholds,
        range: (lo, hi),
    })
}

/// The scalar reference of one repetition (see the module docs).
fn scalar_reference(
    sensor: &Sensor,
    plans: &[FaultPlan],
    seed: u64,
) -> Result<Characterized, String> {
    let typ = Pvt::typical();
    let pg = sensor.system.pulse_generator();
    let sk = pg.skew(code011(), &typ);
    let supply = ThermometerArray::paper(RailMode::Supply);
    let ground = ThermometerArray::paper(RailMode::Ground);
    let mut yields = Vec::new();
    for k in MC_SCALES {
        let model = MismatchModel::local_90nm().scaled(k);
        let mut ctx = RunCtx::serial().with_seed(seed);
        yields.push(
            monte_carlo_yield_scalar(&mut ctx, &supply, sk, &typ, &model, MC_TRIALS)
                .map_err(fail("scalar monte carlo"))?,
        );
    }
    let mut characteristics = Vec::new();
    for array in [&supply, &ground] {
        for code in DelayCode::all() {
            characteristics.push(
                scalar_characteristic(array, pg, code, &typ).map_err(fail("characteristic"))?,
            );
        }
    }
    let target = scalar_characteristic(&supply, pg, code011(), &typ)
        .map_err(fail("trim reference"))?
        .midpoint();
    let mut trims = Vec::new();
    for pvt in corners() {
        let mut best: Option<(DelayCode, Voltage)> = None;
        let mut untrimmed = Voltage::ZERO;
        for code in DelayCode::all() {
            let err = (scalar_characteristic(&supply, pg, code, &pvt)
                .map_err(fail("trim"))?
                .midpoint()
                - target)
                .abs();
            if code == code011() {
                untrimmed = err;
            }
            if best.is_none_or(|(_, e)| err < e) {
                best = Some((code, err));
            }
        }
        let (code, residual) = best.expect("delay-code table is non-empty");
        trims.push(TrimResult {
            code,
            residual,
            untrimmed_residual: untrimmed,
        });
    }
    let gate = &sensor.gate;
    let mut ctx = RunCtx::serial();
    let golden = RAILS
        .iter()
        .map(|&v| gate.measure(&mut ctx, Voltage::from_v(v), sk))
        .collect::<Result<Vec<_>, _>>()
        .map_err(fail("golden"))?;
    let mut faults = Vec::with_capacity(plans.len());
    for plan in plans {
        ctx.set_fault_plan(Some(plan.clone()));
        let senses: Vec<Option<ThermometerCode>> = RAILS
            .iter()
            .map(|&v| {
                gate.measure_detailed(&mut ctx, Voltage::from_v(v), sk)
                    .ok()
                    .map(|(sense, _)| sense)
            })
            .collect();
        let refs: Vec<Option<&ThermometerCode>> = senses.iter().map(Option::as_ref).collect();
        faults.push(score(&refs, &golden));
    }
    Ok(Characterized {
        yields,
        characteristics,
        trims,
        golden,
        faults,
    })
}

/// The built characterization set: the sensor system (its pulse
/// generator sets every skew) and the gate-level array netlist.
#[derive(Debug)]
pub struct Sensor {
    system: SensorSystem,
    gate: GateLevelArray,
}

impl Sensor {
    /// `SensorSystem::new` and the gate-level array's netlist
    /// construction.
    ///
    /// # Errors
    ///
    /// Construction failures.
    pub fn build() -> Result<Sensor, String> {
        Ok(Sensor {
            system: SensorSystem::new(SensorConfig::default()).map_err(fail("sensor"))?,
            gate: GateLevelArray::paper().map_err(fail("gate-level array"))?,
        })
    }
}

/// Everything one repetition produces.
#[derive(Debug, Clone, PartialEq)]
pub struct Characterized {
    yields: Vec<YieldReport>,
    characteristics: Vec<ArrayCharacteristic>,
    trims: Vec<TrimResult>,
    golden: Vec<ThermometerCode>,
    /// Per plan, in universe order: detected, worst residual.
    faults: Vec<(bool, usize)>,
}

/// The `sensor-characterize` workload.
#[derive(Debug)]
pub struct Characterize {
    sensor: Sensor,
    seed: u64,
    plans: Vec<FaultPlan>,
    /// The packed words: plan indices and the plans themselves.
    words: Vec<(Vec<usize>, Vec<FaultPlan>)>,
    reference: Characterized,
    last: Option<Characterized>,
}

impl Characterize {
    /// Builds the fault universe and the scalar reference.
    ///
    /// # Errors
    ///
    /// Reference failures.
    pub fn new(sensor: Sensor, seed: u64) -> Result<Characterize, String> {
        let plans = fault_universe(&sensor.gate);
        let words: Vec<(Vec<usize>, Vec<FaultPlan>)> = pack_exact(&plans)
            .into_iter()
            .map(|ix| {
                let word = ix.iter().map(|&i| plans[i].clone()).collect();
                (ix, word)
            })
            .collect();
        let reference = scalar_reference(&sensor, &plans, seed)?;
        eprintln!(
            "fault universe: {} plans in {} words; the scalar reference detects {}",
            plans.len(),
            words.len(),
            reference.faults.iter().filter(|(d, _)| *d).count()
        );
        Ok(Characterize {
            sensor,
            seed,
            plans,
            words,
            reference,
            last: None,
        })
    }

    fn characterize(&self, tr: &mut Tracer) -> Result<Characterized, String> {
        let typ = Pvt::typical();
        let pg = self.sensor.system.pulse_generator();
        let sk = pg.skew(code011(), &typ);
        let mut ctx = RunCtx::serial().with_seed(self.seed);
        let (supply, ground) = tr.span("core.characterize", || {
            (
                ThermometerArray::paper(RailMode::Supply),
                ThermometerArray::paper(RailMode::Ground),
            )
        });

        let mut yields = Vec::new();
        for k in MC_SCALES {
            let model = MismatchModel::local_90nm().scaled(k);
            let y = tr
                .span("core.mc", || {
                    monte_carlo_yield(&mut ctx, &supply, sk, &typ, &model, MC_TRIALS)
                })
                .map_err(fail("monte carlo"))?;
            tr.count("core.mc_instances", MC_TRIALS as u64);
            yields.push(y);
        }
        let mut characteristics = Vec::new();
        for array in [&supply, &ground] {
            for code in DelayCode::all() {
                let ch = tr
                    .span("core.characterize", || {
                        array_characteristic(&mut ctx, array, pg, code, &typ)
                    })
                    .map_err(fail("characteristic"))?;
                characteristics.push(ch);
            }
        }
        let mut trims = Vec::new();
        for pvt in corners() {
            let t = tr
                .span("core.characterize", || {
                    trim_for_corner(&mut ctx, &supply, pg, code011(), &typ, &pvt)
                })
                .map_err(fail("trim"))?;
            trims.push(t);
        }

        let gate = &self.sensor.gate;
        let mut lctx = RunCtx::serial();
        let golden = tr
            .span("netlist.sweep", || {
                RAILS
                    .iter()
                    .map(|&v| gate.measure(&mut lctx, Voltage::from_v(v), sk))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(fail("golden"))?;
        let mut faults = vec![(false, 0); self.plans.len()];
        for (ix, chunk) in &self.words {
            let mut per_rail = Vec::with_capacity(RAILS.len());
            for &v in &RAILS {
                let lanes = tr
                    .span("netlist.sweep", || {
                        gate.measure_batch(&mut lctx, Voltage::from_v(v), sk, chunk)
                    })
                    .map_err(fail("batched measure"))?;
                let sim = lctx
                    .batch_pool()
                    .get_or_insert_with(gate.netlist(), || gate.make_batch_sim())
                    .map_err(fail("batch simulator"))?;
                tr.count(
                    "netlist.events",
                    sim.stats().events[..chunk.len()].iter().sum(),
                );
                tr.count(
                    "netlist.dead_lanes",
                    lanes.iter().filter(|r| r.is_err()).count() as u64,
                );
                per_rail.push(lanes);
            }
            tr.count("netlist.plans", chunk.len() as u64);
            tr.span("bench.score", || {
                for (l, &plan) in ix.iter().enumerate() {
                    let senses: Vec<Option<&ThermometerCode>> = per_rail
                        .iter()
                        .map(|lanes| lanes[l].as_ref().ok().map(|(sense, _)| sense))
                        .collect();
                    faults[plan] = score(&senses, &golden);
                }
            });
        }
        Ok(Characterized {
            yields,
            characteristics,
            trims,
            golden,
            faults,
        })
    }
}

impl Bench for Characterize {
    fn run(&mut self) -> Result<(), String> {
        self.last = Some(self.characterize(&mut Tracer::off())?);
        Ok(())
    }

    fn check(&self, ch: &mut Checks) -> Work {
        let Some(got) = &self.last else {
            return Work::default();
        };
        let want = &self.reference;
        for (k, (g, r)) in got.yields.iter().zip(&want.yields).enumerate() {
            ch.check(g == r, || {
                format!(
                    "yield at sigma scale {} differs from the scalar Monte-Carlo",
                    MC_SCALES[k]
                )
            });
        }
        for (g, r) in got.characteristics.iter().zip(&want.characteristics) {
            ch.check(g == r, || {
                format!(
                    "characteristic of code {} differs from the scalar thresholds",
                    r.code
                )
            });
        }
        for (k, (g, r)) in got.trims.iter().zip(&want.trims).enumerate() {
            ch.check(g == r, || {
                format!("trim of corner {k} differs from the reference")
            });
        }
        ch.check(got.golden == want.golden, || "golden codes differ".into());
        ch.check(
            got.yields.len() == want.yields.len()
                && got.characteristics.len() == want.characteristics.len()
                && got.trims.len() == want.trims.len()
                && got.faults.len() == want.faults.len(),
            || "characterization shape differs".into(),
        );
        let detected = |f: &[(bool, usize)]| f.iter().filter(|(d, _)| *d).count();
        ch.check(detected(&got.faults) == detected(&want.faults), || {
            format!(
                "{} faults detected, the scalar sweep detects {}",
                detected(&got.faults),
                detected(&want.faults)
            )
        });
        for (k, (g, r)) in got.faults.iter().zip(&want.faults).enumerate() {
            ch.check(g == r, || {
                format!("fault plan {k}: batched verdict {g:?}, scalar {r:?}")
            });
        }
        Work {
            cycles: 0,
            codes: ((1 + got.faults.len()) * RAILS.len()) as u64,
        }
    }

    fn traced(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let got = self.characterize(tr)?;
        if self.last.as_ref() != Some(&got) {
            return Err("traced sensor-characterize differs from the untraced run".into());
        }
        Ok(())
    }
}
