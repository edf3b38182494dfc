//! The level-only read path is exact: [`LevelReader::level`] equals the
//! full measurement's encoded level on every rail, including rails
//! inside the guard band of a threshold and arrays whose thresholds are
//! out of order. The margin the guard band rests on — how far a
//! bisected threshold sits from the true pass/fail boundary of
//! `SenseElement::measure` — is pinned too, so a change to the
//! bisection or the delay model that erodes it fails here instead of
//! flipping a level.

use proptest::prelude::*;
use psnt_cells::process::Pvt;
use psnt_cells::units::{Time, Voltage};
use psnt_core::element::RailMode;
use psnt_core::encoder::{Encoder, EncodingPolicy};
use psnt_core::lanes::tol_v;
use psnt_core::mismatch::MismatchModel;
use psnt_core::pulsegen::{DelayCode, PulseGenerator};
use psnt_core::system::{SensorConfig, SensorSystem};
use psnt_core::thermometer::ThermometerArray;
use rand::rngs::StdRng;
use rand::SeedableRng;

const POLICIES: [EncodingPolicy; 2] = [EncodingPolicy::BubbleCorrect, EncodingPolicy::Truncate];

fn corners() -> [Pvt; 3] {
    [Pvt::typical(), Pvt::slow(), Pvt::fast()]
}

fn config(code: u8, pvt: Pvt, encoding: EncodingPolicy) -> SensorConfig {
    let code = DelayCode::new(code).unwrap();
    SensorConfig {
        hs_code: code,
        ls_code: code,
        pvt,
        encoding,
        ..SensorConfig::default()
    }
}

fn measured_level(system: &SensorSystem, vdd: Voltage) -> usize {
    system
        .measure_value(vdd, Voltage::from_v(0.0), Time::from_ns(1.0))
        .unwrap()
        .hs_word
        .level
}

/// Rails from two guard bands below to two guard bands above `th`, in
/// steps of a twentieth of the band.
fn around(th: Voltage) -> impl Iterator<Item = Voltage> {
    let step = tol_v() / 20.0;
    (-40..=40).map(move |k| Voltage::from_v(th.volts() + f64::from(k) * step))
}

#[test]
fn dense_sweep_around_every_threshold_matches_measure_value() {
    let pg = PulseGenerator::paper_table();
    for code in 0..8 {
        for pvt in corners() {
            for policy in POLICIES {
                let system = SensorSystem::new(config(code, pvt, policy)).unwrap();
                let mut reader = system.level_reader().unwrap();
                let skew = pg.skew(system.config().hs_code, &pvt);
                for th in system.hs_array().thresholds(skew, &pvt).unwrap() {
                    for v in around(th) {
                        assert_eq!(
                            reader.level(v),
                            measured_level(&system, v),
                            "code {code}, {pvt:?}, {policy:?}: rail {v} by threshold {th}"
                        );
                    }
                }
                let n = reader.counts();
                assert!(n.guard_evals > 0, "the sweep must cross the guard band");
                assert_eq!(n.fallbacks, 0, "the paper's array is monotone");

                // The LOW-SENSE array through the same reader type.
                let ls = system.ls_array();
                let skew = pg.skew(system.config().ls_code, &pvt);
                let encoder = Encoder::new(ls.bits(), policy).unwrap();
                let mut reader = ls.level_reader(skew, &pvt, encoder).unwrap();
                for th in ls.thresholds(skew, &pvt).unwrap() {
                    for g in around(th) {
                        assert_eq!(
                            reader.level(g),
                            encoder.encode(&ls.measure(g, skew, &pvt)).level,
                            "LS code {code}, {pvt:?}, {policy:?}: rail {g} by threshold {th}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn non_finite_rails_are_evaluated_in_full() {
    let system = SensorSystem::new(SensorConfig::default()).unwrap();
    let mut reader = system.level_reader().unwrap();
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let v = Voltage::from_v(v);
        assert_eq!(reader.level(v), measured_level(&system, v), "rail {v}");
    }
    assert_eq!(reader.counts().guard_evals, 3 * 7);
}

#[test]
fn inverted_mismatch_thresholds_take_the_encoder_fallback() {
    let pvt = Pvt::typical();
    let skew = PulseGenerator::paper_table().skew(DelayCode::new(3).unwrap(), &pvt);
    let paper = ThermometerArray::paper(RailMode::Supply);
    let model = MismatchModel::local_90nm().scaled(3.0);
    let mut rng = StdRng::seed_from_u64(2009);
    let array = (0..1000)
        .map(|_| model.perturb_array(&paper, &mut rng))
        .find(|a| {
            let th = a.thresholds(skew, &pvt).unwrap();
            th.windows(2).any(|w| w[1] < w[0])
        })
        .expect("a mismatched draw with inverted thresholds");
    let th = array.thresholds(skew, &pvt).unwrap();
    let lo = th
        .iter()
        .copied()
        .fold(Voltage::from_v(f64::INFINITY), Voltage::min);
    let hi = th
        .iter()
        .copied()
        .fold(Voltage::from_v(f64::NEG_INFINITY), Voltage::max);
    for policy in POLICIES {
        let encoder = Encoder::new(array.bits(), policy).unwrap();
        let mut reader = array.level_reader(skew, &pvt, encoder).unwrap();
        let span = (hi - lo).volts() + 0.04;
        let rails = (0..=4000)
            .map(|k| Voltage::from_v(lo.volts() - 0.02 + span * f64::from(k) / 4000.0))
            .chain(th.iter().flat_map(|&t| around(t)));
        for v in rails {
            assert_eq!(
                reader.level(v),
                encoder.encode(&array.measure(v, skew, &pvt)).level,
                "{policy:?}: rail {v}"
            );
        }
        assert!(
            reader.counts().fallbacks > 0,
            "rails between inverted thresholds must leave the thermometer pattern"
        );
    }
}

#[test]
fn threshold_margin_is_under_half_the_guard_band() {
    let pg = PulseGenerator::paper_table();
    let mut worst = 0.0f64;
    for code in 0..8 {
        let code = DelayCode::new(code).unwrap();
        for pvt in corners() {
            let skew = pg.skew(code, &pvt);
            for mode in [RailMode::Supply, RailMode::Ground] {
                let array = ThermometerArray::paper(mode);
                let th = array.thresholds(skew, &pvt).unwrap();
                for (e, t) in array.elements().iter().zip(th) {
                    // Bisect the rail at which `measure` flips, from a
                    // bracket 1 mV either side of the threshold.
                    let passes = |v: f64| e.measure(Voltage::from_v(v), skew, &pvt).passed;
                    let (mut a, mut b) = (t.volts() - 1e-3, t.volts() + 1e-3);
                    let pa = passes(a);
                    assert_ne!(pa, passes(b), "{code:?} {pvt:?} {mode:?}: no flip near {t}");
                    for _ in 0..60 {
                        let m = 0.5 * (a + b);
                        if passes(m) == pa {
                            a = m;
                        } else {
                            b = m;
                        }
                    }
                    worst = worst.max((t.volts() - 0.5 * (a + b)).abs());
                }
            }
        }
    }
    assert!(
        worst < tol_v() / 2.0,
        "worst threshold-to-boundary gap {:.3} µV, guard band {:.3} µV",
        worst * 1e6,
        tol_v() * 1e6
    );
}

proptest! {
    #[test]
    fn random_rails_match_measure_value(
        rails in proptest::collection::vec(0.5f64..1.4, 1..16),
        code in 0u8..8,
        corner in 0usize..3,
        bubble_correct in any::<bool>(),
    ) {
        let policy = POLICIES[usize::from(!bubble_correct)];
        let system = SensorSystem::new(config(code, corners()[corner], policy)).unwrap();
        let mut reader = system.level_reader().unwrap();
        for v in rails {
            let v = Voltage::from_v(v);
            prop_assert_eq!(reader.level(v), measured_level(&system, v), "rail {}", v);
        }
    }
}
