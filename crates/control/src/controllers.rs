//! The built-in mitigation policies.
//!
//! All four controllers share the same skeleton: reduce each
//! [`ControlFrame`](crate::ControlFrame) to per-domain worst levels
//! ([`ControlFrame::domain_min_levels`](crate::ControlFrame::domain_min_levels)),
//! then update per-domain actuator state. A domain whose every monitor
//! site degraded this cycle reads `None` and **holds** its previous
//! state — the loop never desyncs on a lost frame.
//!
//! The threshold controllers engage when the worst level sinks to
//! `engage_below` or lower and release only once it recovers to
//! `release_at` or higher, with `release_at > engage_below` enforced at
//! construction: the mandatory hysteresis band is what prevents
//! limit-cycling when a code hovers at one threshold (the stability
//! proptests in the workspace pin this at every tested latency).
//!
//! Hysteresis alone is not enough once the loop is closed: the
//! actuation *itself* lifts the observed code (a boosted rail reads
//! healthy), so a bare threshold releases one frame after engaging and
//! the next droop lands on a neutral domain. The `with_hold` dwell —
//! a minimum number of engaged frames before release is allowed —
//! keeps a domain actuated across the burst that triggered it, exactly
//! like the programmable stretch-hold window of a hardware droop
//! mitigator.

use psnt_cells::units::Voltage;
use serde::{Deserialize, Serialize};

use crate::{Actuation, ControlError, ControlFrame, Mitigator, MAX_BOOST_V, MIN_STRETCH};

/// Implements the [`Mitigator`] checkpoint hooks for a controller that
/// is `Serialize + Deserialize`: the snapshot is the whole controller
/// (configuration and mutable state), so a restored controller resumes
/// exactly where the captured one stopped. `$config` maps a controller
/// to its configuration; a snapshot whose configuration differs from
/// the wired controller's is refused, leaving the controller untouched.
macro_rules! serde_state_hooks {
    ($config:expr) => {
        fn state_snapshot(&self) -> Option<String> {
            Some(serde::json::to_string(self))
        }

        fn restore_state(&mut self, snapshot: &str) -> bool {
            let config = $config;
            match serde::json::from_str::<Self>(snapshot) {
                Ok(restored) if config(&restored) == config(self) => {
                    *self = restored;
                    true
                }
                _ => false,
            }
        }
    };
}

/// Validates a hysteresis band shared by the threshold controllers.
fn validate_band(engage_below: usize, release_at: usize) -> Result<(), ControlError> {
    if release_at <= engage_below {
        return Err(ControlError::InvalidConfig {
            name: "release_at",
            reason: format!(
                "release level {release_at} must sit strictly above engage level \
                 {engage_below} (hysteresis prevents limit cycles)"
            ),
        });
    }
    Ok(())
}

/// Per-domain engage/release state machine with hysteresis and a
/// minimum engagement dwell.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Hysteresis {
    engage_below: usize,
    release_at: usize,
    hold: usize,
    engaged: Vec<bool>,
    dwell: Vec<usize>,
}

impl Hysteresis {
    /// The band, the dwell and the domain count — everything but the
    /// per-domain state.
    fn config(&self) -> (usize, usize, usize, usize) {
        (
            self.engage_below,
            self.release_at,
            self.hold,
            self.engaged.len(),
        )
    }

    fn new(domains: usize, engage_below: usize, release_at: usize) -> Hysteresis {
        Hysteresis {
            engage_below,
            release_at,
            hold: 0,
            engaged: vec![false; domains],
            dwell: vec![0; domains],
        }
    }

    /// Steps every domain against its worst level; `None` holds.
    ///
    /// Engaging arms a per-domain dwell counter of `hold` frames (an
    /// engage-qualifying reading re-arms it); release is refused until
    /// the counter drains, so an actuation that lifts its own reading
    /// cannot release one frame after engaging.
    fn step(&mut self, mins: &[Option<usize>]) {
        for (d, min) in mins.iter().enumerate() {
            if self.engaged[d] {
                self.dwell[d] = self.dwell[d].saturating_sub(1);
            }
            match min {
                Some(l) if *l <= self.engage_below => {
                    self.engaged[d] = true;
                    self.dwell[d] = self.hold;
                }
                Some(l) if *l >= self.release_at && self.dwell[d] == 0 => {
                    self.engaged[d] = false;
                }
                _ => {} // inside the band, or degraded: hold
            }
        }
    }
}

/// Threshold-triggered clock stretch: while a domain's worst
/// thermometer level sits at or below `engage_below`, the domain's
/// activity is scaled by `scale` (its clock stretched by `1/scale`),
/// spending less switching current per cycle until the rail recovers
/// past `release_at`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdStretch {
    scale: f64,
    hysteresis: Hysteresis,
}

impl ThresholdStretch {
    /// A stretch controller over `domains` power domains.
    ///
    /// # Errors
    ///
    /// [`ControlError::InvalidConfig`] when `release_at <= engage_below`
    /// or `scale` is outside `[`[`MIN_STRETCH`]`, 1)`.
    pub fn new(
        domains: usize,
        engage_below: usize,
        release_at: usize,
        scale: f64,
    ) -> Result<ThresholdStretch, ControlError> {
        validate_band(engage_below, release_at)?;
        if !scale.is_finite() || !(MIN_STRETCH..1.0).contains(&scale) {
            return Err(ControlError::InvalidConfig {
                name: "scale",
                reason: format!("stretch scale {scale} must be in [{MIN_STRETCH}, 1)"),
            });
        }
        Ok(ThresholdStretch {
            scale,
            hysteresis: Hysteresis::new(domains, engage_below, release_at),
        })
    }

    /// Sets the minimum engagement dwell: once a domain engages, it
    /// stays stretched for at least `frames` observed frames (the
    /// default `0` releases as soon as the code recovers).
    #[must_use]
    pub fn with_hold(mut self, frames: usize) -> ThresholdStretch {
        self.hysteresis.hold = frames;
        self
    }
}

impl Mitigator for ThresholdStretch {
    fn name(&self) -> &'static str {
        "threshold-stretch"
    }

    fn observe(&mut self, frame: &ControlFrame, act: &mut Actuation) {
        let mins = frame.domain_min_levels(act.domains());
        self.hysteresis.step(&mins);
        for (d, engaged) in self.hysteresis.engaged.iter().enumerate() {
            act.set_stretch(d, if *engaged { self.scale } else { 1.0 });
        }
    }

    serde_state_hooks!(|c: &Self| (c.scale, c.hysteresis.config()));
}

/// Threshold-triggered load throttle: while engaged, a domain's new
/// traffic injections are held back (deferred, not dropped) so its
/// switching current stops growing; held flits drain once the rail
/// recovers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThresholdThrottle {
    hysteresis: Hysteresis,
}

impl ThresholdThrottle {
    /// A throttle controller over `domains` power domains.
    ///
    /// # Errors
    ///
    /// [`ControlError::InvalidConfig`] when `release_at <= engage_below`.
    pub fn new(
        domains: usize,
        engage_below: usize,
        release_at: usize,
    ) -> Result<ThresholdThrottle, ControlError> {
        validate_band(engage_below, release_at)?;
        Ok(ThresholdThrottle {
            hysteresis: Hysteresis::new(domains, engage_below, release_at),
        })
    }

    /// Sets the minimum engagement dwell: once a domain engages, it
    /// stays throttled for at least `frames` observed frames (the
    /// default `0` releases as soon as the code recovers).
    #[must_use]
    pub fn with_hold(mut self, frames: usize) -> ThresholdThrottle {
        self.hysteresis.hold = frames;
        self
    }
}

impl Mitigator for ThresholdThrottle {
    fn name(&self) -> &'static str {
        "threshold-throttle"
    }

    fn observe(&mut self, frame: &ControlFrame, act: &mut Actuation) {
        let mins = frame.domain_min_levels(act.domains());
        self.hysteresis.step(&mins);
        for (d, engaged) in self.hysteresis.engaged.iter().enumerate() {
            act.set_throttle(d, *engaged);
        }
    }

    serde_state_hooks!(|c: &Self| c.hysteresis.config());
}

/// Threshold-triggered supply boost: while engaged, the domain's rail
/// is stepped up by a fixed `boost` (a header-switch / LDO step),
/// directly offsetting the IR droop the codes reported.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupplyBoost {
    boost_v: f64,
    hysteresis: Hysteresis,
}

impl SupplyBoost {
    /// A boost controller over `domains` power domains.
    ///
    /// # Errors
    ///
    /// [`ControlError::InvalidConfig`] when `release_at <= engage_below`
    /// or `boost` is outside `(0, `[`MAX_BOOST_V`]`]` volts.
    pub fn new(
        domains: usize,
        engage_below: usize,
        release_at: usize,
        boost: Voltage,
    ) -> Result<SupplyBoost, ControlError> {
        validate_band(engage_below, release_at)?;
        let boost_v = boost.volts();
        if !boost_v.is_finite() || boost_v <= 0.0 || boost_v > MAX_BOOST_V {
            return Err(ControlError::InvalidConfig {
                name: "boost",
                reason: format!("boost {boost_v} V must be in (0, {MAX_BOOST_V}] V"),
            });
        }
        Ok(SupplyBoost {
            boost_v,
            hysteresis: Hysteresis::new(domains, engage_below, release_at),
        })
    }

    /// Sets the minimum engagement dwell: once a domain engages, its
    /// rail stays boosted for at least `frames` observed frames (the
    /// default `0` releases as soon as the code recovers — which, for
    /// a boost that lifts its own reading, is the very next frame).
    #[must_use]
    pub fn with_hold(mut self, frames: usize) -> SupplyBoost {
        self.hysteresis.hold = frames;
        self
    }
}

impl Mitigator for SupplyBoost {
    fn name(&self) -> &'static str {
        "supply-boost"
    }

    fn observe(&mut self, frame: &ControlFrame, act: &mut Actuation) {
        let mins = frame.domain_min_levels(act.domains());
        self.hysteresis.step(&mins);
        for (d, engaged) in self.hysteresis.engaged.iter().enumerate() {
            act.set_boost(d, if *engaged { self.boost_v } else { 0.0 });
        }
    }

    serde_state_hooks!(|c: &Self| (c.boost_v, c.hysteresis.config()));
}

/// A proportional-integral supply boost with anti-windup.
///
/// Per domain, the error is `target_level − worst_level` (positive when
/// the rail droops below target); the boost applied is
/// `kp·err + integral`, the integral accumulating `ki·err` per
/// observed frame. Two guards keep the loop stable:
///
/// * **anti-windup** — the integral is clamped into
///   `[0, `[`MAX_BOOST_V`]`]`, so a saturated actuator cannot wind the
///   integral into a post-transient overshoot;
/// * **deadband** — errors of magnitude at most `deadband` hold the
///   output instead of updating it, so the quantised thermometer level
///   flickering one code around target cannot drive a limit cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PiBoost {
    target_level: f64,
    kp: f64,
    ki: f64,
    deadband: f64,
    integral: Vec<f64>,
    output: Vec<f64>,
}

impl PiBoost {
    /// A PI boost controller over `domains` power domains holding each
    /// domain's worst level at `target_level`, with gains `kp` and
    /// `ki` in volts per thermometer level and a one-code default
    /// deadband.
    ///
    /// # Errors
    ///
    /// [`ControlError::InvalidConfig`] for non-finite or negative
    /// gains, or both gains zero.
    pub fn new(
        domains: usize,
        target_level: f64,
        kp: f64,
        ki: f64,
    ) -> Result<PiBoost, ControlError> {
        for (name, g) in [("kp", kp), ("ki", ki)] {
            if !g.is_finite() || g < 0.0 {
                return Err(ControlError::InvalidConfig {
                    name,
                    reason: format!("gain {g} must be finite and non-negative"),
                });
            }
        }
        if kp == 0.0 && ki == 0.0 {
            return Err(ControlError::InvalidConfig {
                name: "kp/ki",
                reason: "at least one gain must be positive".into(),
            });
        }
        if !target_level.is_finite() || target_level < 0.0 {
            return Err(ControlError::InvalidConfig {
                name: "target_level",
                reason: format!("target level {target_level} must be finite and non-negative"),
            });
        }
        Ok(PiBoost {
            target_level,
            kp,
            ki,
            deadband: 1.0,
            integral: vec![0.0; domains],
            output: vec![0.0; domains],
        })
    }

    /// Overrides the default one-code deadband (`0` disables it).
    #[must_use]
    pub fn with_deadband(mut self, deadband: f64) -> PiBoost {
        self.deadband = deadband.max(0.0);
        self
    }

    /// The current integral term of `domain`, volts (diagnostics; the
    /// anti-windup clamp keeps it inside `[0, `[`MAX_BOOST_V`]`]`).
    pub fn integral(&self, domain: usize) -> f64 {
        self.integral[domain]
    }
}

impl Mitigator for PiBoost {
    fn name(&self) -> &'static str {
        "pi-boost"
    }

    fn observe(&mut self, frame: &ControlFrame, act: &mut Actuation) {
        let mins = frame.domain_min_levels(act.domains());
        for (d, min) in mins.iter().enumerate() {
            let Some(level) = min else {
                // Degraded domain: hold integral and output.
                act.set_boost(d, self.output[d]);
                continue;
            };
            let err = self.target_level - *level as f64;
            if err.abs() > self.deadband {
                // Conditional integration with clamping: the integral
                // never exceeds what the actuator can deliver.
                self.integral[d] = (self.integral[d] + self.ki * err).clamp(0.0, MAX_BOOST_V);
                self.output[d] = (self.kp * err + self.integral[d]).clamp(0.0, MAX_BOOST_V);
            }
            act.set_boost(d, self.output[d]);
        }
    }

    serde_state_hooks!(|c: &Self| (c.target_level, c.kp, c.ki, c.deadband, c.integral.len()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SiteReading;

    fn frame(cycle: u64, levels: &[Option<usize>]) -> ControlFrame {
        ControlFrame {
            cycle,
            readings: levels
                .iter()
                .enumerate()
                .map(|(domain, &level)| SiteReading { domain, level })
                .collect(),
        }
    }

    #[test]
    fn hysteresis_band_is_mandatory() {
        assert!(ThresholdStretch::new(4, 2, 2, 0.5).is_err());
        assert!(ThresholdThrottle::new(4, 3, 3).is_err());
        assert!(SupplyBoost::new(4, 2, 2, Voltage::from_mv(50.0)).is_err());
        assert!(ThresholdStretch::new(4, 2, 4, 0.5).is_ok());
    }

    #[test]
    fn config_bounds_rejected() {
        assert!(ThresholdStretch::new(4, 2, 4, 1.0).is_err());
        assert!(ThresholdStretch::new(4, 2, 4, 0.1).is_err());
        assert!(SupplyBoost::new(4, 2, 4, Voltage::from_v(0.5)).is_err());
        assert!(SupplyBoost::new(4, 2, 4, Voltage::ZERO).is_err());
        assert!(PiBoost::new(4, 5.0, -0.1, 0.0).is_err());
        assert!(PiBoost::new(4, 5.0, 0.0, 0.0).is_err());
        assert!(PiBoost::new(4, 5.0, 0.02, 0.005).is_ok());
    }

    #[test]
    fn threshold_stretch_engages_and_releases_with_hysteresis() {
        let mut c = ThresholdStretch::new(2, 2, 4, 0.5).unwrap();
        let mut act = Actuation::neutral(2);
        c.observe(&frame(0, &[Some(6), Some(6)]), &mut act);
        assert!(act.is_neutral());
        // Domain 1 droops to level 2 → engaged.
        c.observe(&frame(1, &[Some(6), Some(2)]), &mut act);
        assert_eq!(act.stretch(1), 0.5);
        assert_eq!(act.stretch(0), 1.0);
        // Level 3 is inside the band → still engaged (no chattering).
        c.observe(&frame(2, &[Some(6), Some(3)]), &mut act);
        assert_eq!(act.stretch(1), 0.5);
        // Recovered to 4 → released.
        c.observe(&frame(3, &[Some(6), Some(4)]), &mut act);
        assert_eq!(act.stretch(1), 1.0);
    }

    #[test]
    fn hold_dwell_refuses_early_release() {
        // A boost lifts its own reading: without a dwell the loop
        // would release one frame after engaging.
        let mut c = SupplyBoost::new(1, 2, 4, Voltage::from_mv(60.0))
            .unwrap()
            .with_hold(3);
        let mut act = Actuation::neutral(1);
        c.observe(&frame(0, &[Some(1)]), &mut act);
        assert!(act.boost(0) > 0.0);
        // The boosted rail reads healthy, but the dwell pins the
        // actuation through frame 2 (three engaged frames total)...
        for cycle in 1..=2 {
            c.observe(&frame(cycle, &[Some(7)]), &mut act);
            assert!(act.boost(0) > 0.0, "released during dwell (frame {cycle})");
        }
        // ...after which a healthy reading releases it.
        c.observe(&frame(3, &[Some(7)]), &mut act);
        assert_eq!(act.boost(0), 0.0);
        // An engage-qualifying reading mid-dwell re-arms the timer.
        let mut c = ThresholdStretch::new(1, 2, 4, 0.5).unwrap().with_hold(2);
        let mut act = Actuation::neutral(1);
        c.observe(&frame(0, &[Some(1)]), &mut act);
        c.observe(&frame(1, &[Some(1)]), &mut act); // re-arms
        c.observe(&frame(2, &[Some(7)]), &mut act);
        assert_eq!(act.stretch(0), 0.5, "dwell re-armed by second engage");
        c.observe(&frame(3, &[Some(7)]), &mut act);
        assert_eq!(act.stretch(0), 1.0);
    }

    #[test]
    fn degraded_domain_holds_previous_actuation() {
        let mut c = ThresholdThrottle::new(1, 2, 4).unwrap();
        let mut act = Actuation::neutral(1);
        c.observe(&frame(0, &[Some(1)]), &mut act);
        assert!(act.throttled(0));
        // The domain's only site degrades: the throttle must hold, not
        // reset — a lost frame cannot desync the loop.
        c.observe(&frame(1, &[None]), &mut act);
        assert!(act.throttled(0));
        c.observe(&frame(2, &[Some(6)]), &mut act);
        assert!(!act.throttled(0));
    }

    #[test]
    fn supply_boost_applies_fixed_step() {
        let mut c = SupplyBoost::new(1, 2, 4, Voltage::from_mv(60.0)).unwrap();
        let mut act = Actuation::neutral(1);
        c.observe(&frame(0, &[Some(2)]), &mut act);
        assert!((act.boost(0) - 0.060).abs() < 1e-12);
        c.observe(&frame(1, &[Some(5)]), &mut act);
        assert_eq!(act.boost(0), 0.0);
    }

    #[test]
    fn state_snapshots_roundtrip_mid_run() {
        // Drive each controller into a non-trivial state, snapshot,
        // restore onto a fresh instance, and check both produce the
        // same actuation stream afterwards.
        let droop = frame(0, &[Some(1), Some(6)]);
        let recover = |c| frame(c, &[Some(7), Some(7)]);
        let mut act = Actuation::neutral(2);

        let mut a = ThresholdStretch::new(2, 2, 4, 0.5).unwrap().with_hold(3);
        a.observe(&droop, &mut act);
        let snap = a.state_snapshot().expect("serializable policy");
        let mut b = ThresholdStretch::new(2, 2, 4, 0.5).unwrap().with_hold(3);
        assert!(b.restore_state(&snap));
        assert_eq!(a, b);
        for c in 1..6u64 {
            let (mut aa, mut ba) = (Actuation::neutral(2), Actuation::neutral(2));
            a.observe(&recover(c), &mut aa);
            b.observe(&recover(c), &mut ba);
            assert_eq!(aa, ba, "frame {c}");
        }

        let mut p = PiBoost::new(2, 5.0, 0.01, 0.05).unwrap();
        for c in 0..10u64 {
            p.observe(&frame(c, &[Some(0), Some(7)]), &mut act);
        }
        let snap = p.state_snapshot().unwrap();
        let mut q = PiBoost::new(2, 5.0, 0.01, 0.05).unwrap();
        assert!(q.restore_state(&snap));
        assert_eq!(p.integral(0), q.integral(0), "integral state restored");

        // Garbage payloads are refused and leave state untouched.
        let before = q.clone();
        assert!(!q.restore_state("not json"));
        assert_eq!(q, before);
    }

    #[test]
    fn pi_boost_integrates_with_anti_windup() {
        let mut c = PiBoost::new(1, 5.0, 0.01, 0.05).unwrap().with_deadband(0.0);
        let mut act = Actuation::neutral(1);
        // Persistent deep droop: integral climbs but clamps at the
        // actuator's authority instead of winding up.
        for cycle in 0..200 {
            c.observe(&frame(cycle, &[Some(0)]), &mut act);
            assert!(act.boost(0) <= MAX_BOOST_V + 1e-12);
            assert!(c.integral(0) <= MAX_BOOST_V + 1e-12);
        }
        assert!((act.boost(0) - MAX_BOOST_V).abs() < 1e-9, "saturated");
        // Recovery above target unwinds promptly — no overshoot tail
        // beyond the clamped integral.
        for cycle in 200..600 {
            c.observe(&frame(cycle, &[Some(7)]), &mut act);
        }
        assert_eq!(act.boost(0), 0.0, "integral unwound after recovery");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// No limit cycling: under a *constant* observed level —
            /// any level, any hysteresis band — every controller's
            /// actuation settles within two frames and never toggles
            /// again. (Closed-loop stability at each response latency
            /// is pinned by the workspace-level proptests.)
            #[test]
            fn threshold_controllers_settle_under_constant_input(
                level in 0usize..8,
                engage in 0usize..6,
                gap in 1usize..3,
            ) {
                let release = engage + gap;
                let mut stretch = ThresholdStretch::new(3, engage, release, 0.5).unwrap();
                let mut throttle = ThresholdThrottle::new(3, engage, release).unwrap();
                let mut boost = SupplyBoost::new(3, engage, release, Voltage::from_mv(50.0)).unwrap();
                let mut act = Actuation::neutral(3);
                let f = |c: u64| frame(c, &[Some(level), Some(level), Some(level)]);
                let mut history = Vec::new();
                for c in 0..32u64 {
                    stretch.observe(&f(c), &mut act);
                    throttle.observe(&f(c), &mut act);
                    boost.observe(&f(c), &mut act);
                    history.push(act.clone());
                }
                for later in &history[2..] {
                    prop_assert_eq!(later, &history[1], "actuation toggled after settling");
                }
            }

            /// The PI controller's output is monotone in the droop
            /// depth and always inside the actuator's authority.
            #[test]
            fn pi_boost_bounded_and_monotone(
                kp in 0.0f64..0.05,
                ki in 0.001f64..0.02,
            ) {
                let mut boosts = Vec::new();
                for level in 0..8usize {
                    let mut c = PiBoost::new(1, 7.0, kp, ki).unwrap().with_deadband(0.0);
                    let mut act = Actuation::neutral(1);
                    for cycle in 0..16 {
                        c.observe(&frame(cycle, &[Some(level)]), &mut act);
                        prop_assert!((0.0..=MAX_BOOST_V + 1e-12).contains(&act.boost(0)));
                    }
                    boosts.push(act.boost(0));
                }
                for pair in boosts.windows(2) {
                    prop_assert!(pair[0] >= pair[1] - 1e-12, "deeper droop must boost no less");
                }
            }
        }
    }
}
