//! The multi-bit noise thermometer — paper Fig. 1 (right) and Fig. 5.
//!
//! Seven identical INV+FF elements share the same `P`/`CP` pulses; only
//! the load capacitor at each `DS-i` differs, rising along a ladder so
//! each flip-flop has a different failure threshold. The array output is
//! a [`ThermometerCode`] "proportional to the VDD-n value … in principle
//! similar to a flash A/D converter".
//!
//! Two ladders are provided:
//!
//! * [`CapacitorLadder::paper_fig5`] — calibrated so the delay-code-011
//!   thresholds land on the paper's published values (0.827, 0.896,
//!   0.929, …, 1.053 V);
//! * [`CapacitorLadder::linear`] — the idealised uniform ladder the paper
//!   describes ("the capacitor at DS-i increases linearly"), used by the
//!   ladder-design ablation.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::process::Pvt;
//! use psnt_cells::units::{Time, Voltage};
//! use psnt_core::element::RailMode;
//! use psnt_core::thermometer::{CapacitorLadder, ThermometerArray};
//!
//! let array = ThermometerArray::paper(RailMode::Supply);
//! let skew = Time::from_ps(149.0); // delay code 011
//! let code = array.measure(Voltage::from_v(1.0), skew, &Pvt::typical());
//! assert_eq!(code.to_string(), "0011111"); // paper Fig. 9, first measure
//! # let _ = CapacitorLadder::paper_fig5();
//! ```

use std::sync::Mutex;

use psnt_cells::logic::LogicVector;
use psnt_cells::process::Pvt;
use psnt_cells::units::{Capacitance, Time, Voltage};
use psnt_ctx::RunCtx;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::code::ThermometerCode;
use crate::element::{ElementReading, RailMode, SenseElement};
use crate::encoder::Encoder;
use crate::error::SensorError;

/// An ascending ladder of load capacitances, one per array element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacitorLadder {
    caps: Vec<Capacitance>,
}

impl CapacitorLadder {
    /// Builds a ladder from explicit values.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] when empty, non-positive or
    /// not strictly increasing.
    pub fn from_caps(caps: Vec<Capacitance>) -> Result<CapacitorLadder, SensorError> {
        if caps.is_empty() {
            return Err(SensorError::InvalidConfig {
                name: "ladder",
                reason: "must have at least one element".into(),
            });
        }
        if caps.iter().any(|&c| c <= Capacitance::ZERO) {
            return Err(SensorError::InvalidConfig {
                name: "ladder",
                reason: "capacitances must be positive".into(),
            });
        }
        if caps.windows(2).any(|w| w[1] <= w[0]) {
            return Err(SensorError::InvalidConfig {
                name: "ladder",
                reason: "capacitances must be strictly increasing".into(),
            });
        }
        Ok(CapacitorLadder { caps })
    }

    /// The idealised uniform ladder: `c0, c0+step, …` for `n` elements.
    ///
    /// # Errors
    ///
    /// Propagates [`CapacitorLadder::from_caps`] validation.
    pub fn linear(
        c0: Capacitance,
        step: Capacitance,
        n: usize,
    ) -> Result<CapacitorLadder, SensorError> {
        CapacitorLadder::from_caps((0..n).map(|i| c0 + step * i as f64).collect())
    }

    /// The 7-element ladder calibrated against the paper's Fig. 5
    /// (delay code 011 characteristics): thresholds at 0.827 / 0.896 /
    /// 0.929 / 0.961 / 0.992 / 1.021 / 1.053 V. Nearly linear with a
    /// slightly larger first step, as the published boundaries imply.
    pub fn paper_fig5() -> CapacitorLadder {
        CapacitorLadder {
            caps: [1.7504, 1.9129, 1.9861, 2.0541, 2.1179, 2.1756, 2.2373]
                .into_iter()
                .map(Capacitance::from_pf)
                .collect(),
        }
    }

    /// The capacitances, ascending.
    pub fn caps(&self) -> &[Capacitance] {
        &self.caps
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// `true` when empty (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }
}

/// A decoded voltage interval for a thermometer code: the rail lies
/// between `lower` and `upper` (either side open-ended at the dynamic
/// range boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodeInterval {
    /// Greatest threshold at or below the rail (absent at underflow).
    pub lower: Option<Voltage>,
    /// Smallest threshold above the rail (absent at overflow).
    pub upper: Option<Voltage>,
}

impl CodeInterval {
    /// The interval midpoint, when both bounds exist.
    pub fn midpoint(&self) -> Option<Voltage> {
        match (self.lower, self.upper) {
            (Some(a), Some(b)) => Some(a.lerp(b, 0.5)),
            _ => None,
        }
    }

    /// `true` when `v` is inside the (half-open) interval.
    pub fn contains(&self, v: Voltage) -> bool {
        self.lower.is_none_or(|lo| v >= lo) && self.upper.is_none_or(|hi| v < hi)
    }
}

/// Bounded memo for the per-element threshold search: the array's
/// thresholds are a pure function of `(skew, pvt)` (and the elements,
/// which are immutable post-construction), and virtually every caller —
/// `decode`, [`crate::system::SensorSystem`], the scan campaign, the
/// equivalent-time sampler — re-asks at a handful of operating points
/// many times. Each miss costs seven bisection searches (~18 `powf`
/// evaluations apiece), so the memo removes the dominant cost of repeat
/// decodes. A small move-to-front map (rather than the original
/// single-entry memo) keeps alternating-corner sweeps — e.g.
/// `calibration::trim_for_corner` bouncing between the reference and
/// corner PVT points — from thrashing the cache.
///
/// A `Mutex` (not a `RefCell`) keeps the array `Sync`: Monte-Carlo yield
/// closures capture `&ThermometerArray` across engine worker threads.
/// Key-based lookup makes invalidation automatic — a new skew or PVT
/// point simply misses and evicts the coldest entry — and perturbed
/// copies built through [`ThermometerArray::from_elements`] start with
/// a fresh (empty) memo. Hit/miss totals are tallied here and surfaced
/// through [`ThermometerArray::memo_stats`] so ctx-threaded callers can
/// fold them into a `MetricsRegistry`.
#[derive(Debug, Default)]
struct ThresholdMemo {
    state: Mutex<MemoState>,
}

/// Entries plus the hit/miss tally, guarded by one lock.
#[derive(Debug, Default)]
struct MemoState {
    entries: Vec<(Time, Pvt, Vec<Voltage>)>,
    hits: u64,
    misses: u64,
}

/// Distinct `(skew, pvt)` operating points retained per array. Sized
/// for the workloads in-tree: a trim sweep touches a reference plus a
/// few corners, a characterisation sweep one PVT point per code.
const THRESHOLD_MEMO_CAPACITY: usize = 8;

impl ThresholdMemo {
    fn get(&self, skew: Time, pvt: &Pvt) -> Option<Vec<Voltage>> {
        let mut state = self.state.lock().expect("threshold memo poisoned");
        match state
            .entries
            .iter()
            .position(|(s, p, _)| *s == skew && p == pvt)
        {
            Some(ix) => {
                state.hits += 1;
                // Move-to-front: the hottest operating points survive
                // eviction.
                let entry = state.entries.remove(ix);
                let thresholds = entry.2.clone();
                state.entries.insert(0, entry);
                Some(thresholds)
            }
            None => {
                state.misses += 1;
                None
            }
        }
    }

    fn put(&self, skew: Time, pvt: &Pvt, thresholds: &[Voltage]) {
        let mut state = self.state.lock().expect("threshold memo poisoned");
        if state.entries.iter().any(|(s, p, _)| *s == skew && p == pvt) {
            return;
        }
        if state.entries.len() >= THRESHOLD_MEMO_CAPACITY {
            state.entries.pop();
        }
        state.entries.insert(0, (skew, *pvt, thresholds.to_vec()));
    }

    fn stats(&self) -> (u64, u64) {
        let state = self.state.lock().expect("threshold memo poisoned");
        (state.hits, state.misses)
    }
}

/// A multi-bit sensor array: identical elements, rising loads.
#[derive(Debug, Serialize, Deserialize)]
pub struct ThermometerArray {
    elements: Vec<SenseElement>,
    mode: RailMode,
    #[serde(skip, default)]
    memo: ThresholdMemo,
}

impl Clone for ThermometerArray {
    fn clone(&self) -> ThermometerArray {
        ThermometerArray {
            elements: self.elements.clone(),
            mode: self.mode,
            memo: ThresholdMemo::default(),
        }
    }
}

impl PartialEq for ThermometerArray {
    fn eq(&self, other: &ThermometerArray) -> bool {
        // The memo is derived state; identity is elements + mode.
        self.elements == other.elements && self.mode == other.mode
    }
}

impl ThermometerArray {
    /// Builds an array of paper-calibrated elements over a ladder.
    pub fn new(ladder: &CapacitorLadder, mode: RailMode) -> ThermometerArray {
        ThermometerArray {
            elements: ladder
                .caps()
                .iter()
                .map(|&c| SenseElement::paper(c, mode))
                .collect(),
            mode,
            memo: ThresholdMemo::default(),
        }
    }

    /// The paper's 7-bit array ([`CapacitorLadder::paper_fig5`]).
    pub fn paper(mode: RailMode) -> ThermometerArray {
        ThermometerArray::new(&CapacitorLadder::paper_fig5(), mode)
    }

    /// Builds an array from explicit elements (e.g. mismatched copies
    /// from [`crate::mismatch`]). The caller is responsible for the
    /// intended load ordering — a mismatched array may legitimately have
    /// inverted thresholds, which is exactly what the yield analysis
    /// quantifies.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is empty or an element's rail mode differs
    /// from `mode`.
    pub fn from_elements(elements: Vec<SenseElement>, mode: RailMode) -> ThermometerArray {
        assert!(!elements.is_empty(), "array needs at least one element");
        assert!(
            elements.iter().all(|e| e.mode() == mode),
            "all elements must observe the same rail"
        );
        ThermometerArray {
            elements,
            mode,
            memo: ThresholdMemo::default(),
        }
    }

    /// Number of output bits.
    pub fn bits(&self) -> usize {
        self.elements.len()
    }

    /// The rail this array observes.
    pub fn mode(&self) -> RailMode {
        self.mode
    }

    /// The elements, in ascending-load order.
    pub fn elements(&self) -> &[SenseElement] {
        &self.elements
    }

    /// Performs one measurement; the code prints most-loaded element
    /// first, matching the paper's `0011111` notation.
    pub fn measure(&self, rail: Voltage, skew: Time, pvt: &Pvt) -> ThermometerCode {
        self.measure_detailed(rail, skew, pvt).0
    }

    /// Like [`ThermometerArray::measure`] but also returning each
    /// element's reading (ascending-load order).
    pub fn measure_detailed(
        &self,
        rail: Voltage,
        skew: Time,
        pvt: &Pvt,
    ) -> (ThermometerCode, Vec<ElementReading>) {
        let readings: Vec<ElementReading> = self
            .elements
            .iter()
            .map(|e| e.measure(rail, skew, pvt))
            .collect();
        (pack(readings.iter().map(|r| r.passed)), readings)
    }

    /// Stochastic variant: metastable boundary elements resolve randomly,
    /// occasionally producing bubble codes.
    pub fn measure_with_rng<R: Rng + ?Sized>(
        &self,
        rail: Voltage,
        skew: Time,
        pvt: &Pvt,
        rng: &mut R,
    ) -> ThermometerCode {
        let readings: Vec<ElementReading> = self
            .elements
            .iter()
            .map(|e| e.measure_with_rng(rail, skew, pvt, rng))
            .collect();
        pack(readings.iter().map(|r| r.passed))
    }

    /// Oversampled measurement: the mean *level* across `n` stochastic
    /// measures. Near a threshold, metastability dithers the boundary
    /// element, so the mean carries sub-LSB information about the rail —
    /// the stochastic-flash-ADC effect behind the paper's advice that
    /// "measures should be iterated".
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn oversampled_level<R: Rng + ?Sized>(
        &self,
        rail: Voltage,
        skew: Time,
        pvt: &Pvt,
        n: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(n > 0, "need at least one measure");
        let total: usize = (0..n)
            .map(|_| {
                self.measure_with_rng(rail, skew, pvt, rng)
                    .correct_bubbles()
                    .level()
            })
            .sum();
        total as f64 / n as f64
    }

    /// The analytic expectation of the (stochastic) level at a rail
    /// value: the sum of each element's capture probability given its DS
    /// arrival. This is the smooth transfer curve that oversampling
    /// samples — strictly monotone in the rail across the dynamic range,
    /// which is what makes sub-LSB inversion possible.
    pub fn expected_level(&self, rail: Voltage, skew: Time, pvt: &Pvt) -> f64 {
        self.elements()
            .iter()
            .map(|e| {
                let arrival = e.ds_delay(rail, pvt) - skew;
                let p_new = e.flip_flop().capture_probability(arrival);
                match self.mode {
                    // Capturing the SENSE transition is a pass for both
                    // modes; only the rail→arrival mapping differs (and
                    // ds_delay already encodes it).
                    RailMode::Supply | RailMode::Ground => p_new,
                }
            })
            .sum()
    }

    /// Inverts an oversampled mean level into a sub-LSB voltage estimate
    /// by bisecting the analytic [`ThermometerArray::expected_level`]
    /// curve. With the paper's array the metastability windows of
    /// adjacent elements overlap (±8 ps ≈ 70 mV vs ~30 mV element
    /// spacing), so several elements dither simultaneously; the expected-
    /// level curve accounts for all of them at once. Returns `None` when
    /// the mean sits at a saturated end (nothing to interpolate).
    ///
    /// # Errors
    ///
    /// Propagates threshold-search failures (used for the bisection
    /// bracket).
    pub fn decode_oversampled(
        &self,
        mean_level: f64,
        skew: Time,
        pvt: &Pvt,
    ) -> Result<Option<Voltage>, SensorError> {
        let bits = self.bits() as f64;
        if mean_level <= 0.0 || mean_level >= bits {
            return Ok(None);
        }
        let (range_lo, range_hi) = self.dynamic_range(skew, pvt)?;
        let margin = Voltage::from_mv(150.0);
        // Bisect along the direction of increasing level: HIGH-SENSE
        // level rises with the rail, LOW-SENSE with a *shrinking* bounce.
        let (mut lo, mut hi) = match self.mode {
            RailMode::Supply => (range_lo - margin, range_hi + margin),
            RailMode::Ground => (range_hi + margin, range_lo - margin),
        };
        for _ in 0..60 {
            let mid = lo.lerp(hi, 0.5);
            if self.expected_level(mid, skew, pvt) < mean_level {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(Some(lo.lerp(hi, 0.5)))
    }

    /// Per-element failure thresholds, ascending-load order. For
    /// HIGH-SENSE these rise with load; for LOW-SENSE (ground) they fall.
    ///
    /// The last `(skew, pvt)` result is memoised, so repeated decodes at
    /// one operating point — the common case for a system run or scan
    /// campaign — skip the per-element searches entirely. Misses solve
    /// every element at once through the 64-lane lockstep kernel
    /// ([`crate::lanes::solve`], one lane per element) — bit-identical
    /// to the per-element [`SenseElement::threshold`] calls, which share
    /// the same float program.
    ///
    /// # Errors
    ///
    /// Propagates [`SenseElement::threshold`] failures.
    pub fn thresholds(&self, skew: Time, pvt: &Pvt) -> Result<Vec<Voltage>, SensorError> {
        if let Some(hit) = self.memo.get(skew, pvt) {
            return Ok(hit);
        }
        let th = self.solve_thresholds(skew, pvt)?;
        self.memo.put(skew, pvt, &th);
        Ok(th)
    }

    /// The memo-miss path: all elements through the lanes kernel, 64 per
    /// solve call, lowest failing element reported exactly like the
    /// serial per-element sweep.
    fn solve_thresholds(&self, skew: Time, pvt: &Pvt) -> Result<Vec<Voltage>, SensorError> {
        use crate::lanes::{self, LaneTasks, LANES};
        let df = pvt.drive_factor();
        let mut th = Vec::with_capacity(self.elements.len());
        for chunk in self.elements.chunks(LANES) {
            let mut tasks = LaneTasks {
                n: chunk.len(),
                ..LaneTasks::default()
            };
            for (l, e) in chunk.iter().enumerate() {
                let (ac_ps, t_int_ps, vth_eff_v, alpha, window_ps) = e.lane_task(skew, pvt);
                tasks.ac_ps[l] = ac_ps;
                tasks.t_int_ps[l] = t_int_ps;
                tasks.vth_eff_v[l] = vth_eff_v;
                tasks.alpha[l] = alpha;
                tasks.window_ps[l] = window_ps;
            }
            let mut out = [0.0f64; LANES];
            let mask = if chunk.len() == LANES {
                u64::MAX
            } else {
                (1u64 << chunk.len()) - 1
            };
            let bad = lanes::solve(&tasks, df, &mut out) & mask;
            if bad != 0 {
                let l = bad.trailing_zeros() as usize;
                return Err(SensorError::ThresholdOutOfRange {
                    lo: lanes::lo_bound_v(tasks.vth_eff_v[l]),
                    hi: lanes::hi_bound_v(),
                });
            }
            th.extend(
                chunk
                    .iter()
                    .zip(&out)
                    .map(|(e, &v)| e.rail_from_effective(Voltage::from_v(v), pvt)),
            );
        }
        Ok(th)
    }

    /// [`ThermometerArray::thresholds`] threaded through a [`RunCtx`]:
    /// the call's memo hit/miss deltas are folded into the observer's
    /// metrics as the `thermometer.memo_hits` /
    /// `thermometer.memo_misses` counters.
    ///
    /// # Errors
    ///
    /// Propagates [`SenseElement::threshold`] failures.
    pub fn thresholds_ctx(
        &self,
        ctx: &mut RunCtx<'_>,
        skew: Time,
        pvt: &Pvt,
    ) -> Result<Vec<Voltage>, SensorError> {
        let (hits_before, misses_before) = self.memo.stats();
        let th = self.thresholds(skew, pvt)?;
        if let Some(obs) = ctx.observer() {
            let (hits, misses) = self.memo.stats();
            obs.metrics
                .counter_add("thermometer.memo_hits", hits - hits_before);
            obs.metrics
                .counter_add("thermometer.memo_misses", misses - misses_before);
        }
        Ok(th)
    }

    /// Lifetime hit/miss totals of the threshold memo, as
    /// `(hits, misses)`. Derived state only: clones and deserialised
    /// arrays restart at zero.
    pub fn memo_stats(&self) -> (u64, u64) {
        self.memo.stats()
    }

    /// The measurable span `(min, max)` of rail values: outside it the
    /// code saturates at all-0 / all-1.
    ///
    /// # Errors
    ///
    /// Propagates threshold-search failures.
    pub fn dynamic_range(&self, skew: Time, pvt: &Pvt) -> Result<(Voltage, Voltage), SensorError> {
        let th = self.thresholds(skew, pvt)?;
        let lo = th
            .iter()
            .copied()
            .fold(Voltage::from_v(f64::INFINITY), Voltage::min);
        let hi = th
            .iter()
            .copied()
            .fold(Voltage::from_v(f64::NEG_INFINITY), Voltage::max);
        Ok((lo, hi))
    }

    /// Decodes a measured code into the rail-voltage interval it implies
    /// (the inverse of the array characteristic). Bubbles are corrected
    /// first.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] when the code width does not
    /// match the array, and propagates threshold-search failures.
    pub fn decode(
        &self,
        code: &ThermometerCode,
        skew: Time,
        pvt: &Pvt,
    ) -> Result<CodeInterval, SensorError> {
        if code.width() != self.bits() {
            return Err(SensorError::InvalidConfig {
                name: "code",
                reason: format!(
                    "code width {} does not match array width {}",
                    code.width(),
                    self.bits()
                ),
            });
        }
        let mut asc = self.thresholds(skew, pvt)?;
        asc.sort_by(Voltage::total_cmp);
        let n = self.bits();
        let f = code.correct_bubbles().fail_count();
        Ok(match self.mode {
            RailMode::Supply => CodeInterval {
                // f elements fail ⇒ the rail sits between the (n−f)-th and
                // (n−f+1)-th ascending thresholds.
                lower: (f < n).then(|| asc[n - f - 1]),
                upper: (f > 0).then(|| asc[n - f]),
            },
            RailMode::Ground => CodeInterval {
                // Ground bounce fails *above* thresholds: f fails ⇒ the
                // bounce exceeds the f smallest thresholds.
                lower: (f > 0).then(|| asc[f - 1]),
                upper: (f < n).then(|| asc[f]),
            },
        })
    }

    /// The level-only read path at one operating point: resolves the
    /// per-element thresholds once (through the same memo as
    /// [`ThermometerArray::thresholds`]) and returns a [`LevelReader`]
    /// whose levels equal `encoder.encode(&self.measure(rail, skew,
    /// pvt)).level`.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] when the encoder width
    /// does not match the array, and propagates threshold-search
    /// failures.
    pub fn level_reader(
        &self,
        skew: Time,
        pvt: &Pvt,
        encoder: Encoder,
    ) -> Result<LevelReader, SensorError> {
        if encoder.width() != self.bits() {
            return Err(SensorError::InvalidConfig {
                name: "encoder",
                reason: format!(
                    "encoder width {} does not match array width {}",
                    encoder.width(),
                    self.bits()
                ),
            });
        }
        let thresholds = self.thresholds(skew, pvt)?;
        Ok(LevelReader {
            elements: thresholds
                .into_iter()
                .zip(self.elements.iter().copied())
                .collect(),
            mode: self.mode,
            skew,
            pvt: *pvt,
            encoder,
            passed: vec![false; self.bits()],
            counts: LevelCounts::default(),
        })
    }
}

/// Packs per-element pass bits (ascending-load order) into a code that
/// prints most-loaded element first.
fn pack(passed: impl DoubleEndedIterator<Item = bool>) -> ThermometerCode {
    let bits: LogicVector = passed.rev().map(psnt_cells::logic::Logic::from).collect();
    ThermometerCode::new(bits)
}

/// Work tallied by a [`LevelReader`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelCounts {
    /// Levels read.
    pub readings: u64,
    /// Elements evaluated in full because the rail sat inside the
    /// guard band of their threshold.
    pub guard_evals: u64,
    /// Readings whose pass bits were not a clean thermometer pattern
    /// and went through the encoder.
    pub fallbacks: u64,
}

/// The exact level-only read path of one array, built by
/// [`ThermometerArray::level_reader`].
///
/// Like the comparators of a flash ADC, each element's bit is decided
/// by which side of its threshold the rail lies: HIGH-SENSE passes
/// above its threshold, LOW-SENSE below, since an element's delay falls
/// monotonically with its effective supply. A threshold is the
/// midpoint of a bisection bracket narrower than
/// [`crate::lanes::tol_v`] (10 µV) and sits within half of that of the
/// true pass/fail boundary of [`SenseElement::measure`] (pinned by the
/// `level_exactness` suite), so within that guard band of a threshold
/// — and for a non-finite rail — the element is evaluated in full with
/// `measure` instead. When the bits form a clean thermometer pattern
/// (passes on the least-loaded elements only) the level is the pass
/// count, which both encoding policies report for a canonical code;
/// otherwise the code is packed and run through the encoder. The level
/// therefore equals `encoder.encode(&array.measure(rail, skew,
/// pvt)).level` by construction, at a fraction of its cost.
///
/// # Examples
///
/// ```
/// use psnt_cells::process::Pvt;
/// use psnt_cells::units::{Time, Voltage};
/// use psnt_core::element::RailMode;
/// use psnt_core::encoder::{Encoder, EncodingPolicy};
/// use psnt_core::thermometer::ThermometerArray;
///
/// let array = ThermometerArray::paper(RailMode::Supply);
/// let skew = Time::from_ps(149.0); // delay code 011
/// let encoder = Encoder::new(array.bits(), EncodingPolicy::BubbleCorrect)?;
/// let mut reader = array.level_reader(skew, &Pvt::typical(), encoder)?;
/// assert_eq!(reader.level(Voltage::from_v(1.0)), 5); // paper Fig. 9: 0011111
/// assert_eq!(reader.level(Voltage::from_v(0.9)), 2); // 0000011
/// # Ok::<(), psnt_core::error::SensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LevelReader {
    /// `(threshold, element)` pairs, ascending-load order.
    elements: Vec<(Voltage, SenseElement)>,
    mode: RailMode,
    skew: Time,
    pvt: Pvt,
    encoder: Encoder,
    /// Per-element pass bits of the current reading.
    passed: Vec<bool>,
    counts: LevelCounts,
}

impl LevelReader {
    /// The encoded thermometer level for a rail value.
    pub fn level(&mut self, rail: Voltage) -> usize {
        let guard = crate::lanes::tol_v();
        let v = rail.volts();
        self.counts.readings += 1;
        let mut level = 0;
        let mut clean = true;
        for (i, (th, e)) in self.elements.iter().enumerate() {
            let above = v - th.volts();
            let passed = if v.is_finite() && above.abs() > guard {
                (above > 0.0) == (self.mode == RailMode::Supply)
            } else {
                self.counts.guard_evals += 1;
                e.measure(rail, self.skew, &self.pvt).passed
            };
            self.passed[i] = passed;
            if passed {
                clean &= level == i;
                level += 1;
            }
        }
        if clean {
            return level;
        }
        self.counts.fallbacks += 1;
        self.encoder
            .encode(&pack(self.passed.iter().copied()))
            .level
    }

    /// The work tallied since the reader was built.
    pub fn counts(&self) -> LevelCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pvt() -> Pvt {
        Pvt::typical()
    }

    /// Delay code 011: 84 ps insertion + 65 ps tap.
    fn skew011() -> Time {
        Time::from_ps(149.0)
    }

    /// Delay code 010: 84 ps insertion + 50 ps tap.
    fn skew010() -> Time {
        Time::from_ps(134.0)
    }

    fn array() -> ThermometerArray {
        ThermometerArray::paper(RailMode::Supply)
    }

    #[test]
    fn ladder_validation() {
        let pf = Capacitance::from_pf;
        assert!(CapacitorLadder::from_caps(vec![]).is_err());
        assert!(CapacitorLadder::from_caps(vec![pf(1.0), pf(1.0)]).is_err());
        assert!(CapacitorLadder::from_caps(vec![pf(2.0), pf(1.0)]).is_err());
        assert!(CapacitorLadder::from_caps(vec![pf(0.0), pf(1.0)]).is_err());
        let lin = CapacitorLadder::linear(pf(1.75), Capacitance::from_ff(81.0), 7).unwrap();
        assert_eq!(lin.len(), 7);
        assert!((lin.caps()[6].picofarads() - 2.236).abs() < 1e-9);
    }

    #[test]
    fn paper_ladder_reproduces_fig5_thresholds() {
        // Paper Fig. 5 / §III-B, delay code 011: thresholds at
        // 0.827, 0.896, 0.929, (0.961), 0.992, 1.021, 1.053 V.
        let th = array().thresholds(skew011(), &pvt()).unwrap();
        let expected = [0.827, 0.896, 0.929, 0.961, 0.992, 1.021, 1.053];
        for (i, (&t, &e)) in th.iter().zip(&expected).enumerate() {
            assert!(
                (t.volts() - e).abs() < 0.003,
                "element {i}: threshold {t} vs paper {e} V"
            );
        }
    }

    #[test]
    fn fig5_dynamic_range_code_011() {
        // "the threshold range goes from 0.827 V (all errors) to 1.053 V
        // (no errors)".
        let (lo, hi) = array().dynamic_range(skew011(), &pvt()).unwrap();
        assert!((lo.volts() - 0.827).abs() < 0.003, "low end {lo}");
        assert!((hi.volts() - 1.053).abs() < 0.003, "high end {hi}");
    }

    #[test]
    fn fig5_dynamic_range_code_010_shifts_up() {
        // "In case the delay code is 010, the dynamic ranges from 0.951 V
        // to 1.237 V (also overvoltages can be measured)".
        let (lo, hi) = array().dynamic_range(skew010(), &pvt()).unwrap();
        assert!((lo.volts() - 0.951).abs() < 0.004, "low end {lo}");
        // Our alpha-power model puts the top at ≈1.25 V vs the paper's
        // 1.237 V (1.4 % — see DESIGN.md §2); assert the shape.
        assert!((hi.volts() - 1.237).abs() < 0.025, "high end {hi}");
        let (lo011, hi011) = array().dynamic_range(skew011(), &pvt()).unwrap();
        assert!(lo > lo011 && hi > hi011, "010 range must sit above 011");
    }

    #[test]
    fn fig9_measurement_codes() {
        // Paper Fig. 9, delay code 011: VDD-n = 1.0 V ⇒ 0011111,
        // VDD-n = 0.9 V ⇒ 0000011.
        let a = array();
        let first = a.measure(Voltage::from_v(1.0), skew011(), &pvt());
        assert_eq!(first.to_string(), "0011111");
        let second = a.measure(Voltage::from_v(0.9), skew011(), &pvt());
        assert_eq!(second.to_string(), "0000011");
    }

    #[test]
    fn level_reader_rejects_an_encoder_of_another_width() {
        let enc = Encoder::new(6, crate::encoder::EncodingPolicy::BubbleCorrect).unwrap();
        let err = array().level_reader(skew011(), &pvt(), enc).unwrap_err();
        assert!(
            matches!(
                err,
                SensorError::InvalidConfig {
                    name: "encoder",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn saturation_codes() {
        let a = array();
        let under = a.measure(Voltage::from_v(0.70), skew011(), &pvt());
        assert!(under.is_underflow());
        let over = a.measure(Voltage::from_v(1.20), skew011(), &pvt());
        assert!(over.is_overflow());
    }

    #[test]
    fn codes_are_canonical_and_monotone_in_voltage() {
        let a = array();
        let mut prev_level = 0;
        for mv in (700..=1200).step_by(5) {
            let code = a.measure(Voltage::from_mv(mv as f64), skew011(), &pvt());
            assert!(code.is_canonical(), "bubble at {mv} mV: {code}");
            assert!(
                code.level() >= prev_level,
                "level dropped at {mv} mV: {code}"
            );
            prev_level = code.level();
        }
        assert_eq!(prev_level, 7);
    }

    #[test]
    fn decode_inverts_measure() {
        // Paper: "0011111 corresponds to a VDD-n in the range
        // 0.992 V–1.021 V, while 0000011 to the range 0.896 V–0.929 V".
        let a = array();
        let code: ThermometerCode = "0011111".parse().unwrap();
        let interval = a.decode(&code, skew011(), &pvt()).unwrap();
        let lo = interval.lower.unwrap().volts();
        let hi = interval.upper.unwrap().volts();
        assert!((lo - 0.992).abs() < 0.003, "lower {lo}");
        assert!((hi - 1.021).abs() < 0.003, "upper {hi}");

        let code2: ThermometerCode = "0000011".parse().unwrap();
        let interval2 = a.decode(&code2, skew011(), &pvt()).unwrap();
        assert!((interval2.lower.unwrap().volts() - 0.896).abs() < 0.003);
        assert!((interval2.upper.unwrap().volts() - 0.929).abs() < 0.003);
    }

    #[test]
    fn decode_saturated_codes_open_ended() {
        let a = array();
        let over: ThermometerCode = "1111111".parse().unwrap();
        let i = a.decode(&over, skew011(), &pvt()).unwrap();
        assert!(i.lower.is_some() && i.upper.is_none());
        let under: ThermometerCode = "0000000".parse().unwrap();
        let i = a.decode(&under, skew011(), &pvt()).unwrap();
        assert!(i.lower.is_none() && i.upper.is_some());
    }

    #[test]
    fn decode_rejects_wrong_width() {
        let a = array();
        let code: ThermometerCode = "011".parse().unwrap();
        assert!(a.decode(&code, skew011(), &pvt()).is_err());
    }

    #[test]
    fn interval_contains_true_voltage() {
        let a = array();
        for mv in (840..=1040).step_by(7) {
            let v = Voltage::from_mv(mv as f64);
            let code = a.measure(v, skew011(), &pvt());
            let interval = a.decode(&code, skew011(), &pvt()).unwrap();
            assert!(
                interval.contains(v),
                "decoded interval missed {v} for code {code}"
            );
        }
    }

    #[test]
    fn ground_array_mirrors() {
        let a = ThermometerArray::paper(RailMode::Ground);
        // Quiet ground: the LS inverters see the full nominal swing, so
        // the code equals the HS code at nominal VDD — the two most-loaded
        // elements sit above 1.0 V and fail even with no bounce.
        let quiet = a.measure(Voltage::ZERO, skew011(), &pvt());
        assert_eq!(quiet.to_string(), "0011111");
        // Monotone: more bounce, more failures.
        let mut prev = quiet.fail_count();
        for mv in (0..=300).step_by(5) {
            let code = a.measure(Voltage::from_mv(mv as f64), skew011(), &pvt());
            assert!(code.is_canonical(), "bubble at {mv} mV bounce");
            let fails = code.fail_count();
            assert!(fails >= prev, "failures dropped at {mv} mV");
            prev = fails;
        }
        assert_eq!(prev, 7);
        // Ground thresholds fall with load (most-loaded trips first).
        let th = a.thresholds(skew011(), &pvt()).unwrap();
        for w in th.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn ground_decode_contains_true_bounce() {
        let a = ThermometerArray::paper(RailMode::Ground);
        for mv in (10..=160).step_by(7) {
            let g = Voltage::from_mv(mv as f64);
            let code = a.measure(g, skew011(), &pvt());
            let interval = a.decode(&code, skew011(), &pvt()).unwrap();
            assert!(interval.contains(g), "missed bounce {g} for {code}");
        }
    }

    #[test]
    fn stochastic_measurement_can_bubble_but_corrects() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let a = array();
        let mut rng = StdRng::seed_from_u64(11);
        // Sit exactly on a threshold: the boundary element resolves
        // randomly (and its immediate neighbours, ~3.5 ps away, are also
        // inside the 8 ps metastability window and may flip).
        let th = a.thresholds(skew011(), &pvt()).unwrap();
        let mut saw_both = (false, false);
        for _ in 0..64 {
            let code = a.measure_with_rng(th[3], skew011(), &pvt(), &mut rng);
            let fixed = code.correct_bubbles();
            assert!(fixed.is_canonical());
            let fails = fixed.fail_count();
            assert!(
                (1..=6).contains(&fails),
                "implausible fail count {fails} at a threshold"
            );
            match fails {
                3 => saw_both.0 = true,
                4 => saw_both.1 = true,
                _ => {}
            }
        }
        assert!(saw_both.0 && saw_both.1, "boundary element never flipped");
    }

    #[test]
    fn lane_solved_thresholds_match_per_element_search() {
        // The memo-miss path packs all elements into one 64-lane solve;
        // it must replay the standalone per-element search bit for bit.
        let a = array();
        let th = a.thresholds(skew011(), &pvt()).unwrap();
        for (e, t) in a.elements().iter().zip(&th) {
            let alone = e.threshold(skew011(), &pvt()).unwrap();
            assert_eq!(t.volts().to_bits(), alone.volts().to_bits());
        }
    }

    #[test]
    fn threshold_memo_is_transparent() {
        // Memo hit, key-based invalidation and clone-freshness all
        // produce exactly the values a cold array computes.
        let warm = array();
        let s11 = warm.thresholds(skew011(), &pvt()).unwrap();
        assert_eq!(warm.thresholds(skew011(), &pvt()).unwrap(), s11);
        // Changing the skew misses the memo and recomputes.
        let s10 = warm.thresholds(skew010(), &pvt()).unwrap();
        assert_eq!(s10, array().thresholds(skew010(), &pvt()).unwrap());
        assert_ne!(s10, s11);
        // A changed PVT point also misses.
        let hot = Pvt::new(
            psnt_cells::process::ProcessCorner::TT,
            Voltage::from_v(1.0),
            psnt_cells::units::Temperature::from_celsius(85.0),
        );
        let s_hot = warm.thresholds(skew011(), &hot).unwrap();
        assert_eq!(s_hot, array().thresholds(skew011(), &hot).unwrap());
        assert_ne!(s_hot, s11);
        // Clones start cold but agree.
        let cloned = warm.clone();
        assert_eq!(cloned.thresholds(skew011(), &pvt()).unwrap(), s11);
        assert_eq!(cloned, warm);
    }

    #[test]
    fn threshold_memo_keeps_alternating_corners_resident() {
        let warm = array();
        let hot = Pvt::new(
            psnt_cells::process::ProcessCorner::TT,
            Voltage::from_v(1.0),
            psnt_cells::units::Temperature::from_celsius(85.0),
        );
        assert_eq!(warm.memo_stats(), (0, 0));
        // Alternating between two operating points thrashed the old
        // single-entry memo; the bounded map keeps both resident, so
        // only the first visit of each point misses.
        for _ in 0..3 {
            warm.thresholds(skew011(), &pvt()).unwrap();
            warm.thresholds(skew011(), &hot).unwrap();
        }
        let (hits, misses) = warm.memo_stats();
        assert_eq!(misses, 2, "only the first visit of each point may miss");
        assert_eq!(hits, 4);

        // The ctx-threaded path returns the same values and folds the
        // call's hit/miss deltas into the observer's metrics.
        let mut obs = psnt_obs::Observer::ring(8);
        let mut ctx = RunCtx::serial().with_observer(&mut obs);
        let via_ctx = warm.thresholds_ctx(&mut ctx, skew011(), &pvt()).unwrap();
        drop(ctx);
        assert_eq!(via_ctx, warm.thresholds(skew011(), &pvt()).unwrap());
        assert_eq!(obs.metrics.counter_value("thermometer.memo_hits"), 1);
        assert_eq!(obs.metrics.counter_value("thermometer.memo_misses"), 0);

        // Clone-cold semantics extend to the tally.
        assert_eq!(warm.clone().memo_stats(), (0, 0));
    }

    #[test]
    fn interval_midpoint() {
        let i = CodeInterval {
            lower: Some(Voltage::from_v(0.9)),
            upper: Some(Voltage::from_v(1.0)),
        };
        assert!((i.midpoint().unwrap().volts() - 0.95).abs() < 1e-12);
        let open = CodeInterval {
            lower: None,
            upper: Some(Voltage::from_v(1.0)),
        };
        assert!(open.midpoint().is_none());
    }

    #[test]
    fn oversampling_resolves_below_one_lsb() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let a = array();
        let th = a.thresholds(skew011(), &pvt()).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        // Probe points straddling threshold T4 at sub-LSB offsets (the
        // LSB here is ~30 mV; the metastability window covers ≈ ±70 mV
        // around each threshold).
        for offset_mv in [-20.0, -8.0, 0.0, 8.0, 20.0] {
            let v = th[3] + Voltage::from_mv(offset_mv);
            let mean = a.oversampled_level(v, skew011(), &pvt(), 3000, &mut rng);
            let est = a
                .decode_oversampled(mean, skew011(), &pvt())
                .unwrap()
                .expect("in range");
            let err = (est - v).abs();
            assert!(
                err < Voltage::from_mv(6.0),
                "offset {offset_mv} mV: estimated {est} vs true {v} (err {err})"
            );
        }
    }

    #[test]
    fn oversampled_decode_saturation_returns_none() {
        let a = array();
        assert_eq!(a.decode_oversampled(0.0, skew011(), &pvt()).unwrap(), None);
        assert_eq!(a.decode_oversampled(7.0, skew011(), &pvt()).unwrap(), None);
        assert!(a
            .decode_oversampled(3.5, skew011(), &pvt())
            .unwrap()
            .is_some());
    }

    #[test]
    #[should_panic(expected = "at least one measure")]
    fn oversampled_level_rejects_zero_samples() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let _ = array().oversampled_level(Voltage::from_v(1.0), skew011(), &pvt(), 0, &mut rng);
    }

    proptest! {
        #[test]
        fn measured_code_always_canonical(mv in 600.0..1300.0f64) {
            let code = array().measure(Voltage::from_mv(mv), skew011(), &pvt());
            prop_assert!(code.is_canonical());
        }

        #[test]
        fn level_monotone_in_voltage(a in 600.0..1300.0f64, b in 600.0..1300.0f64) {
            prop_assume!(a < b);
            let arr = array();
            let la = arr.measure(Voltage::from_mv(a), skew011(), &pvt()).level();
            let lb = arr.measure(Voltage::from_mv(b), skew011(), &pvt()).level();
            prop_assert!(la <= lb);
        }

        #[test]
        fn decode_roundtrip_contains_voltage(mv in 830.0..1050.0f64) {
            let arr = array();
            let v = Voltage::from_mv(mv);
            let code = arr.measure(v, skew011(), &pvt());
            let interval = arr.decode(&code, skew011(), &pvt()).unwrap();
            prop_assert!(interval.contains(v));
        }
    }
}
