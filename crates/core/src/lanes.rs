//! The 64-lane analytic threshold kernel — SIMD-within-a-register
//! lockstep bisection (see `DESIGN.md` §14).
//!
//! One "lane" is one independent sense-element threshold search: a
//! mismatch Monte-Carlo trial, or one element of an array. The solver
//! runs up to [`LANES`] searches in lockstep — every live lane takes
//! one bisection step per iteration over structure-of-arrays state.
//! The search walks `t = log₂(v − vth)` geometrically, so the
//! fails-predicate needs no logarithm (and no divide) per probe: with
//! `k₂` precomputed by [`k2_for`] it is
//! `2^(α·t + k₂) − 2^t < vth` — two short
//! [`psnt_cells::fastmath::exp2_fast`] polynomials of pure fused
//! multiply-adds. The probe is straight-line code over contiguous
//! `f64` arrays that LLVM auto-vectorizes (the x86 vector divider is
//! the one non-pipelined unit; everything here runs at FMA throughput),
//! instead of one boxed libm call per probe.
//!
//! # Bit-identity contract
//!
//! [`solve_scalar`] is the *same float program* as one lane of
//! [`solve`]: identical constants, identical operation order, identical
//! masked-update semantics (a converged lane's bracket never moves
//! again). [`crate::element::SenseElement::threshold`] calls
//! [`solve_scalar`], so for any lane `l`,
//! `solve(tasks)[l] == element_l.threshold(..)` bit for bit — the
//! property the `batch_equiv` proptests pin. This is also why the loop
//! below must not be "improved" with early exits or reordered
//! arithmetic on one path only.
//!
//! # Allocation discipline
//!
//! This module is the batched hot loop: it contains **no heap
//! allocation** — no `Vec` of per-lane values, fixed arrays only — and
//! `scripts/ci.sh` greps it to keep things that way.

use psnt_cells::fastmath::{exp2_fast, log2};
use psnt_cells::units::Voltage;

/// Lanes evaluated per machine word — one mismatch instance per bit.
pub const LANES: usize = 64;

/// Per-lane inputs of the threshold search, structure-of-arrays.
///
/// Each lane bakes the per-instance constants of
/// `AlphaPowerDelay::propagation_delay` exactly as the scalar path
/// associates them: `ac_ps = A · (C_int + C_load)` in ps (the product
/// the scalar kernel forms first), the parasitic `t_int_ps`, the
/// corner-shifted `vth_eff_v`, the velocity-saturation `alpha`, and the
/// per-lane timing window `window_ps = skew − t_setup`.
#[derive(Debug)]
pub struct LaneTasks {
    /// Live lanes; entries `n..LANES` are ignored.
    pub n: usize,
    /// `A · (C_int + C_load)` per lane, ps.
    pub ac_ps: [f64; LANES],
    /// Parasitic delay per lane, ps.
    pub t_int_ps: [f64; LANES],
    /// Corner-shifted threshold voltage per lane, V.
    pub vth_eff_v: [f64; LANES],
    /// Velocity-saturation index per lane.
    pub alpha: [f64; LANES],
    /// Timing window `skew − t_setup` per lane, ps.
    pub window_ps: [f64; LANES],
}

impl Default for LaneTasks {
    fn default() -> LaneTasks {
        LaneTasks {
            n: 0,
            ac_ps: [0.0; LANES],
            t_int_ps: [0.0; LANES],
            vth_eff_v: [0.0; LANES],
            alpha: [0.0; LANES],
            window_ps: [0.0; LANES],
        }
    }
}

/// The lower search bound for a lane: 10 mV of overdrive above the
/// effective threshold, exactly as the scalar search brackets it.
#[inline(always)]
pub fn lo_bound_v(vth_eff_v: f64) -> f64 {
    (Voltage::from_v(vth_eff_v) + Voltage::from_mv(10.0)).volts()
}

/// The upper search bound, volts (shared by every lane).
#[inline(always)]
pub fn hi_bound_v() -> f64 {
    Voltage::from_v(3.0).volts()
}

/// The bisection termination width, volts (10 µV). A returned
/// threshold lies within half of it of the search's pass/fail
/// boundary, so it is also the guard band inside which
/// [`crate::thermometer::LevelReader`] evaluates an element in full
/// instead of trusting the threshold comparison.
#[inline(always)]
pub fn tol_v() -> f64 {
    Voltage::from_mv(0.01).volts()
}

/// The log-space threshold of the fails-predicate for one lane:
/// `k₂ = log₂((window − t_int) · drive / (A·C))`, precomputed once per
/// search.
///
/// The physical predicate `t_int + A·C · g(v)/drive > window` with
/// `g(v) = v/(v−vth)^α` is equivalent (for `window − t_int > 0`) to
/// `v/(v−vth)^α > 2^k₂`; substituting the overdrive `x = v − vth` and
/// its logarithm `t = log₂ x` turns it into
/// `2^(α·t + k₂) − 2^t < vth` — a probe of two short `exp2`
/// polynomials and not much else (see [`probe`]). Returns `None` when
/// `window − t_int ≤ 0` (the element can never pass: the search is
/// unbracketed by construction).
#[inline(always)]
fn k2_for(ac_ps: f64, t_int_ps: f64, window_ps: f64, df: f64) -> Option<f64> {
    let wmt = window_ps - t_int_ps;
    if wmt > 0.0 {
        Some(log2(wmt * df / ac_ps))
    } else {
        None
    }
}

/// One probe of the geometric bisection at `t = log₂(v − vth_eff)`:
/// returns the overdrive `x = 2^t` (the search keeps both the `t`- and
/// the `x`-space bracket, so the probe's `exp2` is reused as the new
/// bracket edge) and whether the element *fails* at that overdrive,
/// `2^(α·t + k₂) − 2^t < vth` (see [`k2_for`]). The two
/// [`exp2_fast`] chains are independent, so the scalar caller overlaps
/// them and the 64-lane loop runs them as straight vector FMAs —
/// no division, no mantissa split.
#[inline(always)]
fn probe(k2: f64, vth_eff_v: f64, alpha: f64, t: f64) -> (f64, bool) {
    let x = exp2_fast(t);
    let fail = exp2_fast(alpha.mul_add(t, k2)) - x < vth_eff_v;
    (x, fail)
}

/// One scalar threshold search — the reference program each lane of
/// [`solve`] replays bit for bit. Returns the effective-supply
/// threshold in volts, or `None` when the pass/fail boundary is not
/// bracketed by `[lo_bound, hi_bound]`.
///
/// The bracket `(xl, xh) = (lo − vth, hi − vth)` is walked in `t-space`
/// (`tm` halves exactly), while termination — the bracket is narrower
/// than [`tol_v`] — and the returned midpoint stay in volts, so the
/// geometric walk keeps the same 10 µV contract as a linear bisection.
#[inline]
pub fn solve_scalar(
    ac_ps: f64,
    t_int_ps: f64,
    vth_eff_v: f64,
    alpha: f64,
    window_ps: f64,
    df: f64,
) -> Option<f64> {
    let k2 = k2_for(ac_ps, t_int_ps, window_ps, df)?;
    let mut xl = lo_bound_v(vth_eff_v) - vth_eff_v;
    let mut xh = hi_bound_v() - vth_eff_v;
    if xh <= xl {
        return None;
    }
    let mut tl = log2(xl);
    let mut th = log2(xh);
    let (_, f_lo) = probe(k2, vth_eff_v, alpha, tl);
    let (_, f_hi) = probe(k2, vth_eff_v, alpha, th);
    if !f_lo || f_hi {
        return None;
    }
    let tol = tol_v();
    while (xh - xl) > tol {
        let tm = tl + (th - tl) * 0.5;
        let (xm, f) = probe(k2, vth_eff_v, alpha, tm);
        if f {
            tl = tm;
            xl = xm;
        } else {
            th = tm;
            xh = xm;
        }
    }
    Some(vth_eff_v + (xl + (xh - xl) * 0.5))
}

/// Lockstep bisection across all live lanes.
///
/// Writes each lane's threshold (effective supply, volts) into
/// `out[l]` and returns a bitmask of lanes whose search bracket failed
/// (`out` is unspecified for those lanes). Bracket-failed lanes are
/// masked out of the iteration; converged lanes stop updating, so each
/// surviving lane's `(lo, hi)` sequence is exactly the one
/// [`solve_scalar`] produces for the same task.
pub fn solve(tasks: &LaneTasks, df: f64, out: &mut [f64; LANES]) -> u64 {
    let n = tasks.n;
    debug_assert!(n <= LANES);
    let mut xl = [0.0f64; LANES];
    let mut xh = [0.0f64; LANES];
    let mut tl = [0.0f64; LANES];
    let mut th = [0.0f64; LANES];
    let mut k2 = [0.0f64; LANES];
    let mut bad = 0u64;
    for l in 0..n {
        let vth = tasks.vth_eff_v[l];
        xl[l] = lo_bound_v(vth) - vth;
        xh[l] = hi_bound_v() - vth;
        let bracketed = xh[l] > xl[l]
            && match k2_for(tasks.ac_ps[l], tasks.t_int_ps[l], tasks.window_ps[l], df) {
                Some(k) => {
                    k2[l] = k;
                    tl[l] = log2(xl[l]);
                    th[l] = log2(xh[l]);
                    let (_, f_lo) = probe(k, vth, tasks.alpha[l], tl[l]);
                    let (_, f_hi) = probe(k, vth, tasks.alpha[l], th[l]);
                    f_lo && !f_hi
                }
                None => false,
            };
        if !bracketed {
            bad |= 1u64 << l;
            // Freeze the lane: zero-width bracket, never iterated.
            xh[l] = xl[l];
            th[l] = tl[l];
        }
    }
    let tol = tol_v();
    loop {
        let mut live = false;
        // The hot lockstep loop: one pass probes every live lane. Each
        // lane's bisection step is a long dependency chain (two exp2
        // polynomials → compare → select), but a pass holds 16
        // independent 4-lane vector groups in flight, so the chains
        // overlap and the loop runs at FMA throughput. The body is pure
        // straight-line float ops with arithmetic selects — no lane
        // branches — so LLVM vectorizes the probe across lanes.
        for l in 0..n {
            let active = (xh[l] - xl[l]) > tol;
            let tm = tl[l] + (th[l] - tl[l]) * 0.5;
            let (xm, f) = probe(k2[l], tasks.vth_eff_v[l], tasks.alpha[l], tm);
            let ntl = if f { tm } else { tl[l] };
            let nth = if f { th[l] } else { tm };
            let nxl = if f { xm } else { xl[l] };
            let nxh = if f { xh[l] } else { xm };
            tl[l] = if active { ntl } else { tl[l] };
            th[l] = if active { nth } else { th[l] };
            xl[l] = if active { nxl } else { xl[l] };
            xh[l] = if active { nxh } else { xh[l] };
            live |= active;
        }
        if !live {
            break;
        }
    }
    for l in 0..n {
        out[l] = tasks.vth_eff_v[l] + (xl[l] + (xh[l] - xl[l]) * 0.5);
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnt_cells::delay::AlphaPowerDelay;
    use psnt_cells::process::Pvt;
    use psnt_cells::units::{Capacitance, Time};

    fn task_for(load_pf: f64, pvt: &Pvt, window_ps: f64) -> (f64, f64, f64, f64, f64) {
        let inv = AlphaPowerDelay::paper_sense_inverter();
        let ac =
            inv.a_ps_per_pf() * (inv.c_intrinsic() + Capacitance::from_pf(load_pf)).picofarads();
        (
            ac,
            inv.t_intrinsic().picoseconds(),
            pvt.effective_vth(inv.vth()).volts(),
            inv.alpha(),
            window_ps,
        )
    }

    #[test]
    fn lanes_match_scalar_bit_for_bit() {
        let pvt = Pvt::typical();
        let window =
            (Time::from_ps(149.0) - psnt_cells::dff::Dff::standard_90nm().setup()).picoseconds();
        let mut tasks = LaneTasks::default();
        let mut expect = [0.0f64; LANES];
        for (l, want) in expect.iter_mut().enumerate() {
            let load = 1.0 + 0.02 * l as f64;
            let (ac, t_int, vth, alpha, w) = task_for(load, &pvt, window);
            tasks.ac_ps[l] = ac;
            tasks.t_int_ps[l] = t_int;
            tasks.vth_eff_v[l] = vth;
            tasks.alpha[l] = alpha;
            tasks.window_ps[l] = w;
            *want = solve_scalar(ac, t_int, vth, alpha, w, pvt.drive_factor()).unwrap();
        }
        tasks.n = LANES;
        let mut out = [0.0f64; LANES];
        let bad = solve(&tasks, pvt.drive_factor(), &mut out);
        assert_eq!(bad, 0);
        for l in 0..LANES {
            assert_eq!(out[l].to_bits(), expect[l].to_bits(), "lane {l}");
        }
    }

    #[test]
    fn ragged_and_bad_lanes_are_masked() {
        let pvt = Pvt::typical();
        let df = pvt.drive_factor();
        let mut tasks = LaneTasks::default();
        // Lane 0: fine. Lane 1: absurd window — never bracketed.
        let (ac, t_int, vth, alpha, w) = task_for(2.0, &pvt, 119.0);
        tasks.ac_ps[0] = ac;
        tasks.t_int_ps[0] = t_int;
        tasks.vth_eff_v[0] = vth;
        tasks.alpha[0] = alpha;
        tasks.window_ps[0] = w;
        let (ac, t_int, vth, alpha, _) = task_for(2.0, &pvt, 119.0);
        tasks.ac_ps[1] = ac;
        tasks.t_int_ps[1] = t_int;
        tasks.vth_eff_v[1] = vth;
        tasks.alpha[1] = alpha;
        tasks.window_ps[1] = 1.0e9; // never fails at lo → unbracketed
        tasks.n = 2;
        let mut out = [0.0f64; LANES];
        let bad = solve(&tasks, df, &mut out);
        assert_eq!(bad, 0b10);
        let want = solve_scalar(
            tasks.ac_ps[0],
            tasks.t_int_ps[0],
            tasks.vth_eff_v[0],
            tasks.alpha[0],
            tasks.window_ps[0],
            df,
        )
        .unwrap();
        assert_eq!(out[0].to_bits(), want.to_bits());
        assert!(solve_scalar(ac, t_int, vth, alpha, 1.0e9, df).is_none());
    }
}
