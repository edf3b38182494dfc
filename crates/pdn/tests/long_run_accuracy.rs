//! Long-run accuracy of the per-cycle grid update.
//!
//! Drives 10⁵ block-uniform [`PowerGrid::solve_delta`] steps on the
//! 40×40 chip grid (8×8 blocks of 5×5 nodes) and samples the rails
//! against a fresh [`PowerGrid::solve_sparse`] of the same loads: every
//! step of the first and last 1,000, and every 1,000th step between.
//! Rails from absolute block loads cannot drift, so the last 1,000 steps
//! must be as accurate as the first 1,000. The load sequence repeats
//! every 1,000 steps, which makes the two windows solve the same loads:
//! any difference between their errors is drift.
//!
//! Release-mode only (10⁵ updates take seconds optimised, minutes
//! without): `cargo test --release -p psnt-pdn --test long_run_accuracy`.

use psnt_cells::units::{Resistance, Voltage};
use psnt_pdn::grid::PowerGrid;

const STEPS: usize = 100_000;
const WINDOW: usize = 1_000;
const TOL_V: f64 = 1e-12;

/// Per-node load of block `t` at step `k`: idle plus a pseudo-random
/// flit count in `0..8`, a function of `(k mod WINDOW, t)` only.
fn block_load(k: usize, t: usize) -> f64 {
    let mut x = ((k % WINDOW) * 64 + t) as u64;
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    let count = (x.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 61) as f64;
    (0.02 + 0.0015 * count) / 25.0
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode test: run with --release")]
fn tile_basis_rails_do_not_drift_over_1e5_updates() {
    let grid = PowerGrid::corner_fed(
        40,
        Voltage::from_v(1.05),
        Resistance::from_milliohms(60.0),
        Resistance::from_milliohms(20.0),
    )
    .unwrap()
    .with_load_blocks(5, 5)
    .unwrap();
    let mut sol = grid.solve_sparse(&vec![0.0; grid.tiles()]).unwrap();
    let mut block_loads = vec![0.0; 64];
    let (mut first_max, mut last_max, mut mid_max) = (0.0f64, 0.0f64, 0.0f64);
    let mut changed = Vec::with_capacity(grid.tiles());
    for k in 0..STEPS {
        changed.clear();
        for (t, l) in block_loads.iter_mut().enumerate() {
            let next = block_load(k, t);
            if next != *l {
                *l = next;
                changed.extend(grid.block_nodes(t).iter().map(|&nd| (nd, next)));
            }
        }
        sol = grid.solve_delta(&sol, &changed).unwrap();
        let window = if k < WINDOW {
            &mut first_max
        } else if k >= STEPS - WINDOW {
            &mut last_max
        } else if k % WINDOW == 0 {
            &mut mid_max
        } else {
            continue;
        };
        let fresh = grid.solve_sparse(sol.loads()).unwrap();
        let err = sol
            .voltages()
            .iter()
            .zip(fresh.voltages())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        *window = window.max(err);
    }
    assert!(first_max <= TOL_V, "first {WINDOW} steps: {first_max:e} V");
    assert!(mid_max <= TOL_V, "sampled steps: {mid_max:e} V");
    assert!(last_max <= TOL_V, "last {WINDOW} steps: {last_max:e} V");
    assert!(
        last_max <= first_max,
        "drift: last {WINDOW} steps {last_max:e} V > first {first_max:e} V"
    );
}
