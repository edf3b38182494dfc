//! The closed loop's sensing work is deterministic: two seeded
//! `droop-mitigation` sweeps tally exactly the same level readings,
//! guard-band evaluations and encoder fallbacks, and the paper's
//! monotone array never leaves the thermometer pattern.

use psnt_bench::figures;
use psnt_ctx::RunCtx;
use psnt_obs::Observer;

/// `(readings, guard_evals, fallbacks)` of one full sweep.
fn level_counters() -> (u64, u64, u64) {
    let mut obs = Observer::ring(64);
    let mut ctx = RunCtx::serial().with_observer(&mut obs);
    figures::droop_mitigation(&mut ctx);
    drop(ctx);
    let m = &obs.metrics;
    (
        m.counter_value("sensor.level_readings"),
        m.counter_value("sensor.level_guard_evals"),
        m.counter_value("sensor.level_fallbacks"),
    )
}

#[test]
fn level_counters_repeat_exactly_across_seeded_sweeps() {
    let first = level_counters();
    assert_eq!(first, level_counters());
    let (readings, _, fallbacks) = first;
    // 12 closed-loop arms (the open loop senses nothing) × 400 cycles
    // × 64 sites.
    assert_eq!(readings, 12 * 400 * 64);
    assert_eq!(fallbacks, 0, "the paper's array is monotone");
}
