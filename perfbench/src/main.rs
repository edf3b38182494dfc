//! `perfbench` — runs one workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload noc-open-loop --seed 2009 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` times untraced repetitions and prints the end-to-end
//! metrics; `--trace 1` also runs traced repetitions and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object; a readable report goes to standard error.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use psnt_perfbench::trace::{Tracer, CHECK, REPLAY, STEP};
use psnt_perfbench::{Bench, Built, Checks, Work, Workload, DEFAULT_SEED};

/// Fewest set-ups per run; `setup_s` is their median.
const MIN_SETUPS: usize = 31;
/// The tail percentile needs ten repetitions beyond it.
const TAIL_BEYOND: usize = 10;
/// Traced runs need a few repetitions of each kind for their medians.
const MIN_TRACE_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be in 1..=600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM line".into())
}

/// Set-up timings of one run. A set-up follows every repetition, so the
/// set-ups sample the same machine state the repetitions do.
struct Setups {
    workload: Workload,
    setup_s: Vec<f64>,
    factor_ms: Vec<f64>,
}

impl Setups {
    fn build(&mut self) -> Result<Built, String> {
        let mut tr = Tracer::on();
        let t0 = Instant::now();
        let built = self.workload.build(&mut tr)?;
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.factor_ms.push(tr.span_ms("pdn.factor"));
        Ok(built)
    }
}

/// Untraced repetitions until `budget` has passed and at least
/// `min_reps` succeeded. Returns each repetition's host ms and the work
/// delivered by all of them.
fn timed_reps(
    bench: &mut dyn Bench,
    setups: &mut Setups,
    budget: Duration,
    min_reps: usize,
    checks: &mut Checks,
) -> Result<(Vec<f64>, Work), String> {
    let start = Instant::now();
    let mut rep_ms = Vec::new();
    let mut work = Work::default();
    loop {
        let t0 = Instant::now();
        let out = bench.run();
        let dt = t0.elapsed();
        match out {
            Ok(()) => {
                rep_ms.push(dt.as_secs_f64() * 1e3);
                let w = bench.check(checks);
                work.cycles += w.cycles;
                work.codes += w.codes;
            }
            Err(e) => checks.check(false, || format!("repetition failed: {e}")),
        }
        setups.build()?;
        if start.elapsed() >= budget && (rep_ms.len() >= min_reps || checks.failed > 0) {
            return Ok((rep_ms, work));
        }
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced run: span medians over the traced
/// repetitions, counters of the first (the caller has checked they
/// repeat exactly).
fn per_layer(reps: &[(Tracer, f64)], factor_ms: f64, untraced_ms: f64) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Tracer, f64) -> f64| {
        median(&reps.iter().map(|(t, wall)| f(t, *wall)).collect::<Vec<_>>())
    };
    let span = |name: &'static str| med(&|t, _| t.span_ms(name));
    let t0 = &reps[0].0;
    let cnt = |name: &str| t0.counter(name) as f64;
    let solves = cnt("pdn.delta_solves") + cnt("pdn.sparse_solves");
    let readings = cnt("core.readings");
    let net = |t: &Tracer, wall: f64| wall - t.span_ms(CHECK) - t.span_ms(REPLAY);
    vec![
        m("pdn.solve_ms", "ms", span(REPLAY)),
        m("pdn.factor_ms", "ms", factor_ms),
        m("pdn.delta_solves", "count", cnt("pdn.delta_solves")),
        m("pdn.sparse_solves", "count", cnt("pdn.sparse_solves")),
        m("pdn.nodes_changed", "count", cnt("pdn.nodes_changed")),
        m("pdn.us_per_solve", "us", ratio(span(REPLAY) * 1e3, solves)),
        m(
            "pdn.idle_cycle_frac",
            "fraction",
            ratio(cnt("pdn.idle_cycles"), cnt("workload.cycles")),
        ),
        m("pdn.rail_err_max_v", "V", t0.gauge("pdn.rail_err_max_v")),
        m("core.measure_ms", "ms", span("core.measure")),
        m("core.readings", "count", readings),
        m(
            "core.us_per_reading",
            "us",
            ratio(span("core.measure") * 1e3, readings),
        ),
        m(
            "core.level_change_frac",
            "fraction",
            ratio(cnt("core.level_changes"), readings),
        ),
        m("core.mc_ms", "ms", span("core.mc")),
        m("core.mc_instances", "count", cnt("core.mc_instances")),
        m("core.characterize_ms", "ms", span("core.characterize")),
        m("control.observe_ms", "ms", span("control.observe")),
        m("control.frames", "count", cnt("control.frames")),
        m(
            "control.engaged_cycles",
            "count",
            cnt("control.engaged_cycles"),
        ),
        m("workload.plan_ms", "ms", span("workload.plan")),
        m(
            "workload.step_self_ms",
            "ms",
            med(&|t, _| t.span_ms(STEP) - t.span_ms(REPLAY)),
        ),
        m("workload.window_ms", "ms", span("workload.window")),
        m(
            "workload.flits_planned",
            "count",
            cnt("workload.flits_planned"),
        ),
        m(
            "workload.flits_spawned",
            "count",
            cnt("workload.flits_spawned"),
        ),
        m(
            "workload.backlog_peak",
            "count",
            t0.gauge("workload.backlog_peak"),
        ),
        m("scan.sweep_ms", "ms", span("scan.sweep")),
        m("scan.records", "count", cnt("scan.records")),
        m("scan.sites_degraded", "count", cnt("scan.sites_degraded")),
        m("checkpoint.save_ms", "ms", span("checkpoint.save")),
        m("checkpoint.load_ms", "ms", span("checkpoint.load")),
        m("checkpoint.bytes", "count", cnt("checkpoint.bytes")),
        m("checkpoint.saves", "count", cnt("checkpoint.saves")),
        m("netlist.sweep_ms", "ms", span("netlist.sweep")),
        m("netlist.plans", "count", cnt("netlist.plans")),
        m("netlist.events", "count", cnt("netlist.events")),
        m("netlist.dead_lanes", "count", cnt("netlist.dead_lanes")),
        m("bench.score_ms", "ms", span("bench.score")),
        m("traced_rep_ms", "ms", med(&net)),
        m(
            "obs.trace_overhead_pct",
            "%",
            100.0 * (med(&|t, wall| wall - t.span_ms(CHECK)) / untraced_ms - 1.0),
        ),
        m(
            "unattributed_pct",
            "%",
            med(&|t, wall| 100.0 * ratio(wall - t.span_ms(CHECK) - t.covered_ms(), net(t, wall))),
        ),
    ]
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {} ({} worker)",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        psnt_engine::Engine::serial().jobs(),
    );
    let mut setups = Setups {
        workload: w,
        setup_s: Vec::new(),
        factor_ms: Vec::new(),
    };
    let built = setups.build()?;
    let scratch = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
            PathBuf::from,
        )
        .join(format!("perfbench-scratch-{}", std::process::id()));
    fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let out = w
        .prepare(built, args.seed, &scratch)
        .and_then(|bench| measure(args, bench, &mut setups));
    let _ = fs::remove_dir_all(&scratch);
    out
}

fn measure(args: &Args, mut bench: Box<dyn Bench>, setups: &mut Setups) -> Result<String, String> {
    let budget = Duration::from_secs(args.seconds);
    let mut checks = Checks::default();
    let metrics = if args.trace {
        // Untraced and traced repetitions alternate, so both see the
        // same machine state; the untraced ones give the overhead base
        // and the program outputs the traced ones must reproduce.
        let start = Instant::now();
        let mut untraced = Vec::new();
        let mut reps: Vec<(Tracer, f64)> = Vec::new();
        while reps.len() < MIN_TRACE_REPS || start.elapsed() < budget {
            let (ms, _) = timed_reps(bench.as_mut(), setups, Duration::ZERO, 1, &mut checks)?;
            if checks.failed > 0 {
                return Err(format!(
                    "untraced repetition failed its checks: {}",
                    checks.first_failure.unwrap_or_default()
                ));
            }
            untraced.extend(ms);
            let mut tr = Tracer::on();
            let t0 = Instant::now();
            bench.traced(&mut tr)?;
            let wall = t0.elapsed().as_secs_f64() * 1e3;
            if let Some((first, _)) = reps.first() {
                if first.counters() != tr.counters() {
                    return Err("a work counter differs between traced repetitions".into());
                }
            }
            reps.push((tr, wall));
        }
        eprintln!(
            "{} traced and {} untraced repetitions",
            reps.len(),
            untraced.len()
        );
        per_layer(&reps, median(&setups.factor_ms), median(&untraced))
    } else {
        let (mut rep_ms, work) =
            timed_reps(bench.as_mut(), setups, budget, TAIL_BEYOND + 1, &mut checks)?;
        while setups.setup_s.len() < MIN_SETUPS {
            setups.build()?;
        }
        if rep_ms.is_empty() {
            return Err(format!(
                "no repetition succeeded: {}",
                checks.first_failure.unwrap_or_default()
            ));
        }
        rep_ms.sort_by(f64::total_cmp);
        let n = rep_ms.len();
        let tail_ix = n.saturating_sub(TAIL_BEYOND + 1);
        let (codes, cycles) = (work.codes / n as u64, work.cycles / n as u64);
        let p50 = median(&rep_ms);
        eprintln!(
            "{n} repetitions of {codes} codes and {cycles} chip cycles; {} set-ups; \
             tail p{} ({} repetitions beyond it) {:.3} ms",
            setups.setup_s.len(),
            100 * (tail_ix + 1) / n,
            n - tail_ix - 1,
            rep_ms[tail_ix],
        );
        eprintln!(
            "rep ms: min {:.3} | p25 {:.3} | p50 {:.3} | p75 {:.3} | max {:.3}",
            rep_ms[0],
            rep_ms[n / 4],
            rep_ms[n / 2],
            rep_ms[3 * n / 4],
            rep_ms[n - 1]
        );
        if cycles > 0 {
            eprintln!("cycles_per_s: {:.1}", cycles as f64 / p50 * 1e3);
        }
        vec![
            m("setup_s", "s", median(&setups.setup_s)),
            m("rep_ms_p50", "ms", p50),
            m(
                "codes_per_s",
                "1/s",
                work.codes as f64 / rep_ms.iter().sum::<f64>() * 1e3,
            ),
            m("peak_rss_mb", "MB", peak_rss_mb()?),
        ]
    };
    eprintln!(
        "failed_frac: {}/{} checked outputs{}",
        checks.failed,
        checks.attempted,
        checks
            .first_failure
            .as_deref()
            .map_or(String::new(), |f| format!(" (first: {f})"))
    );
    let mut body = Vec::with_capacity(metrics.len());
    for x in &metrics {
        if !x.value.is_finite() {
            return Err(format!("metric {} is not finite", x.name));
        }
        eprintln!("  {:<26} {:>16.6} {}", x.name, x.value, x.unit);
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    ))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
