//! The three chip-scale workloads and the per-cycle loop they share.
//!
//! Each workload's untraced repetition calls the program's own entry
//! point (`NocWorkload::run_streamed`, `run_mitigated`,
//! `run_checkpointed`). [`drive`] is the benchmark's second
//! implementation of the same loop over the crates' public per-cycle
//! API, in the order `solve_rails_checkpointed` and
//! `run_mitigated_checkpointed` use. It serves twice:
//!
//! * with [`Grid::Replay`] it is the traced run: it times each call
//!   into a layer, replays the stepper's grid update through
//!   `PowerGrid::solve_delta`/`solve_sparse` to time the grid on its own,
//!   and checks that the replay matches `CycleStepper::solution` bit for
//!   bit;
//! * with [`Grid::Fresh`] it is the reference: every cycle's rails come
//!   from a fresh `solve_sparse` instead of the incremental chain, so
//!   the program's rails are checked against an independent solve and
//!   its codes against codes sensed on those rails.

use std::fs;
use std::path::PathBuf;

use psnt_cells::units::{Current, Resistance, Time, Voltage};
use psnt_control::{
    Actuation, ControlFrame, DelayLine, Mitigator, PiBoost, SiteReading, SupplyBoost,
    ThresholdStretch, ThresholdThrottle,
};
use psnt_core::{SensorConfig, SensorSystem};
use psnt_ctx::RunCtx;
use psnt_engine::RetryPolicy;
use psnt_fault::{Fault, FaultPlan};
use psnt_pdn::waveform::Waveform;
use psnt_pdn::GridSolution;
use psnt_scan::campaign::{ResilientCampaignResult, SiteOutcome, StreamRecord};
use psnt_workload::checkpoint::{CheckpointPolicy, CHECKPOINT_VERSION};
use psnt_workload::{
    ActuationSample, CycleStepper, MitigatedNocResult, NocCampaignResult, NocWorkload,
    NocWorkloadConfig, NoiseProfile, TrafficPattern, WindowStats, WorkloadCheckpoint,
    WorkloadError,
};

use crate::trace::{Tracer, CHECK, REPLAY, STEP};
use crate::{fail, Bench, Checks, Work};

/// The repository's sparse-vs-dense tolerance: rails, droops and window
/// voltages may differ from a fresh `solve_sparse` by this much, so a
/// last-bit change to the grid path passes and a wrong one does not.
pub const RAIL_TOL_V: f64 = 1e-9;

/// The traced run compares the replayed rails against a fresh
/// `solve_sparse` every this many cycles (`pdn.rail_err_max_v`).
const RAIL_SAMPLE_EVERY: usize = 50;

/// Hold time of the threshold policies, frames (as in XP-DROOP).
const HOLD: usize = 16;

/// Checkpoint cadence of `noc-checkpoint-resume`, cycles.
pub const CKPT_EVERY: usize = 100;

/// The XP-DROOP chip: an 8×8 mesh on a 24×24 grid with one site per
/// tile, rails at 1.00 V so thermometer levels track the droop, and
/// 12-on/20-off bursts of heavy per-flit current over 400 cycles. A
/// copy of the `repro` experiment's private configuration.
pub fn droop_chip() -> NocWorkloadConfig {
    NocWorkloadConfig {
        mesh_rows: 8,
        mesh_cols: 8,
        sites_per_tile: 1,
        grid_rows: 24,
        grid_cols: 24,
        v_pad: Voltage::from_v(1.0),
        r_mesh: Resistance::from_milliohms(120.0),
        r_pad: Resistance::from_milliohms(20.0),
        pads: vec![(0, 0), (0, 23), (23, 0), (23, 23)],
        pattern: TrafficPattern::Bursty {
            injection_rate: 0.9,
            on_cycles: 12,
            off_cycles: 20,
        },
        cycles: 400,
        cycle_time: Time::from_ns(1.0),
        idle_current: Current::from_ma(3.0),
        flit_current: Current::from_ma(7.0),
        measure_every: 50,
        sensor: SensorConfig::default(),
    }
}

/// A built chip: the workload (grid factored) and its sensor.
#[derive(Debug)]
pub struct Chip {
    workload: NocWorkload,
    /// Threshold policies engage at this level and release at the next.
    engage: usize,
}

impl Chip {
    /// Builds the chip: `NocWorkload::new`, the first
    /// `PowerGrid::factor()` and `SensorSystem::new` — the set-up a run
    /// pays once before its first cycle.
    ///
    /// # Errors
    ///
    /// Configuration or sensor failures.
    pub fn build(cfg: NocWorkloadConfig, tr: &mut Tracer) -> Result<Chip, String> {
        let workload = NocWorkload::new(cfg).map_err(fail("chip"))?;
        tr.span("pdn.factor", || {
            workload.campaign().floorplan().grid().factor();
        });
        let cfg = workload.config();
        let sensor = SensorSystem::new(cfg.sensor.clone()).map_err(fail("sensor"))?;
        // Self-calibrating thresholds, as in XP-DROOP: engage when the
        // droop costs one thermometer level off the healthy code.
        let healthy = sensor
            .measure_value(cfg.v_pad, Voltage::from_v(0.0), Time::ZERO)
            .map_err(fail("healthy level"))?
            .hs_word
            .level
            .max(1);
        Ok(Chip {
            workload,
            engage: healthy - 1,
        })
    }

    fn cycles(&self) -> u64 {
        self.workload.config().cycles as u64
    }

    fn sites(&self) -> u64 {
        self.workload.campaign().floorplan().sites().len() as u64
    }
}

/// A `run_mitigated` arm of the droop workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// No mitigator (no per-cycle sensing either).
    OpenLoop,
    /// `ThresholdStretch` to quarter speed.
    Stretch,
    /// `ThresholdThrottle`.
    Throttle,
    /// `SupplyBoost` of 60 mV.
    Boost,
    /// `PiBoost` toward the release level.
    PiBoost,
}

/// XP-DROOP's open loop and its four policy arms at latency 1.
pub const DROOP_ARMS: [Policy; 5] = [
    Policy::OpenLoop,
    Policy::Stretch,
    Policy::Throttle,
    Policy::Boost,
    Policy::PiBoost,
];

impl Policy {
    fn latency(self) -> usize {
        match self {
            Policy::OpenLoop => 0,
            _ => 1,
        }
    }

    fn mitigator(self, chip: &Chip) -> Result<Option<Box<dyn Mitigator>>, String> {
        let tiles = chip.workload.mesh().tiles();
        let (engage, release) = (chip.engage, chip.engage + 1);
        let m: Box<dyn Mitigator> = match self {
            Policy::OpenLoop => return Ok(None),
            Policy::Stretch => Box::new(
                ThresholdStretch::new(tiles, engage, release, 0.25)
                    .map_err(fail("stretch"))?
                    .with_hold(HOLD),
            ),
            Policy::Throttle => Box::new(
                ThresholdThrottle::new(tiles, engage, release)
                    .map_err(fail("throttle"))?
                    .with_hold(HOLD),
            ),
            Policy::Boost => Box::new(
                SupplyBoost::new(tiles, engage, release, Voltage::from_v(0.06))
                    .map_err(fail("boost"))?
                    .with_hold(HOLD),
            ),
            Policy::PiBoost => {
                Box::new(PiBoost::new(tiles, release as f64, 0.02, 0.01).map_err(fail("pi-boost"))?)
            }
        };
        Ok(Some(m))
    }
}

/// Where [`drive`] takes its grid state from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// The stepper's own incremental state, with a timed replay that
    /// must match it bit for bit.
    Replay,
    /// A fresh `solve_sparse` every cycle (the reference).
    Fresh,
}

/// The scan sweep after the cycle loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// No sweep (the closed loop).
    None,
    /// `Campaign::run_streamed_from_rails`, as `run_streamed`.
    Streamed,
    /// `Campaign::run_resilient_from_rails`, as `run_checkpointed`.
    InMemory,
}

/// Snapshots at a cadence, and an interrupt that resumes from disk, as
/// `run_checkpointed` under a `Fault::CancelAt` plan followed by a
/// resumed call.
#[derive(Debug, Clone)]
pub struct Checkpointing {
    path: PathBuf,
    interrupt_at: usize,
}

/// What one driven run produced.
#[derive(Debug)]
pub struct Driven {
    /// Profile and per-cycle traces, in `run_mitigated`'s shape.
    pub run: MitigatedNocResult,
    /// Records of a streamed sweep.
    pub records: Vec<StreamRecord>,
    /// Result of an in-memory sweep.
    pub campaign: Option<ResilientCampaignResult>,
    /// The snapshot the interrupt wrote.
    pub interrupted: Option<WorkloadCheckpoint>,
}

/// How the grid state moved in one cycle.
enum Update {
    Sparse,
    Delta(usize),
    Idle,
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn window_shell(cfg: &NocWorkloadConfig, windows: usize) -> Vec<WindowStats> {
    let me = cfg.measure_every;
    (0..windows)
        .map(|w| WindowStats {
            window: w,
            start_cycle: w * me,
            instant: cfg.cycle_time * ((w * me + me / 2) as f64 + 0.5),
            min_v: f64::INFINITY,
            worst_node: 0,
            mean_v: 0.0,
            mean_current: 0.0,
            events: 0,
        })
        .collect()
}

/// Writes one `WorkloadCheckpoint` as the program's solve loop does.
fn save_checkpoint(
    k: &Checkpointing,
    seed: u64,
    stepper: &CycleStepper<'_>,
    stats: &[WindowStats],
    site_points: &[Vec<(Time, f64)>],
    cfg: &NocWorkloadConfig,
    tr: &mut Tracer,
) -> Result<(), String> {
    let touched = stepper.cycle().div_ceil(cfg.measure_every).min(stats.len());
    tr.span("checkpoint.save", || {
        WorkloadCheckpoint {
            version: CHECKPOINT_VERSION,
            seed,
            stepper: stepper.snapshot(),
            stats_done: stats[..touched].to_vec(),
            site_points: site_points.to_vec(),
        }
        .save(&k.path)
    })
    .map_err(fail("checkpoint save"))?;
    let bytes = fs::metadata(&k.path)
        .map_err(fail("checkpoint size"))?
        .len();
    tr.count("checkpoint.saves", 1);
    tr.count("checkpoint.bytes", bytes);
    Ok(())
}

/// Runs one chip run through the public per-cycle API (see the module
/// docs for the two grid modes).
///
/// # Errors
///
/// Program errors, and in [`Grid::Replay`] mode a replay that differs
/// from the stepper's own grid state or a rail further than
/// [`RAIL_TOL_V`] from a fresh solve.
pub fn drive(
    chip: &Chip,
    seed: u64,
    policy: Policy,
    grid: Grid,
    sweep: Sweep,
    ckpt: Option<&Checkpointing>,
    tr: &mut Tracer,
) -> Result<Driven, String> {
    let w = &chip.workload;
    let cfg = w.config();
    let tiles = w.mesh().tiles();
    let g = w.campaign().floorplan().grid();
    let n = g.tiles();
    let v_nom = g.v_pad().volts();
    let dt = cfg.cycle_time;
    let cycles = cfg.cycles;
    // The program's per-node load model: `idle + flit·count` spread
    // over the tile's block, with the same arithmetic.
    let block = w.block_nodes(0).len() as f64;
    let idle_node = cfg.idle_current.amps() / block;
    let flit_node = cfg.flit_current.amps() / block;
    let node_load = |count: u32| idle_node + flit_node * f64::from(count);
    let mut node_domain = vec![0usize; n];
    for t in 0..tiles {
        for &nd in w.block_nodes(t) {
            node_domain[nd] = t;
        }
    }
    let site_nodes: Vec<usize> = w
        .campaign()
        .floorplan()
        .sites()
        .iter()
        .map(|s| s.tile)
        .collect();

    let mut mitigator = policy.mitigator(chip)?;
    let policy_name = mitigator.as_ref().map_or("open-loop", |m| m.name());
    let sensor = tr
        .span("core.measure", || SensorSystem::new(cfg.sensor.clone()))
        .map_err(fail("sensor"))?;
    let mut ctx = RunCtx::serial().with_seed(seed);
    let mut stepper = tr
        .span("workload.plan", || CycleStepper::new(w, &mut ctx))
        .map_err(fail("plan"))?;
    tr.count("workload.flits_planned", stepper.planned_flits());

    let mut delay = DelayLine::new(policy.latency());
    let mut act = Actuation::neutral(tiles);
    let mut stats = window_shell(cfg, w.windows());
    let keep_rails = sweep != Sweep::None;
    let mut site_points: Vec<Vec<(Time, f64)>> = if keep_rails {
        vec![Vec::with_capacity(cycles); site_nodes.len()]
    } else {
        Vec::new()
    };
    let mut droop_trace = Vec::with_capacity(cycles);
    let mut actuation_trace = Vec::with_capacity(cycles);
    let mut worst_droop = 0.0f64;
    let mut worst_droop_cycle = 0usize;
    let mut engaged_cycles = 0u64;
    let mut deferred_peak = 0usize;
    let mut prev_level: Vec<Option<usize>> = vec![None; site_nodes.len()];
    let mut solved: Option<GridSolution> = None;
    let mut prev_eff = vec![0u32; tiles];
    let mut boosted: Vec<f64> = Vec::with_capacity(n);
    let mut delta_solves = 0u64;
    let mut interrupted = None;

    for c in 0..cycles {
        if let Some(k) = ckpt.filter(|k| k.interrupt_at == c) {
            // The interrupt: a final snapshot, then a resume from disk
            // onto a freshly planned stepper, as the program's second
            // `run_checkpointed` call does.
            save_checkpoint(k, seed, &stepper, &stats, &site_points, cfg, tr)?;
            let loaded = tr
                .span("checkpoint.load", || WorkloadCheckpoint::load(&k.path))
                .map_err(fail("checkpoint load"))?;
            stepper = tr
                .span("workload.plan", || CycleStepper::new(w, &mut ctx))
                .map_err(fail("plan"))?;
            tr.span("checkpoint.load", || -> Result<(), WorkloadError> {
                stepper.restore(&loaded.stepper)?;
                stats[..loaded.stats_done.len()].clone_from_slice(&loaded.stats_done);
                site_points.clone_from(&loaded.site_points);
                Ok(())
            })
            .map_err(fail("checkpoint restore"))?;
            solved = Some(stepper.solution().clone());
            prev_eff.copy_from_slice(stepper.effective_counts());
            interrupted = Some(loaded);
        }

        tr.span(STEP, || stepper.step()).map_err(fail("step"))?;

        // Grid state: the replayed (or fresh) solve of this cycle's
        // effective counts.
        let eff = stepper.effective_counts();
        let prior = solved.take();
        let (sol, update) = tr
            .span(REPLAY, || match (grid, prior) {
                (Grid::Replay, Some(prior)) => {
                    let mut changed: Vec<(usize, f64)> = Vec::new();
                    for t in 0..tiles {
                        if eff[t] != prev_eff[t] {
                            let l = node_load(eff[t]);
                            changed.extend(w.block_nodes(t).iter().map(|&nd| (nd, l)));
                        }
                    }
                    if changed.is_empty() {
                        Ok((prior, Update::Idle))
                    } else {
                        let k = changed.len();
                        g.solve_delta(&prior, &changed)
                            .map(|s| (s, Update::Delta(k)))
                    }
                }
                _ => {
                    let mut loads = vec![0.0; n];
                    for (t, &count) in eff.iter().enumerate() {
                        let l = node_load(count);
                        for &nd in w.block_nodes(t) {
                            loads[nd] = l;
                        }
                    }
                    g.solve_sparse(&loads).map(|s| (s, Update::Sparse))
                }
            })
            .map_err(fail("grid"))?;
        prev_eff.copy_from_slice(eff);
        match update {
            Update::Sparse => tr.count("pdn.sparse_solves", 1),
            Update::Delta(k) => {
                delta_solves += 1;
                tr.count("pdn.delta_solves", 1);
                tr.count("pdn.nodes_changed", k as u64);
            }
            Update::Idle => tr.count("pdn.idle_cycles", 1),
        }
        tr.count("workload.cycles", 1);
        let sol = solved.insert(sol);

        let (volts, loads, hot) = match grid {
            Grid::Replay => {
                let own = stepper.solution();
                let same = tr.span(CHECK, || {
                    bits_eq(sol.voltages(), own.voltages()) && bits_eq(sol.loads(), own.loads())
                });
                if !same {
                    return Err(format!(
                        "replayed grid update differs from CycleStepper::solution at cycle {c}"
                    ));
                }
                if c % RAIL_SAMPLE_EVERY == 0 {
                    let err = tr
                        .span(CHECK, || {
                            g.solve_sparse(sol.loads()).map(|fresh| {
                                fresh
                                    .voltages()
                                    .iter()
                                    .zip(sol.voltages())
                                    .map(|(a, b)| (a - b).abs())
                                    .fold(0.0, f64::max)
                            })
                        })
                        .map_err(fail("fresh solve"))?;
                    tr.max("pdn.rail_err_max_v", err);
                    if err > RAIL_TOL_V {
                        return Err(format!(
                            "cycle {c}: incremental rails are {err:e} V from a fresh solve_sparse"
                        ));
                    }
                }
                (stepper.voltages(), own.loads(), stepper.hotspot())
            }
            Grid::Fresh => {
                // The stepper's supply-boost overlay on the fresh rails.
                let a = stepper.actuation();
                boosted.clear();
                boosted.extend_from_slice(sol.voltages());
                for t in 0..tiles {
                    let b = a.boost(t);
                    if b > 0.0 {
                        for &nd in w.block_nodes(t) {
                            boosted[nd] += b;
                        }
                    }
                }
                let (idx, &v) = boosted
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .expect("grid has nodes");
                (&boosted[..], sol.loads(), (idx, v))
            }
        };

        // Window statistics, rail samples, droop and actuation traces —
        // the same arithmetic in the same order as the program.
        tr.span("workload.window", || {
            if let Some(ws) = stats.get_mut(c / cfg.measure_every) {
                let (node, v_min) = hot;
                if v_min < ws.min_v {
                    ws.min_v = v_min;
                    ws.worst_node = node;
                }
                let me = cfg.measure_every as f64;
                ws.mean_v += volts.iter().sum::<f64>() / (n as f64 * me);
                ws.mean_current += loads.iter().sum::<f64>() / me;
                ws.events += stepper
                    .raw_counts()
                    .iter()
                    .map(|&x| u64::from(x))
                    .sum::<u64>();
            }
            if keep_rails {
                let t_c = dt * (c as f64 + 0.5);
                for (k, &nd) in site_nodes.iter().enumerate() {
                    site_points[k].push((t_c, volts[nd]));
                }
            }
            let droop = v_nom - hot.1;
            if droop > worst_droop {
                worst_droop = droop;
                worst_droop_cycle = c;
            }
            droop_trace.push(droop);
            deferred_peak = deferred_peak.max(stepper.deferred_backlog());
            let a = stepper.actuation();
            if !a.is_neutral() {
                engaged_cycles += 1;
            }
            actuation_trace.push(ActuationSample {
                cycle: c,
                stretched: (0..tiles).filter(|&t| a.stretch(t) < 1.0).count(),
                throttled: (0..tiles).filter(|&t| a.throttled(t)).count(),
                boosted: (0..tiles).filter(|&t| a.boost(t) > 0.0).count(),
            });
        });

        if let Some(m) = mitigator.as_deref_mut() {
            let at = dt * (c as f64 + 0.5);
            let readings = tr
                .span("core.measure", || {
                    site_nodes
                        .iter()
                        .map(|&nd| {
                            let vdd = Voltage::from_v(volts[nd]);
                            sensor
                                .measure_value(vdd, Voltage::from_v(0.0), at)
                                .map(|r| SiteReading {
                                    domain: node_domain[nd],
                                    level: Some(r.hs_word.level),
                                })
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(fail("sense"))?;
            tr.count("core.readings", readings.len() as u64);
            for (prev, r) in prev_level.iter_mut().zip(&readings) {
                if prev.is_some_and(|p| Some(p) != r.level) {
                    tr.count("core.level_changes", 1);
                }
                *prev = r.level;
            }
            let frame = ControlFrame {
                cycle: c as u64,
                readings,
            };
            let observed = tr
                .span("control.observe", || -> Result<bool, WorkloadError> {
                    match delay.push(frame) {
                        Some(observed) => {
                            m.observe(&observed, &mut act);
                            stepper.apply(&act)?;
                            Ok(true)
                        }
                        None => Ok(false),
                    }
                })
                .map_err(fail("control"))?;
            tr.count("control.frames", u64::from(observed));
        }

        if let Some(k) = ckpt {
            if (c + 1) % CKPT_EVERY == 0 && c + 1 < cycles {
                save_checkpoint(k, seed, &stepper, &stats, &site_points, cfg, tr)?;
            }
        }
    }

    if grid == Grid::Replay && delta_solves != stepper.delta_solves() {
        return Err(format!(
            "replay issued {delta_solves} delta solves, the stepper {}",
            stepper.delta_solves()
        ));
    }
    tr.count("workload.flits_spawned", stepper.spawned_flits());
    tr.count("control.engaged_cycles", engaged_cycles);
    tr.max("workload.backlog_peak", deferred_peak as f64);

    let profile = NoiseProfile {
        v_nom,
        windows: stats,
        flits: stepper.planned_flits(),
    };
    let mut records = Vec::new();
    let mut campaign = None;
    if keep_rails {
        let instants: Vec<Time> = profile.windows.iter().map(|ws| ws.instant).collect();
        let supplies = tr
            .span("workload.window", || {
                let mut s = vec![Waveform::constant(v_nom); n];
                for (k, points) in site_points.into_iter().enumerate() {
                    s[site_nodes[k]] = Waveform::from_points(points)?;
                }
                Ok::<_, psnt_pdn::PdnError>(s)
            })
            .map_err(fail("rails"))?;
        let campaign_ref = w.campaign();
        let (delivered, degraded) = if sweep == Sweep::Streamed {
            let summary = tr
                .span("scan.sweep", || {
                    campaign_ref.run_streamed_from_rails(
                        &mut ctx,
                        supplies,
                        None,
                        instants,
                        RetryPolicy::none(),
                        |r| {
                            records.push(r);
                            Ok(())
                        },
                    )
                })
                .map_err(fail("sweep"))?;
            let delivered = records
                .iter()
                .filter(|r| matches!(r, StreamRecord::Site { .. } | StreamRecord::Frame { .. }))
                .count();
            (delivered, summary.sites_degraded)
        } else {
            let res = tr
                .span("scan.sweep", || {
                    campaign_ref.run_resilient_from_rails(
                        &mut ctx,
                        supplies,
                        None,
                        instants,
                        RetryPolicy::none(),
                    )
                })
                .map_err(fail("sweep"))?;
            let delivered = res.result.sites.len() + res.result.frames.len();
            let degraded = res.summary.sites_degraded;
            campaign = Some(res);
            (delivered, degraded)
        };
        tr.count("scan.records", delivered as u64);
        tr.count("scan.sites_degraded", degraded as u64);
    }

    Ok(Driven {
        run: MitigatedNocResult {
            policy: policy_name.to_string(),
            latency: policy.latency(),
            profile,
            droop_trace,
            actuation_trace,
            worst_droop,
            worst_droop_cycle,
            engaged_cycles,
            degraded_readings: 0,
            deferred_peak,
        },
        records,
        campaign,
        interrupted,
    })
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= RAIL_TOL_V
}

/// Checks a noise profile against the reference: counts exact,
/// voltages and currents within [`RAIL_TOL_V`]. The worst node is not
/// compared: mirror-image nodes of the symmetric grid can tie to the
/// last bit, so either may legitimately hold the minimum.
fn check_profile(ch: &mut Checks, what: &str, got: &NoiseProfile, want: &NoiseProfile) {
    ch.check(
        got.flits == want.flits
            && got.v_nom == want.v_nom
            && got.windows.len() == want.windows.len(),
        || format!("{what}: profile shape or flit count differs"),
    );
    for (g, r) in got.windows.iter().zip(&want.windows) {
        ch.check(
            g.window == r.window
                && g.start_cycle == r.start_cycle
                && g.instant == r.instant
                && g.events == r.events
                && close(g.min_v, r.min_v)
                && close(g.mean_v, r.mean_v)
                && close(g.mean_current, r.mean_current),
            || {
                format!(
                    "{what}: window {} differs from the fresh-solve reference",
                    r.window
                )
            },
        );
    }
}

/// Checks scan outputs exactly: every site series (codes, levels,
/// decoded intervals) and every frame must equal the reference's, and
/// a degraded site is a failure.
fn check_sites(
    ch: &mut Checks,
    what: &str,
    got: &ResilientCampaignResult,
    want: &ResilientCampaignResult,
) {
    ch.check(
        got.result.sites.len() == want.result.sites.len()
            && got.result.frames.len() == want.result.frames.len()
            && got.result.instants == want.result.instants,
        || format!("{what}: campaign shape differs"),
    );
    for ((g, o), r) in got
        .result
        .sites
        .iter()
        .zip(&got.outcomes)
        .zip(&want.result.sites)
    {
        ch.check(o.is_measured() && g == r, || {
            format!("{what}: site {} codes differ from the reference", r.name)
        });
    }
    for (k, (g, r)) in got
        .result
        .frames
        .iter()
        .zip(&want.result.frames)
        .enumerate()
    {
        ch.check(g == r, || {
            format!("{what}: frame {k} differs from the reference")
        });
    }
    ch.check(got.summary == want.summary, || {
        format!("{what}: summary differs")
    });
}

/// Codes the sweep delivered: one per measured site per window.
fn swept_codes(sites: &[psnt_scan::campaign::SiteSeries]) -> u64 {
    sites.iter().map(|s| s.measurements.len() as u64).sum()
}

/// `noc-open-loop`: `NocWorkload::run_streamed` on `chip_8x8`.
#[derive(Debug)]
pub struct NocOpenLoop {
    chip: Chip,
    seed: u64,
    reference: Driven,
    last: Option<(NoiseProfile, Vec<StreamRecord>)>,
}

impl NocOpenLoop {
    /// Prepares the workload and its fresh-solve reference.
    ///
    /// # Errors
    ///
    /// Reference run failures.
    pub fn new(chip: Chip, seed: u64) -> Result<NocOpenLoop, String> {
        let reference = drive(
            &chip,
            seed,
            Policy::OpenLoop,
            Grid::Fresh,
            Sweep::Streamed,
            None,
            &mut Tracer::off(),
        )?;
        Ok(NocOpenLoop {
            chip,
            seed,
            reference,
            last: None,
        })
    }
}

impl Bench for NocOpenLoop {
    fn run(&mut self) -> Result<(), String> {
        let mut records = Vec::new();
        let out = self
            .chip
            .workload
            .run_streamed(
                &mut RunCtx::serial().with_seed(self.seed),
                RetryPolicy::none(),
                |r| {
                    records.push(r);
                    Ok(())
                },
            )
            .map_err(fail("run_streamed"))?;
        self.last = Some((out.profile, records));
        Ok(())
    }

    fn check(&self, ch: &mut Checks) -> Work {
        let Some((profile, records)) = &self.last else {
            return Work::default();
        };
        check_profile(ch, "noc-open-loop", profile, &self.reference.run.profile);
        ch.check(records.len() == self.reference.records.len(), || {
            "noc-open-loop: record count differs".into()
        });
        let mut codes = 0;
        for (k, (g, r)) in records.iter().zip(&self.reference.records).enumerate() {
            let degraded = matches!(
                g,
                StreamRecord::Site {
                    outcome: SiteOutcome::Degraded { .. },
                    ..
                }
            );
            if let StreamRecord::Site { series, .. } = g {
                codes += series.measurements.len() as u64;
            }
            ch.check(!degraded && g == r, || {
                format!("noc-open-loop: record {k} differs from the reference")
            });
        }
        Work {
            cycles: self.chip.cycles(),
            codes,
        }
    }

    fn traced(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let d = drive(
            &self.chip,
            self.seed,
            Policy::OpenLoop,
            Grid::Replay,
            Sweep::Streamed,
            None,
            tr,
        )?;
        let (profile, records) = self.last.as_ref().ok_or("no program run to compare")?;
        if &d.run.profile != profile || &d.records != records {
            return Err("traced noc-open-loop differs from run_streamed".into());
        }
        Ok(())
    }
}

/// `droop-closed-loop`: the five XP-DROOP arms through
/// `NocWorkload::run_mitigated`.
#[derive(Debug)]
pub struct DroopClosedLoop {
    chip: Chip,
    seed: u64,
    reference: Vec<MitigatedNocResult>,
    last: Vec<MitigatedNocResult>,
}

impl DroopClosedLoop {
    /// Prepares the workload and its fresh-solve references.
    ///
    /// # Errors
    ///
    /// Reference run failures.
    pub fn new(chip: Chip, seed: u64) -> Result<DroopClosedLoop, String> {
        let reference = DROOP_ARMS
            .iter()
            .map(|&p| {
                drive(
                    &chip,
                    seed,
                    p,
                    Grid::Fresh,
                    Sweep::None,
                    None,
                    &mut Tracer::off(),
                )
                .map(|d| d.run)
            })
            .collect::<Result<_, _>>()?;
        Ok(DroopClosedLoop {
            chip,
            seed,
            reference,
            last: Vec::new(),
        })
    }
}

impl Bench for DroopClosedLoop {
    fn run(&mut self) -> Result<(), String> {
        self.last.clear();
        for arm in DROOP_ARMS {
            let mut m = arm.mitigator(&self.chip)?;
            let r = self
                .chip
                .workload
                .run_mitigated(
                    &mut RunCtx::serial().with_seed(self.seed),
                    m.as_deref_mut().map(|m| m as &mut dyn Mitigator),
                    arm.latency(),
                )
                .map_err(fail("run_mitigated"))?;
            self.last.push(r);
        }
        Ok(())
    }

    fn check(&self, ch: &mut Checks) -> Work {
        let mut codes = 0;
        ch.check(self.last.len() == self.reference.len(), || {
            "droop-closed-loop: arm count differs".into()
        });
        for (g, r) in self.last.iter().zip(&self.reference) {
            let what = format!("droop-closed-loop {}", r.policy);
            ch.check(
                g.policy == r.policy
                    && g.latency == r.latency
                    && g.droop_trace.len() == r.droop_trace.len()
                    && g.actuation_trace.len() == r.actuation_trace.len(),
                || format!("{what}: run shape differs"),
            );
            for (c, (a, b)) in g.droop_trace.iter().zip(&r.droop_trace).enumerate() {
                ch.check(close(*a, *b), || {
                    format!("{what}: droop at cycle {c} is {a}, fresh solve gives {b}")
                });
            }
            // Actuation follows the thermometer codes, so it must match
            // exactly.
            for (a, b) in g.actuation_trace.iter().zip(&r.actuation_trace) {
                ch.check(a == b, || {
                    format!("{what}: actuation differs at cycle {}", b.cycle)
                });
            }
            ch.check(
                close(g.worst_droop, r.worst_droop)
                    && g.droop_trace
                        .get(g.worst_droop_cycle)
                        .is_some_and(|&d| d == g.worst_droop)
                    && g.engaged_cycles == r.engaged_cycles
                    && g.deferred_peak == r.deferred_peak
                    && g.degraded_readings == 0,
                || format!("{what}: run summary differs"),
            );
            check_profile(ch, &what, &g.profile, &r.profile);
            if g.policy != "open-loop" {
                codes += self.chip.cycles() * self.chip.sites() - g.degraded_readings;
            }
        }
        Work {
            cycles: self.chip.cycles() * self.last.len() as u64,
            codes,
        }
    }

    fn traced(&mut self, tr: &mut Tracer) -> Result<(), String> {
        if self.last.len() != DROOP_ARMS.len() {
            return Err("no program run to compare".into());
        }
        for (arm, program) in DROOP_ARMS.iter().zip(&self.last) {
            let d = drive(
                &self.chip,
                self.seed,
                *arm,
                Grid::Replay,
                Sweep::None,
                None,
                tr,
            )?;
            if &d.run != program {
                return Err(format!(
                    "traced droop arm {} differs from run_mitigated",
                    program.policy
                ));
            }
        }
        Ok(())
    }
}

/// `noc-checkpoint-resume`: `run_checkpointed` on `chip_8x8` at a
/// [`CKPT_EVERY`]-cycle cadence, cancelled mid-run by a
/// `Fault::CancelAt` plan, then loaded and resumed.
#[derive(Debug)]
pub struct NocCheckpointResume {
    chip: Chip,
    seed: u64,
    ckpt: Checkpointing,
    reference: Driven,
    uninterrupted: NocCampaignResult,
    last: Option<(NocCampaignResult, WorkloadCheckpoint)>,
}

impl NocCheckpointResume {
    /// Prepares the workload, its fresh-solve reference and the
    /// uninterrupted run the resumed one must reproduce.
    ///
    /// # Errors
    ///
    /// Reference run failures.
    pub fn new(chip: Chip, seed: u64, path: PathBuf) -> Result<NocCheckpointResume, String> {
        let reference = drive(
            &chip,
            seed,
            Policy::OpenLoop,
            Grid::Fresh,
            Sweep::InMemory,
            None,
            &mut Tracer::off(),
        )?;
        let uninterrupted = chip
            .workload
            .run(&mut RunCtx::serial().with_seed(seed), RetryPolicy::none())
            .map_err(fail("uninterrupted run"))?;
        let interrupt_at = chip.workload.config().cycles / 2;
        Ok(NocCheckpointResume {
            chip,
            seed,
            ckpt: Checkpointing { path, interrupt_at },
            reference,
            uninterrupted,
            last: None,
        })
    }
}

impl Bench for NocCheckpointResume {
    fn run(&mut self) -> Result<(), String> {
        let w = &self.chip.workload;
        let policy = CheckpointPolicy::to_path(&self.ckpt.path, CKPT_EVERY as u64);
        let cancel = FaultPlan::new().with(Fault::CancelAt {
            cycle: self.ckpt.interrupt_at as u64,
        });
        let mut ctx = RunCtx::serial()
            .with_seed(self.seed)
            .with_fault_plan(cancel);
        match w.run_checkpointed(&mut ctx, RetryPolicy::none(), &policy, None) {
            Err(WorkloadError::Interrupted(_)) => {}
            Ok(_) => return Err("the CancelAt plan did not interrupt the run".into()),
            Err(e) => return Err(format!("interrupted run: {e}")),
        }
        let snapshot = WorkloadCheckpoint::load(&self.ckpt.path).map_err(fail("load"))?;
        let resumed = w
            .run_checkpointed(
                &mut RunCtx::serial().with_seed(self.seed),
                RetryPolicy::none(),
                &policy,
                Some(&snapshot),
            )
            .map_err(fail("resumed run"))?;
        self.last = Some((resumed, snapshot));
        Ok(())
    }

    fn check(&self, ch: &mut Checks) -> Work {
        let Some((resumed, snapshot)) = &self.last else {
            return Work::default();
        };
        ch.check(snapshot.cycle() == self.ckpt.interrupt_at, || {
            format!(
                "snapshot at cycle {}, not {}",
                snapshot.cycle(),
                self.ckpt.interrupt_at
            )
        });
        ch.check(resumed == &self.uninterrupted, || {
            "resumed run is not bit-identical to the uninterrupted one".into()
        });
        let want = self
            .reference
            .campaign
            .as_ref()
            .expect("in-memory reference");
        check_sites(ch, "noc-checkpoint-resume", &resumed.result, want);
        check_profile(
            ch,
            "noc-checkpoint-resume",
            &resumed.profile,
            &self.reference.run.profile,
        );
        Work {
            cycles: self.chip.cycles(),
            codes: swept_codes(&resumed.result.result.sites),
        }
    }

    fn traced(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let d = drive(
            &self.chip,
            self.seed,
            Policy::OpenLoop,
            Grid::Replay,
            Sweep::InMemory,
            Some(&self.ckpt),
            tr,
        )?;
        let (resumed, snapshot) = self.last.as_ref().ok_or("no program run to compare")?;
        if d.run.profile != resumed.profile
            || d.campaign.as_ref() != Some(&resumed.result)
            || d.interrupted.as_ref() != Some(snapshot)
        {
            return Err("traced checkpoint/resume differs from run_checkpointed".into());
        }
        Ok(())
    }
}
