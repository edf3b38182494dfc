//! Measurement campaigns: many sensors, many instants, one noise map.
//!
//! A [`Campaign`] wires the pieces together the way the paper's Fig. 6
//! system would be deployed: per-tile supply waveforms come from the
//! power grid under a workload, each instrumented site measures them
//! with its own array at the campaign's sampling cadence, and every
//! sampling instant's codes are serialized through the scan chain — "a
//! PSN scan chain" in operation.
//!
//! # Examples
//!
//! See `examples/noise_map.rs` for the end-to-end flow; unit tests below
//! exercise the pieces on a small grid.

use psnt_cells::logic::{Logic, LogicVector};
use psnt_cells::units::{Time, Voltage};
use psnt_core::code::ThermometerCode;
use psnt_core::encoder::{Encoder, EncodingPolicy};
use psnt_core::system::{Measurement, SensorConfig, SensorSystem};
use psnt_ctx::RunCtx;
use psnt_engine::{Engine, JobError, JobOutcome, JobSpec, RetryPolicy};
use psnt_obs::{Event as ObsEvent, Observer, RemoteSpan};
use psnt_pdn::grid::PowerGrid;
use psnt_pdn::waveform::Waveform;
use serde::{Deserialize, Serialize};

use crate::chain::ScanChain;
use crate::error::ScanError;
use crate::floorplan::Floorplan;

/// One site's measurement series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteSeries {
    /// Tile index of the site.
    pub tile: usize,
    /// Site instance name.
    pub name: String,
    /// Measurements in time order.
    pub measurements: Vec<Measurement>,
}

impl SiteSeries {
    /// The worst (minimum) HS level observed — the site's deepest droop.
    pub fn worst_level(&self) -> usize {
        self.measurements
            .iter()
            .map(|m| m.hs_word.level)
            .min()
            .unwrap_or(0)
    }

    /// Mean HS level across the series.
    pub fn mean_level(&self) -> f64 {
        if self.measurements.is_empty() {
            return 0.0;
        }
        self.measurements
            .iter()
            .map(|m| m.hs_word.level as f64)
            .sum::<f64>()
            / self.measurements.len() as f64
    }

    /// The lowest decoded supply estimate (interval midpoints only).
    pub fn worst_voltage(&self) -> Option<Voltage> {
        self.measurements
            .iter()
            .filter_map(|m| m.hs_interval.midpoint())
            .min_by(|a, b| a.total_cmp(b))
    }

    /// The worst (minimum) LS level observed — the deepest ground bounce.
    pub fn worst_ls_level(&self) -> usize {
        self.measurements
            .iter()
            .map(|m| m.ls_word.level)
            .min()
            .unwrap_or(0)
    }

    /// The highest decoded ground-bounce estimate (interval midpoints
    /// only).
    pub fn worst_bounce(&self) -> Option<Voltage> {
        self.measurements
            .iter()
            .filter_map(|m| m.ls_interval.midpoint())
            .max_by(|a, b| a.total_cmp(b))
    }
}

/// The result of a campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Per-site series, in floorplan site order.
    pub sites: Vec<SiteSeries>,
    /// Sampling instants shared by all sites.
    pub instants: Vec<Time>,
    /// One serialized scan frame per instant.
    pub frames: Vec<psnt_cells::logic::LogicVector>,
}

impl CampaignResult {
    /// The spatial noise map: `(tile, worst level, mean level)` per site.
    pub fn noise_map(&self) -> Vec<(usize, usize, f64)> {
        self.sites
            .iter()
            .map(|s| (s.tile, s.worst_level(), s.mean_level()))
            .collect()
    }

    /// The site with the deepest observed droop.
    pub fn hotspot(&self) -> Option<&SiteSeries> {
        self.sites
            .iter()
            .min_by(|a, b| (a.worst_level(), a.tile).cmp(&(b.worst_level(), b.tile)))
    }
}

/// Per-site outcome of a resilient campaign run
/// ([`Campaign::run_resilient`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SiteOutcome {
    /// The site measured normally (possibly after deterministic
    /// retries).
    Measured,
    /// The site failed every attempt; the campaign degraded it to an
    /// empty series and all-`X` scan-frame bits instead of aborting.
    Degraded {
        /// The stringified failure (sensor error or panic payload).
        error: String,
    },
}

impl SiteOutcome {
    /// True for [`SiteOutcome::Measured`].
    pub fn is_measured(&self) -> bool {
        matches!(self, SiteOutcome::Measured)
    }
}

/// Aggregate degradation report of a resilient campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationSummary {
    /// Sites that failed every attempt and were degraded.
    pub sites_degraded: usize,
    /// Array elements whose readout never resolved: the largest count
    /// of `X` bits in any captured scan frame (each degraded site
    /// contributes a full array width).
    pub dead_elements: usize,
    /// Worst-case code error across all measured codes: the largest
    /// level disagreement between the bubble-correcting and truncating
    /// encoders — 0 when every captured code was canonical.
    pub worst_code_error: usize,
}

/// The result of a resilient campaign run: the (possibly partial)
/// campaign data plus per-site outcomes and the degradation summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilientCampaignResult {
    /// The campaign data. Degraded sites appear with empty
    /// measurement series and contribute all-`X` bits to every frame,
    /// so site order, frame geometry and instants are identical to a
    /// fully healthy run.
    pub result: CampaignResult,
    /// One outcome per site, in floorplan site order.
    pub outcomes: Vec<SiteOutcome>,
    /// The aggregate degradation report.
    pub summary: DegradationSummary,
}

/// One record of a streamed campaign run ([`Campaign::run_streamed`]).
///
/// Records arrive in a fixed order regardless of worker count: every
/// site in floorplan order, then one frame per sampling instant, then
/// the summary (always last). Collecting them is exactly how the
/// in-memory paths build their [`ResilientCampaignResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamRecord {
    /// One site's completed series and outcome.
    Site {
        /// Floorplan site index.
        site: usize,
        /// The cycle-window index of each sampling instant in the
        /// sweep: measurement `k` of a healthy series belongs to
        /// window `windows[k]` (a degraded site covers none of them).
        /// Site records arrive *before* any frame, so a streaming
        /// consumer can attribute every measurement to its cycle
        /// window without out-of-band bookkeeping.
        windows: Vec<usize>,
        /// The site's measurement series (empty when degraded).
        series: SiteSeries,
        /// Whether the site measured or degraded.
        outcome: SiteOutcome,
    },
    /// One serialized scan frame.
    Frame {
        /// Sampling-instant index (equal to the cycle-window index).
        index: usize,
        /// The sampling instant.
        instant: Time,
        /// The serialized chain frame (degraded sites read out as `X`).
        frame: LogicVector,
    },
    /// The final degradation summary.
    Summary {
        /// Total cycle windows the sweep covered (one per instant).
        windows: usize,
        /// The aggregate degradation report.
        summary: DegradationSummary,
    },
    /// Terminal record of a run that stopped early — a sink failure or
    /// a supervisor trip (cancellation, deadline, budget). Tells the
    /// stream's consumer exactly how many site records were delivered
    /// before the abort, so a truncated stream is always labelled,
    /// never silently cut mid-sweep. Emitted best-effort (a sink that
    /// is itself failing may drop it); the run still returns the error.
    Aborted {
        /// Site records fully delivered to the sink before the abort.
        sites_completed: usize,
        /// Why the run stopped (stringified sink error or interrupt).
        reason: String,
    },
}

impl StreamRecord {
    /// Renders the record as a structured [`psnt_obs`] event so a
    /// streamed campaign can flow straight into any `psnt-obs` sink
    /// (JSONL file, ring buffer, rotating log, …) without buffering.
    pub fn to_event(&self) -> ObsEvent {
        match self {
            StreamRecord::Site {
                site,
                windows,
                series,
                outcome,
            } => {
                let mut e = ObsEvent::new("scan", "stream_site")
                    .field("site", &(*site as u64))
                    .field("windows", &(windows.len() as u64))
                    .field("tile", &(series.tile as u64))
                    .field("name", &series.name)
                    .field("measured", &outcome.is_measured())
                    .field("worst_level", &(series.worst_level() as u64));
                if let SiteOutcome::Degraded { error } = outcome {
                    e = e.field("error", error);
                }
                e
            }
            StreamRecord::Frame {
                index,
                instant,
                frame,
            } => ObsEvent::new("scan", "stream_frame")
                .field("index", &(*index as u64))
                .field("t_ps", &instant.picoseconds())
                .field("bits", &(frame.len() as u64)),
            StreamRecord::Summary { windows, summary } => ObsEvent::new("scan", "stream_summary")
                .field("windows", &(*windows as u64))
                .field("sites_degraded", &(summary.sites_degraded as u64))
                .field("dead_elements", &(summary.dead_elements as u64))
                .field("worst_code_error", &(summary.worst_code_error as u64)),
            StreamRecord::Aborted {
                sites_completed,
                reason,
            } => ObsEvent::new("scan", "stream_aborted")
                .field("sites_completed", &(*sites_completed as u64))
                .field("reason", reason),
        }
    }
}

/// Sites per engine batch of the site sweep. Fixed (not worker-count
/// dependent), so chunk boundaries — and therefore record order and
/// seeds — are identical at any worker count.
const STREAM_CHUNK_SITES: usize = 32;

/// Where a campaign's rail waveforms come from.
enum Rails<'a> {
    /// Per-tile loads, solved on the floorplan's grid (and on an
    /// optional ground grid) and sampled `samples` times, `dt` apart
    /// from `start`.
    Loads {
        tile_loads: &'a [Waveform],
        ground_grid: Option<&'a PowerGrid>,
        start: Time,
        dt: Time,
        samples: usize,
    },
    /// Externally solved rails sampled at explicit instants.
    Solved {
        tile_supplies: Vec<Waveform>,
        tile_bounces: Option<Vec<Waveform>>,
        instants: Vec<Time>,
    },
}

/// How an entry point treats a failed site; also labels its campaign
/// span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// [`Campaign::run_dual`]: the first failed site fails the run.
    Plain,
    /// [`Campaign::run_resilient`]: failed sites degrade and the
    /// records are collected in memory.
    Resilient,
    /// [`Campaign::run_streamed`]: failed sites degrade and the records
    /// go to the caller's sink.
    Streamed,
}

/// A multi-site measurement campaign.
///
/// Every entry point is one per-site sweep ([`Campaign::run_streamed`]
/// and its `from_rails` twin hand the records to the caller's sink);
/// the in-memory entry points are a sink that collects the records,
/// and the plain ones ([`Campaign::run`], [`Campaign::run_dual`]) are
/// that sink with [`RetryPolicy::none`] and the first failed site
/// failing the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    floorplan: Floorplan,
    config: SensorConfig,
    chain: ScanChain,
}

impl Campaign {
    /// Instruments a floorplan with identical sensor systems (the paper:
    /// identical arrays, "only a control system is required").
    ///
    /// # Errors
    ///
    /// Propagates sensor-configuration validation.
    pub fn new(floorplan: Floorplan, config: SensorConfig) -> Result<Campaign, ScanError> {
        // Validate the configuration once up front.
        let probe = SensorSystem::new(config.clone())?;
        let chain = ScanChain::new(
            floorplan.sites().iter().map(|s| s.name.clone()).collect(),
            probe.hs_array().bits(),
        );
        Ok(Campaign {
            floorplan,
            config,
            chain,
        })
    }

    /// The floorplan under measurement.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The readout chain.
    pub fn chain(&self) -> &ScanChain {
        &self.chain
    }

    /// Runs the campaign: solves the grid under `tile_loads` (amperes per
    /// tile), measures every site at `samples` instants spaced `dt` from
    /// `start`, and serializes each instant through the scan chain. The
    /// ground rail is assumed quiet; see [`Campaign::run_dual`] for
    /// simultaneous ground-bounce measurement.
    ///
    /// The per-site sweep runs on the context's engine, and when the
    /// context carries an observer the run is traced (see
    /// [`Campaign::run_dual`]). Results are bit-identical at any worker
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::InvalidConfig`] for a load/tile mismatch and
    /// propagates grid, sensor and chain failures.
    pub fn run(
        &self,
        ctx: &mut RunCtx<'_>,
        tile_loads: &[Waveform],
        start: Time,
        dt: Time,
        samples: usize,
    ) -> Result<CampaignResult, ScanError> {
        self.run_dual(ctx, tile_loads, None, start, dt, samples)
    }

    /// Like [`Campaign::run`], but with the return current flowing
    /// through a ground grid: every site's LOW-SENSE array then measures
    /// the local ground bounce. The ground grid mirrors the supply grid's
    /// geometry (same placement) with its own mesh/pad resistances; the
    /// bounce at a tile is its IR rise above the board ground, computed
    /// from the same per-tile currents.
    ///
    /// This is the resilient sweep ([`Campaign::run_resilient`]) with
    /// [`RetryPolicy::none`] and no degradation: the first failed site
    /// fails the run. Determinism: each site is an independent job
    /// keyed by its floorplan index and results are collected in
    /// floorplan order, so the [`CampaignResult`] (codes, maps, frames,
    /// worst droop/bounce) is bit-identical at any worker count.
    ///
    /// When the context carries an observer: per site, in site order,
    /// its span tree and one `scan`/`site` event (tile, name, worst
    /// levels); running `campaign.worst_droop_mv` /
    /// `campaign.worst_bounce_mv` gauges; and span timing around the
    /// grid solve and the measurement sweep. Telemetry is worker-count
    /// independent too — the workers' metrics registries are merged
    /// into the observer's chunk by chunk in worker order. Results are
    /// identical with and without an observer.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::InvalidConfig`] for load/tile or grid-shape
    /// mismatches and propagates grid, sensor and chain failures; when
    /// several sites fail, the error of the lowest-indexed site is
    /// returned.
    ///
    /// # Panics
    ///
    /// Re-raises a site's panic, as [`Engine::run_batch`] does —
    /// including one injected by a [`psnt_fault::Fault::SitePanic`] plan
    /// on the context, which only the resilient entry points degrade.
    pub fn run_dual(
        &self,
        ctx: &mut RunCtx<'_>,
        tile_loads: &[Waveform],
        ground_grid: Option<&PowerGrid>,
        start: Time,
        dt: Time,
        samples: usize,
    ) -> Result<CampaignResult, ScanError> {
        let rails = Rails::Loads {
            tile_loads,
            ground_grid,
            start,
            dt,
            samples,
        };
        Ok(self
            .collect(ctx, rails, RetryPolicy::none(), Mode::Plain)?
            .result)
    }

    /// Like [`Campaign::run_dual`], but the campaign **completes with
    /// partial results when individual sites fail**: each site runs as
    /// an isolated job ([`Engine::run_batch_isolated`]) under the given
    /// deterministic [`RetryPolicy`], and a site whose every attempt
    /// fails is *degraded* — it contributes an empty measurement series
    /// and all-`X` bits to every scan frame — instead of aborting the
    /// run.
    ///
    /// When the context carries a [`psnt_fault::FaultPlan`] with
    /// [`psnt_fault::Fault::SitePanic`] entries, those sites panic on
    /// their first attempt — the harness-level fault used to exercise
    /// this degradation path end-to-end (a retrying policy recovers
    /// them; [`RetryPolicy::none`] leaves them degraded).
    ///
    /// Determinism: sites are independent jobs keyed by floorplan
    /// index, retries happen inside the owning job with seeds derived
    /// from `(ctx seed, site, attempt)`, and outcomes are collected in
    /// site order — so the whole [`ResilientCampaignResult`], including
    /// which sites degraded, is bit-identical at any worker count. The
    /// result is exactly the collected records of
    /// [`Campaign::run_streamed`].
    ///
    /// Telemetry (when observed): everything [`Campaign::run_dual`]
    /// emits for measured sites, plus one `scan`/`degraded` event per
    /// degraded site, the `campaign.sites_degraded` counter, and
    /// `campaign.worst_code_error` / `campaign.dead_elements` gauges
    /// summarising the degradation.
    ///
    /// # Errors
    ///
    /// Returns the same input-validation and grid-solve errors as
    /// [`Campaign::run_dual`], and chain-capture failures. Per-site
    /// measurement failures do **not** abort the run — they surface in
    /// [`ResilientCampaignResult::outcomes`].
    ///
    #[allow(clippy::too_many_arguments)]
    pub fn run_resilient(
        &self,
        ctx: &mut RunCtx<'_>,
        tile_loads: &[Waveform],
        ground_grid: Option<&PowerGrid>,
        start: Time,
        dt: Time,
        samples: usize,
        retry: RetryPolicy,
    ) -> Result<ResilientCampaignResult, ScanError> {
        let rails = Rails::Loads {
            tile_loads,
            ground_grid,
            start,
            dt,
            samples,
        };
        self.collect(ctx, rails, retry, Mode::Resilient)
    }

    /// [`Campaign::run_resilient`] against **externally solved rails**:
    /// per-tile supply (and optionally ground-bounce) waveforms plus
    /// explicit sampling instants. This is the path for workload-driven
    /// campaigns whose rail waveforms come from the cycle-stepped grid
    /// updates ([`psnt_pdn::grid::PowerGrid::solve_delta`]).
    ///
    /// Only instrumented tiles' waveforms are sampled; uninstrumented
    /// entries may be cheap placeholders (e.g. a constant), but the
    /// vectors must still be grid-shaped so tile indexing stays honest.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::InvalidConfig`] for grid-shape mismatches or
    /// empty/unsorted instants; per-site failures degrade as in
    /// [`Campaign::run_resilient`].
    pub fn run_resilient_from_rails(
        &self,
        ctx: &mut RunCtx<'_>,
        tile_supplies: Vec<Waveform>,
        tile_bounces: Option<Vec<Waveform>>,
        instants: Vec<Time>,
        retry: RetryPolicy,
    ) -> Result<ResilientCampaignResult, ScanError> {
        let rails = Rails::Solved {
            tile_supplies,
            tile_bounces,
            instants,
        };
        self.collect(ctx, rails, retry, Mode::Resilient)
    }

    /// Streams a resilient campaign instead of accumulating it: each
    /// chunk's site records go to `sink` on the calling thread and are
    /// dropped before the next chunk is swept — so peak memory holds at
    /// most one chunk of sites plus a per-instant code buffer for frame
    /// assembly, never a full [`CampaignResult`]. That is what lets a
    /// 256+-site workload campaign run with flat memory while its
    /// records land directly in a `psnt-obs` sink (see
    /// [`StreamRecord::to_event`]).
    ///
    /// Semantics match [`Campaign::run_resilient`] exactly — that entry
    /// point is this sweep with a collecting sink: sites run as
    /// isolated jobs under `retry`, failing sites degrade to empty
    /// series and all-`X` frame bits, and a
    /// [`psnt_fault::Fault::SitePanic`] plan in the context degrades (or
    /// recovers, with retries) the same sites. Sites are sharded into
    /// fixed-size chunks independent of the worker count, each chunk
    /// sweeps on the context's engine, and records are delivered in
    /// floorplan order — sites first, then one [`StreamRecord::Frame`]
    /// per instant, then the [`StreamRecord::Summary`] (also returned)
    /// — so the stream is **bit-identical at any worker count**.
    ///
    /// When the context carries an observer, the per-site telemetry of
    /// [`Campaign::run_resilient`] (site spans, `scan`/`site` and
    /// `scan`/`degraded` events, counters and gauges) is emitted
    /// incrementally from the consuming thread, still in site order.
    ///
    /// # Errors
    ///
    /// Input-validation, grid-solve and chain-capture failures as
    /// [`Campaign::run_resilient`]; additionally, the first error the
    /// sink returns aborts the stream and is propagated (workers stop at
    /// the next chunk boundary), and a trip of the context's supervisor
    /// stops the sweep at the next chunk boundary with
    /// [`ScanError::Interrupted`]. Either way the truncated stream is
    /// closed with a best-effort terminal [`StreamRecord::Aborted`]
    /// carrying the count of site records already delivered. Per-site
    /// measurement failures do **not** abort the run — they stream as
    /// degraded records.
    #[allow(clippy::too_many_arguments)]
    pub fn run_streamed(
        &self,
        ctx: &mut RunCtx<'_>,
        tile_loads: &[Waveform],
        ground_grid: Option<&PowerGrid>,
        start: Time,
        dt: Time,
        samples: usize,
        retry: RetryPolicy,
        mut sink: impl FnMut(StreamRecord) -> Result<(), ScanError>,
    ) -> Result<DegradationSummary, ScanError> {
        let rails = Rails::Loads {
            tile_loads,
            ground_grid,
            start,
            dt,
            samples,
        };
        self.sweep(ctx, rails, retry, Mode::Streamed, &mut sink)
    }

    /// [`Campaign::run_streamed`] against externally solved rails (see
    /// [`Campaign::run_resilient_from_rails`] for the rails contract):
    /// the chip-scale streaming path a workload campaign drives, with
    /// rail waveforms from the sparse PDN solver and measurement
    /// windows chosen by the workload.
    ///
    /// # Errors
    ///
    /// Rail validation as [`Campaign::run_resilient_from_rails`]; sink
    /// and degradation semantics as [`Campaign::run_streamed`].
    pub fn run_streamed_from_rails(
        &self,
        ctx: &mut RunCtx<'_>,
        tile_supplies: Vec<Waveform>,
        tile_bounces: Option<Vec<Waveform>>,
        instants: Vec<Time>,
        retry: RetryPolicy,
        mut sink: impl FnMut(StreamRecord) -> Result<(), ScanError>,
    ) -> Result<DegradationSummary, ScanError> {
        let rails = Rails::Solved {
            tile_supplies,
            tile_bounces,
            instants,
        };
        self.sweep(ctx, rails, retry, Mode::Streamed, &mut sink)
    }

    /// The collecting sink behind every in-memory entry point: runs the
    /// sweep and gathers its records into a [`ResilientCampaignResult`].
    fn collect(
        &self,
        ctx: &mut RunCtx<'_>,
        rails: Rails<'_>,
        retry: RetryPolicy,
        mode: Mode,
    ) -> Result<ResilientCampaignResult, ScanError> {
        let n = self.floorplan.sites().len();
        let (mut sites, mut outcomes) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let (mut instants, mut frames) = (Vec::new(), Vec::new());
        let summary = self.sweep(ctx, rails, retry, mode, &mut |record| {
            match record {
                StreamRecord::Site {
                    series, outcome, ..
                } => {
                    sites.push(series);
                    outcomes.push(outcome);
                }
                StreamRecord::Frame { instant, frame, .. } => {
                    instants.push(instant);
                    frames.push(frame);
                }
                StreamRecord::Summary { .. } | StreamRecord::Aborted { .. } => {}
            }
            Ok(())
        })?;
        Ok(ResilientCampaignResult {
            result: CampaignResult {
                sites,
                instants,
                frames,
            },
            outcomes,
            summary,
        })
    }

    /// One campaign run of any entry point: validates (and, for
    /// [`Rails::Loads`], solves) the rails inside the `campaign` span,
    /// runs the site sweep and closes the stream with its
    /// [`StreamRecord::Summary`].
    fn sweep(
        &self,
        ctx: &mut RunCtx<'_>,
        rails: Rails<'_>,
        retry: RetryPolicy,
        mode: Mode,
        sink: &mut impl FnMut(StreamRecord) -> Result<(), ScanError>,
    ) -> Result<DegradationSummary, ScanError> {
        let (supplies, bounces, instants, campaign_span) = match rails {
            Rails::Loads {
                tile_loads,
                ground_grid,
                start,
                dt,
                samples,
            } => {
                let end = start + dt * samples as f64;
                let mut span = self.campaign_span(ctx, mode, samples, false, start, end);
                let (supplies, bounces, solve_end) =
                    self.solve_loads(ctx, tile_loads, ground_grid, start, dt, samples)?;
                if let Some(span) = span.as_mut() {
                    span.cover_sim_ps(solve_end.picoseconds());
                }
                let instants: Vec<Time> = (0..samples)
                    .map(|k| start + dt * (k as f64 + 0.5))
                    .collect();
                (supplies, bounces, instants, span)
            }
            Rails::Solved {
                tile_supplies,
                tile_bounces,
                instants,
            } => {
                self.check_rails(&tile_supplies, tile_bounces.as_deref(), &instants)?;
                let (t0, t1) = (instants[0], instants[instants.len() - 1]);
                let span = self.campaign_span(ctx, mode, instants.len(), true, t0, t1);
                (tile_supplies, tile_bounces, instants, span)
            }
        };
        let fail_fast = mode == Mode::Plain;
        let out = self.site_sweep(
            ctx,
            &supplies,
            bounces.as_deref(),
            &instants,
            retry,
            fail_fast,
            sink,
        );
        if let (Some(obs), Some(span)) = (ctx.observer(), campaign_span) {
            obs.end_span(span);
        }
        let windows = instants.len();
        let summary = out?;
        sink(StreamRecord::Summary { windows, summary })?;
        Ok(summary)
    }

    /// Opens the `campaign` span (when observed) over `[t0, t1]`,
    /// labelled with the entry point's mode and rail source.
    fn campaign_span(
        &self,
        ctx: &mut RunCtx<'_>,
        mode: Mode,
        samples: usize,
        from_rails: bool,
        t0: Time,
        t1: Time,
    ) -> Option<psnt_obs::Span> {
        ctx.observer().map(|o| {
            let mut span = o
                .begin_span("campaign")
                .attr("sites", &(self.floorplan.sites().len() as u64))
                .attr("samples", &(samples as u64));
            match mode {
                Mode::Plain => {}
                Mode::Resilient => span = span.attr("resilient", &true),
                Mode::Streamed => span = span.attr("streamed", &true),
            }
            if from_rails {
                span = span.attr("from_rails", &true);
            }
            span.sim_interval_ps(t0.picoseconds(), t1.picoseconds())
        })
    }

    /// Validates the campaign inputs and solves the supply (and
    /// ground-bounce) waveforms; returns them with the end of the solved
    /// range.
    #[allow(clippy::type_complexity)]
    fn solve_loads(
        &self,
        ctx: &mut RunCtx<'_>,
        tile_loads: &[Waveform],
        ground_grid: Option<&PowerGrid>,
        start: Time,
        dt: Time,
        samples: usize,
    ) -> Result<(Vec<Waveform>, Option<Vec<Waveform>>, Time), ScanError> {
        let grid = self.floorplan.grid();
        if tile_loads.len() != grid.tiles() {
            return Err(ScanError::InvalidConfig {
                name: "tile_loads",
                reason: format!(
                    "expected {} tile load waveforms, got {}",
                    grid.tiles(),
                    tile_loads.len()
                ),
            });
        }
        if samples == 0 || dt <= Time::ZERO {
            return Err(ScanError::InvalidConfig {
                name: "samples/dt",
                reason: "need a positive sample count and spacing".into(),
            });
        }
        if let Some(g) = ground_grid {
            if g.tiles() != grid.tiles() {
                return Err(ScanError::InvalidConfig {
                    name: "ground_grid",
                    reason: format!(
                        "ground grid has {} tiles, supply grid {}",
                        g.tiles(),
                        grid.tiles()
                    ),
                });
            }
        }
        let end = start + dt * samples as f64 + Time::from_ns(1.0);
        let solve_dt = dt / 2.0;
        let solve_span = ctx.observer().map(|o| {
            o.begin_span("grid_solve")
                .attr("tiles", &(grid.tiles() as u64))
                .sim_interval_ps(start.picoseconds(), end.picoseconds())
        });
        let tile_supplies = grid.quasi_static_transient(ctx, tile_loads, start, end, solve_dt)?;
        // Ground bounce: the same tile currents return through the ground
        // mesh; the bounce is the IR rise above the (0 V-referenced) pad.
        let tile_bounces: Option<Vec<Waveform>> = match ground_grid {
            None => None,
            Some(g) => {
                let raw = g.quasi_static_transient(ctx, tile_loads, start, end, solve_dt)?;
                let v_pad = g.v_pad().volts();
                Some(raw.into_iter().map(|w| w.map(|v| v_pad - v)).collect())
            }
        };
        if let (Some(obs), Some(span)) = (ctx.observer(), solve_span) {
            obs.end_span(span);
        }
        Ok((tile_supplies, tile_bounces, end))
    }

    /// Validates externally solved rails: grid-shaped waveforms and
    /// non-empty, strictly increasing instants.
    fn check_rails(
        &self,
        tile_supplies: &[Waveform],
        tile_bounces: Option<&[Waveform]>,
        instants: &[Time],
    ) -> Result<(), ScanError> {
        let grid = self.floorplan.grid();
        if tile_supplies.len() != grid.tiles() {
            return Err(ScanError::InvalidConfig {
                name: "tile_supplies",
                reason: format!(
                    "expected {} tile supply waveforms, got {}",
                    grid.tiles(),
                    tile_supplies.len()
                ),
            });
        }
        if let Some(b) = tile_bounces {
            if b.len() != grid.tiles() {
                return Err(ScanError::InvalidConfig {
                    name: "tile_bounces",
                    reason: format!(
                        "expected {} tile bounce waveforms, got {}",
                        grid.tiles(),
                        b.len()
                    ),
                });
            }
        }
        if instants.is_empty() {
            return Err(ScanError::InvalidConfig {
                name: "instants",
                reason: "need at least one sampling instant".into(),
            });
        }
        if instants.windows(2).any(|w| w[1] <= w[0]) {
            return Err(ScanError::InvalidConfig {
                name: "instants",
                reason: "instants must be strictly increasing".into(),
            });
        }
        Ok(())
    }

    /// The per-site sweep behind every entry point — the only code
    /// that runs site jobs on the engine. Sites are swept in fixed
    /// chunks of isolated jobs; each chunk's outcomes are handed to
    /// `sink` in site order (with their telemetry) before the next chunk
    /// starts, so at most one chunk of series is held at a time. The
    /// frames are then assembled from the per-instant code buffer and
    /// the summary returned (the caller sinks the final
    /// [`StreamRecord::Summary`]).
    ///
    /// With `fail_fast` (the plain entry points) a failed site is not
    /// degraded: its error stops the sweep and is returned — the
    /// lowest-indexed failure, since outcomes arrive in site order —
    /// and its panic is re-raised.
    #[allow(clippy::too_many_arguments)]
    fn site_sweep(
        &self,
        ctx: &mut RunCtx<'_>,
        supplies: &[Waveform],
        bounces: Option<&[Waveform]>,
        instants: &[Time],
        retry: RetryPolicy,
        fail_fast: bool,
        sink: &mut impl FnMut(StreamRecord) -> Result<(), ScanError>,
    ) -> Result<DegradationSummary, ScanError> {
        let samples = instants.len();
        let (t0, t1) = (
            instants[0].picoseconds(),
            instants[samples - 1].picoseconds(),
        );
        let v_nom = self.floorplan.grid().v_pad().volts();
        let quiet = &Waveform::constant(0.0);
        let panicking = ctx
            .fault_plan()
            .map(psnt_fault::FaultPlan::panicking_sites)
            .unwrap_or_default();
        let worker_panics = ctx
            .fault_plan()
            .map(psnt_fault::FaultPlan::worker_panics)
            .unwrap_or_default();
        let mut measure_span = ctx
            .observer()
            .map(|o| o.begin_span("measure_sweep").sim_interval_ps(t0, t1));
        // Workers record their site spans against the observer's epoch
        // and return the finished trees; the observer assigns ids here,
        // in site order, so the stream never depends on which worker ran
        // which site.
        let epoch = ctx.observer().map(|o| o.epoch());
        let site_defs = self.floorplan.sites();
        let n_sites = site_defs.len();
        let engine: Engine = ctx.engine().clone();
        let sup = ctx.supervisor().clone();

        let unknown: ThermometerCode = ThermometerCode::new(
            (0..self.chain.bits_per_site())
                .map(|_| Logic::X)
                .collect::<LogicVector>(),
        );
        let mut summary = DegradationSummary {
            sites_degraded: 0,
            dead_elements: 0,
            worst_code_error: 0,
        };
        // The only cross-site state the frames need: one code per site
        // per instant (a few bits each) — not the measurement series.
        let mut frame_codes: Vec<Vec<ThermometerCode>> = vec![Vec::with_capacity(n_sites); samples];
        let mut abort: Option<ScanError> = None;
        let mut sites_streamed = 0usize;
        let degraded = |site: usize, error: String| {
            let series = SiteSeries {
                tile: site_defs[site].tile,
                name: site_defs[site].name.clone(),
                measurements: Vec::new(),
            };
            (series, SiteOutcome::Degraded { error }, None)
        };

        // A trip stops the sweep at a chunk boundary, so an interrupted
        // stream is always a whole-chunk prefix of the full run.
        'sweep: for chunk_start in (0..n_sites).step_by(STREAM_CHUNK_SITES) {
            if let Err(reason) = sup.check() {
                abort = Some(ScanError::Interrupted(reason));
                break;
            }
            let chunk_len = STREAM_CHUNK_SITES.min(n_sites - chunk_start);
            let spec = JobSpec::new(chunk_len).seed(ctx.seed());
            let batch = engine.run_batch_isolated(&spec, retry, |job| {
                let index = chunk_start + job.index();
                if job.attempt() == 0 && panicking.contains(&index) {
                    panic!("injected fault: site {index} panicked");
                }
                if worker_panics
                    .iter()
                    .any(|&(j, a)| j == index && job.attempt() <= a)
                {
                    panic!(
                        "injected fault: job {index} panicked on attempt {}",
                        job.attempt()
                    );
                }
                let site = &site_defs[index];
                let mut site_span = epoch.map(|e| {
                    RemoteSpan::begin("site", e, job.worker() as u32 + 1)
                        .attr("site", &(index as u64))
                        .attr("tile", &(site.tile as u64))
                        .attr("name", &site.name)
                        .attr("attempt", &u64::from(job.attempt()))
                        .sim_interval_ps(t0, t1)
                });
                let system = SensorSystem::new(self.config.clone())?;
                let vdd = &supplies[site.tile];
                let gnd = bounces.map_or(quiet, |b| &b[site.tile]);
                let mut measurements = Vec::with_capacity(samples);
                for &at in instants {
                    let measure =
                        epoch.map(|e| RemoteSpan::begin("measure", e, job.worker() as u32 + 1));
                    measurements.push(system.measure_at(vdd, gnd, at).map_err(ScanError::from)?);
                    if let (Some(span), Some(measure)) = (site_span.as_mut(), measure) {
                        span.child(
                            measure
                                .sim_interval_ps(at.picoseconds(), at.picoseconds())
                                .end(),
                        );
                    }
                }
                job.metrics.counter_add("campaign.sites_done", 1);
                Ok::<(SiteSeries, Option<RemoteSpan>), ScanError>((
                    SiteSeries {
                        tile: site.tile,
                        name: site.name.clone(),
                        measurements,
                    },
                    site_span.map(RemoteSpan::end),
                ))
            });

            for (j, outcome) in batch.results.into_iter().enumerate() {
                let site = chunk_start + j;
                // Failures name the floorplan site, not the chunk-local
                // job.
                let (series, site_outcome, span) = match outcome {
                    JobOutcome::Ok(Ok((series, span))) => (series, SiteOutcome::Measured, span),
                    JobOutcome::Ok(Err(e)) if fail_fast => {
                        abort = Some(e);
                        break 'sweep;
                    }
                    JobOutcome::Failed(je) if fail_fast => {
                        std::panic::panic_any(JobError { job: site, ..je })
                    }
                    JobOutcome::Ok(Err(e)) => degraded(site, e.to_string()),
                    JobOutcome::Failed(je) => {
                        degraded(site, JobError { job: site, ..je }.to_string())
                    }
                };
                for (k, codes) in frame_codes.iter_mut().enumerate() {
                    codes.push(
                        series
                            .measurements
                            .get(k)
                            .map_or_else(|| unknown.clone(), |m| m.hs_code.clone()),
                    );
                }
                if let Some(gap) = series
                    .measurements
                    .iter()
                    .flat_map(|m| [&m.hs_code, &m.ls_code])
                    .map(encoder_level_gap)
                    .max()
                {
                    summary.worst_code_error = summary.worst_code_error.max(gap);
                }
                if !site_outcome.is_measured() {
                    summary.sites_degraded += 1;
                }
                if let Some(obs) = ctx.observer() {
                    if let Some(span) = &span {
                        obs.emit_remote_tree(span);
                    }
                    emit_site_events(obs, site, &series, &site_outcome, v_nom);
                }
                let record = StreamRecord::Site {
                    site,
                    windows: (0..samples).collect(),
                    series,
                    outcome: site_outcome,
                };
                if let Err(e) = sink(record) {
                    abort = Some(e);
                    break 'sweep;
                }
                sites_streamed += 1;
            }
            // Merged after the chunk's sites, in worker order, so the
            // observer's metrics never depend on the worker count.
            if let Some(obs) = ctx.observer() {
                obs.metrics.merge(&batch.metrics);
            }
            sup.charge_events(chunk_len as u64);
        }

        // The frame tail is supervised like the site phase.
        if abort.is_none() {
            for (k, codes) in frame_codes.iter().enumerate() {
                if let Err(reason) = sup.check() {
                    abort = Some(ScanError::Interrupted(reason));
                    break;
                }
                let frame = self.chain.capture(codes)?;
                let dead = frame.iter().filter(|b| *b == Logic::X).count();
                summary.dead_elements = summary.dead_elements.max(dead);
                if let Err(e) = sink(StreamRecord::Frame {
                    index: k,
                    instant: instants[k],
                    frame,
                }) {
                    abort = Some(e);
                    break;
                }
            }
        }
        // A sink failure, a failed site under `fail_fast` or a
        // supervisor trip ends the run here: label the truncated stream
        // with a terminal `Aborted` record (best-effort — the sink may
        // be the failing party) instead of cutting it silently, then
        // surface the error.
        if let Some(e) = abort {
            let _ = sink(StreamRecord::Aborted {
                sites_completed: sites_streamed,
                reason: e.to_string(),
            });
            if let (Some(obs), Some(span)) = (ctx.observer(), measure_span.take()) {
                obs.end_span(span);
            }
            return Err(e);
        }
        if let Some(obs) = ctx.observer() {
            obs.metrics
                .gauge_set_max("campaign.worst_code_error", summary.worst_code_error as f64);
            obs.metrics
                .gauge_set_max("campaign.dead_elements", summary.dead_elements as f64);
        }
        if let (Some(obs), Some(span)) = (ctx.observer(), measure_span) {
            obs.end_span(span);
        }
        Ok(summary)
    }
}

/// Emits one site's `scan`/`site` event and worst droop/bounce gauges,
/// plus its `scan`/`degraded` event and counter when it degraded. Sites
/// are visited in floorplan order, so the telemetry stream is
/// worker-count independent.
fn emit_site_events(
    obs: &mut Observer,
    site: usize,
    series: &SiteSeries,
    outcome: &SiteOutcome,
    v_nom: f64,
) {
    let mut event = ObsEvent::new("scan", "site")
        .field("tile", &(series.tile as u64))
        .field("name", &series.name)
        .field("worst_level", &(series.worst_level() as u64));
    if let Some(v) = series.worst_voltage() {
        let droop_mv = (v_nom - v.volts()) * 1e3;
        obs.metrics
            .gauge_set_max("campaign.worst_droop_mv", droop_mv);
        event = event.field("worst_droop_mv", &droop_mv);
    }
    if let Some(b) = series.worst_bounce() {
        let bounce_mv = b.volts() * 1e3;
        obs.metrics
            .gauge_set_max("campaign.worst_bounce_mv", bounce_mv);
        event = event.field("worst_bounce_mv", &bounce_mv);
    }
    obs.event(event);
    if let SiteOutcome::Degraded { error } = outcome {
        obs.metrics.counter_add("campaign.sites_degraded", 1);
        obs.event(
            ObsEvent::new("scan", "degraded")
                .field("site", &(site as u64))
                .field("tile", &(series.tile as u64))
                .field("name", &series.name)
                .field("error", error),
        );
    }
}

/// The level disagreement between the bubble-correcting and truncating
/// encoders on one captured code — 0 for canonical codes, positive when
/// a bubble or unresolved bit made the cheap priority-chain encoder
/// diverge from the corrected reading.
fn encoder_level_gap(code: &ThermometerCode) -> usize {
    let width = code.width();
    let (Ok(correct), Ok(truncate)) = (
        Encoder::new(width, EncodingPolicy::BubbleCorrect),
        Encoder::new(width, EncodingPolicy::Truncate),
    ) else {
        // A zero-width code cannot disagree with itself; don't let a
        // degenerate capture panic the campaign's summary accounting.
        return 0;
    };
    correct
        .encode(code)
        .level
        .abs_diff(truncate.encode(code).level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Placement;
    use psnt_cells::units::{Resistance, Time};
    use psnt_pdn::grid::PowerGrid;

    fn floorplan() -> Floorplan {
        let grid = PowerGrid::corner_fed(
            3,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(60.0),
            Resistance::from_milliohms(20.0),
        )
        .unwrap();
        Floorplan::new(grid, Placement::EveryTile).unwrap()
    }

    fn campaign() -> Campaign {
        Campaign::new(floorplan(), SensorConfig::default()).unwrap()
    }

    #[test]
    fn chain_matches_floorplan() {
        let c = campaign();
        assert_eq!(c.chain().site_names().len(), 9);
        assert_eq!(c.chain().len(), 63);
    }

    #[test]
    fn run_produces_series_and_frames() {
        let c = campaign();
        // The centre tile draws a ramping current; others idle lightly.
        let mut loads = vec![Waveform::constant(0.02); 9];
        loads[4] =
            Waveform::from_points(vec![(Time::ZERO, 0.05), (Time::from_ns(200.0), 0.9)]).unwrap();
        let result = c
            .run(
                &mut RunCtx::serial(),
                &loads,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                8,
            )
            .unwrap();
        assert_eq!(result.sites.len(), 9);
        assert_eq!(result.frames.len(), 8);
        assert_eq!(result.instants.len(), 8);
        assert!(result.frames.iter().all(|f| f.len() == 63));
        // Every series is time-aligned.
        for s in &result.sites {
            assert_eq!(s.measurements.len(), 8);
        }
    }

    #[test]
    fn hotspot_is_the_loaded_centre() {
        let c = campaign();
        let mut loads = vec![Waveform::constant(0.02); 9];
        loads[4] = Waveform::constant(1.2);
        let result = c
            .run(
                &mut RunCtx::serial(),
                &loads,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                4,
            )
            .unwrap();
        let hotspot = result.hotspot().unwrap();
        assert_eq!(hotspot.tile, 4, "noise map: {:?}", result.noise_map());
        // The hotspot's worst level is at most the corner tiles'.
        let corner = result.sites.iter().find(|s| s.tile == 0).unwrap();
        assert!(hotspot.worst_level() <= corner.worst_level());
        assert!(hotspot.worst_voltage().unwrap() < Voltage::from_v(1.05));
    }

    #[test]
    fn load_mismatch_rejected() {
        let c = campaign();
        let loads = vec![Waveform::constant(0.02); 4];
        assert!(matches!(
            c.run(
                &mut RunCtx::serial(),
                &loads,
                Time::ZERO,
                Time::from_ns(10.0),
                2
            ),
            Err(ScanError::InvalidConfig {
                name: "tile_loads",
                ..
            })
        ));
    }

    #[test]
    fn degenerate_sampling_rejected() {
        let c = campaign();
        let loads = vec![Waveform::constant(0.02); 9];
        assert!(c
            .run(
                &mut RunCtx::serial(),
                &loads,
                Time::ZERO,
                Time::from_ns(10.0),
                0
            )
            .is_err());
        assert!(c
            .run(&mut RunCtx::serial(), &loads, Time::ZERO, Time::ZERO, 4)
            .is_err());
    }

    #[test]
    fn dual_rail_campaign_measures_ground_bounce() {
        use psnt_pdn::grid::PowerGrid;
        let c = campaign();
        // A stiffer ground grid (typical: more return vias).
        let gnd_grid = PowerGrid::corner_fed(
            3,
            Voltage::ZERO, // the board ground reference
            Resistance::from_milliohms(120.0),
            Resistance::from_milliohms(40.0),
        )
        .unwrap();
        let mut loads = vec![Waveform::constant(0.05); 9];
        loads[4] = Waveform::constant(0.9);
        let result = c
            .run_dual(
                &mut RunCtx::serial(),
                &loads,
                Some(&gnd_grid),
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                4,
            )
            .unwrap();
        // The centre tile bounces hardest: its LS level is the worst.
        let centre = result.sites.iter().find(|s| s.tile == 4).unwrap();
        let corner = result.sites.iter().find(|s| s.tile == 0).unwrap();
        assert!(
            centre.worst_ls_level() <= corner.worst_ls_level(),
            "centre LS {} vs corner LS {}",
            centre.worst_ls_level(),
            corner.worst_ls_level()
        );
        // And the decoded bounce at the centre is physically plausible
        // (tens of mV for ~1 A through a 120 mΩ mesh).
        if let Some(b) = centre.worst_bounce() {
            assert!(b > Voltage::from_mv(10.0), "bounce {b}");
            assert!(b < Voltage::from_mv(400.0), "bounce {b}");
        }
        // Without a ground grid the LS readings sit at the quiet code.
        let quiet_run = c
            .run(
                &mut RunCtx::serial(),
                &loads,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                2,
            )
            .unwrap();
        let quiet_centre = quiet_run.sites.iter().find(|s| s.tile == 4).unwrap();
        assert!(quiet_centre.worst_ls_level() >= centre.worst_ls_level());
    }

    #[test]
    fn dual_rail_grid_shape_checked() {
        use psnt_pdn::grid::PowerGrid;
        let c = campaign();
        let wrong = PowerGrid::corner_fed(
            4,
            Voltage::ZERO,
            Resistance::from_milliohms(120.0),
            Resistance::from_milliohms(40.0),
        )
        .unwrap();
        let loads = vec![Waveform::constant(0.05); 9];
        assert!(matches!(
            c.run_dual(
                &mut RunCtx::serial(),
                &loads,
                Some(&wrong),
                Time::ZERO,
                Time::from_ns(10.0),
                2
            ),
            Err(ScanError::InvalidConfig {
                name: "ground_grid",
                ..
            })
        ));
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let c = campaign();
        let mut loads = vec![Waveform::constant(0.02); 9];
        loads[4] =
            Waveform::from_points(vec![(Time::ZERO, 0.05), (Time::from_ns(200.0), 0.9)]).unwrap();
        let serial = c
            .run(
                &mut RunCtx::serial(),
                &loads,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                6,
            )
            .unwrap();
        for jobs in [1usize, 2, 5, 16] {
            let parallel = c
                .run(
                    &mut RunCtx::new(Engine::new(jobs)),
                    &loads,
                    Time::from_ns(10.0),
                    Time::from_ns(20.0),
                    6,
                )
                .unwrap();
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_observed_merges_site_counter_once() {
        let c = campaign();
        let loads = vec![Waveform::constant(0.1); 9];
        let mut obs = Observer::ring(128);
        let parallel = c
            .run_dual(
                &mut RunCtx::new(Engine::new(3)).with_observer(&mut obs),
                &loads,
                None,
                Time::from_ns(5.0),
                Time::from_ns(15.0),
                2,
            )
            .unwrap();
        let plain = c
            .run(
                &mut RunCtx::serial(),
                &loads,
                Time::from_ns(5.0),
                Time::from_ns(15.0),
                2,
            )
            .unwrap();
        assert_eq!(parallel, plain, "observer+parallelism must be passive");
        assert_eq!(obs.metrics.counter_value("campaign.sites_done"), 9);
        assert_eq!(obs.metrics.counter_value("engine.jobs_done"), 9);
    }

    #[test]
    fn resilient_run_without_faults_matches_run_dual() {
        let c = campaign();
        let mut loads = vec![Waveform::constant(0.02); 9];
        loads[4] = Waveform::constant(0.8);
        let plain = c
            .run(
                &mut RunCtx::serial(),
                &loads,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                3,
            )
            .unwrap();
        let resilient = c
            .run_resilient(
                &mut RunCtx::serial(),
                &loads,
                None,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                3,
                RetryPolicy::none(),
            )
            .unwrap();
        assert_eq!(resilient.result, plain);
        assert!(resilient.outcomes.iter().all(SiteOutcome::is_measured));
        assert_eq!(resilient.summary.sites_degraded, 0);
        assert_eq!(resilient.summary.dead_elements, 0);
    }

    #[test]
    fn injected_site_panic_degrades_that_site_only() {
        use psnt_fault::{Fault, FaultPlan};
        let c = campaign();
        let loads = vec![Waveform::constant(0.1); 9];
        let plan = FaultPlan::new()
            .with(Fault::SitePanic { site: 2 })
            .with(Fault::SitePanic { site: 6 });
        let mut obs = Observer::ring(256);
        let mut ctx = RunCtx::serial()
            .with_fault_plan(plan)
            .with_observer(&mut obs);
        let r = c
            .run_resilient(
                &mut ctx,
                &loads,
                None,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                2,
                RetryPolicy::none(),
            )
            .unwrap();
        drop(ctx);
        // Partial results: the other 7 sites measured normally.
        assert_eq!(r.summary.sites_degraded, 2);
        for (i, o) in r.outcomes.iter().enumerate() {
            if i == 2 || i == 6 {
                let SiteOutcome::Degraded { error } = o else {
                    panic!("site {i} should be degraded");
                };
                assert!(error.contains(&format!("site {i} panicked")), "{error}");
                assert!(r.result.sites[i].measurements.is_empty());
            } else {
                assert!(o.is_measured());
                assert_eq!(r.result.sites[i].measurements.len(), 2);
            }
        }
        // Degraded sites read out as all-X in every frame.
        assert_eq!(r.summary.dead_elements, 2 * 7);
        for frame in &r.result.frames {
            let x_bits = frame.iter().filter(|b| *b == Logic::X).count();
            assert_eq!(x_bits, 14);
        }
        // Telemetry recorded the degradation.
        assert_eq!(obs.metrics.counter_value("campaign.sites_degraded"), 2);
        assert_eq!(obs.metrics.counter_value("engine.jobs_failed"), 2);
        assert_eq!(
            obs.metrics.gauge_value("campaign.dead_elements"),
            Some(14.0)
        );
    }

    #[test]
    fn retry_policy_recovers_injected_site_panics() {
        use psnt_fault::{Fault, FaultPlan};
        let c = campaign();
        let loads = vec![Waveform::constant(0.1); 9];
        let plan = FaultPlan::new().with(Fault::SitePanic { site: 3 });
        let mut ctx = RunCtx::serial().with_fault_plan(plan);
        // SitePanic fires on the first attempt only, so two attempts
        // recover the site and the run is fully healthy.
        let r = c
            .run_resilient(
                &mut ctx,
                &loads,
                None,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                2,
                RetryPolicy::attempts(2),
            )
            .unwrap();
        assert!(r.outcomes.iter().all(SiteOutcome::is_measured));
        assert_eq!(r.summary.sites_degraded, 0);
        let healthy = c
            .run_resilient(
                &mut RunCtx::serial(),
                &loads,
                None,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                2,
                RetryPolicy::none(),
            )
            .unwrap();
        assert_eq!(r.result, healthy.result);
    }

    #[test]
    fn degraded_campaign_is_bit_identical_at_any_worker_count() {
        use psnt_fault::{Fault, FaultPlan};
        let c = campaign();
        let mut loads = vec![Waveform::constant(0.05); 9];
        loads[4] = Waveform::constant(0.9);
        let run_at = |jobs: usize| {
            let plan = FaultPlan::new().with(Fault::SitePanic { site: 4 });
            let mut ctx = RunCtx::new(Engine::new(jobs)).with_fault_plan(plan);
            c.run_resilient(
                &mut ctx,
                &loads,
                None,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                3,
                RetryPolicy::none(),
            )
            .unwrap()
        };
        let serial = run_at(1);
        for jobs in [2, 4] {
            assert_eq!(run_at(jobs), serial, "jobs={jobs}");
        }
    }

    /// Reassembles a streamed run's records into the in-memory result
    /// shape, so the bit-identity contract is a single `assert_eq`.
    fn collect_stream(records: Vec<StreamRecord>) -> ResilientCampaignResult {
        let mut sites = Vec::new();
        let mut outcomes = Vec::new();
        let mut instants = Vec::new();
        let mut frames = Vec::new();
        let mut summary = None;
        for record in records {
            match record {
                StreamRecord::Site {
                    site,
                    windows,
                    series,
                    outcome,
                } => {
                    assert_eq!(site, sites.len(), "site records out of order");
                    // Every site carries the full per-instant window
                    // map, available before the first frame arrives.
                    assert_eq!(windows, (0..windows.len()).collect::<Vec<_>>());
                    if outcome.is_measured() {
                        assert_eq!(windows.len(), series.measurements.len());
                    }
                    sites.push(series);
                    outcomes.push(outcome);
                }
                StreamRecord::Frame {
                    index,
                    instant,
                    frame,
                } => {
                    assert_eq!(index, frames.len(), "frame records out of order");
                    instants.push(instant);
                    frames.push(frame);
                }
                StreamRecord::Summary {
                    windows,
                    summary: s,
                } => {
                    assert!(summary.is_none(), "duplicate summary record");
                    assert_eq!(windows, frames.len(), "summary window count");
                    summary = Some(s);
                }
                StreamRecord::Aborted { .. } => {
                    panic!("completed stream must not carry an abort record")
                }
            }
        }
        ResilientCampaignResult {
            result: CampaignResult {
                sites,
                instants,
                frames,
            },
            outcomes,
            summary: summary.expect("stream ended without a summary record"),
        }
    }

    #[test]
    fn streamed_is_bit_identical_to_in_memory() {
        let c = campaign();
        let mut loads = vec![Waveform::constant(0.02); 9];
        loads[4] =
            Waveform::from_points(vec![(Time::ZERO, 0.05), (Time::from_ns(200.0), 0.9)]).unwrap();
        let in_memory = c
            .run_resilient(
                &mut RunCtx::serial(),
                &loads,
                None,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                5,
                RetryPolicy::none(),
            )
            .unwrap();
        for jobs in [1usize, 4] {
            let mut records = Vec::new();
            let summary = c
                .run_streamed(
                    &mut RunCtx::new(Engine::new(jobs)),
                    &loads,
                    None,
                    Time::from_ns(10.0),
                    Time::from_ns(20.0),
                    5,
                    RetryPolicy::none(),
                    |r| {
                        records.push(r);
                        Ok(())
                    },
                )
                .unwrap();
            assert_eq!(summary, in_memory.summary, "jobs={jobs}");
            assert!(matches!(records.last(), Some(StreamRecord::Summary { .. })));
            assert_eq!(collect_stream(records), in_memory, "jobs={jobs}");
        }
    }

    #[test]
    fn from_rails_paths_agree_and_validate() {
        let c = campaign();
        // Rails as a workload engine hands them over: per-tile supply
        // waveforms already solved, explicit measurement instants.
        let rails = || -> Vec<Waveform> {
            (0..9)
                .map(|t| {
                    Waveform::from_points(vec![
                        (Time::ZERO, 1.05 - 0.004 * t as f64),
                        (Time::from_ns(100.0), 1.05 - 0.008 * t as f64),
                    ])
                    .unwrap()
                })
                .collect()
        };
        let instants = vec![
            Time::from_ns(10.0),
            Time::from_ns(40.0),
            Time::from_ns(70.0),
        ];
        let in_memory = c
            .run_resilient_from_rails(
                &mut RunCtx::serial(),
                rails(),
                None,
                instants.clone(),
                RetryPolicy::none(),
            )
            .unwrap();
        assert_eq!(in_memory.result.sites.len(), 9);
        assert_eq!(in_memory.result.frames.len(), 3);
        for jobs in [1usize, 4] {
            let mut records = Vec::new();
            let summary = c
                .run_streamed_from_rails(
                    &mut RunCtx::new(Engine::new(jobs)),
                    rails(),
                    None,
                    instants.clone(),
                    RetryPolicy::none(),
                    |r| {
                        records.push(r);
                        Ok(())
                    },
                )
                .unwrap();
            assert_eq!(summary, in_memory.summary, "jobs={jobs}");
            assert_eq!(collect_stream(records), in_memory, "jobs={jobs}");
        }
        assert!(matches!(
            c.run_resilient_from_rails(
                &mut RunCtx::serial(),
                vec![Waveform::constant(1.05); 4],
                None,
                instants.clone(),
                RetryPolicy::none(),
            ),
            Err(ScanError::InvalidConfig {
                name: "tile_supplies",
                ..
            })
        ));
        assert!(matches!(
            c.run_resilient_from_rails(
                &mut RunCtx::serial(),
                rails(),
                None,
                vec![],
                RetryPolicy::none(),
            ),
            Err(ScanError::InvalidConfig {
                name: "instants",
                ..
            })
        ));
        assert!(matches!(
            c.run_resilient_from_rails(
                &mut RunCtx::serial(),
                rails(),
                None,
                vec![Time::from_ns(10.0), Time::from_ns(10.0)],
                RetryPolicy::none(),
            ),
            Err(ScanError::InvalidConfig {
                name: "instants",
                ..
            })
        ));
        assert!(matches!(
            c.run_streamed_from_rails(
                &mut RunCtx::serial(),
                rails(),
                Some(vec![Waveform::constant(0.0); 3]),
                instants,
                RetryPolicy::none(),
                |_| Ok(()),
            ),
            Err(ScanError::InvalidConfig {
                name: "tile_bounces",
                ..
            })
        ));
    }

    #[test]
    fn streamed_degrades_faulted_sites_identically() {
        use psnt_fault::{Fault, FaultPlan};
        let c = campaign();
        let mut loads = vec![Waveform::constant(0.05); 9];
        loads[4] = Waveform::constant(0.9);
        let plan = || {
            FaultPlan::new()
                .with(Fault::SitePanic { site: 1 })
                .with(Fault::SitePanic { site: 7 })
        };
        let in_memory = c
            .run_resilient(
                &mut RunCtx::serial().with_fault_plan(plan()),
                &loads,
                None,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                3,
                RetryPolicy::none(),
            )
            .unwrap();
        for jobs in [1usize, 4] {
            let mut records = Vec::new();
            c.run_streamed(
                &mut RunCtx::new(Engine::new(jobs)).with_fault_plan(plan()),
                &loads,
                None,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                3,
                RetryPolicy::none(),
                |r| {
                    records.push(r);
                    Ok(())
                },
            )
            .unwrap();
            let collected = collect_stream(records);
            // Degraded sites stream as degraded records with the very
            // same error strings (including the site index) as the
            // in-memory path, and the partial map survives — no panic.
            assert_eq!(collected, in_memory, "jobs={jobs}");
            assert_eq!(collected.summary.sites_degraded, 2);
        }
        // A retrying policy recovers the first-attempt-only panics in
        // the streamed path too.
        let mut records = Vec::new();
        let summary = c
            .run_streamed(
                &mut RunCtx::serial().with_fault_plan(plan()),
                &loads,
                None,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                3,
                RetryPolicy::attempts(2),
                |r| {
                    records.push(r);
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(summary.sites_degraded, 0);
        assert!(collect_stream(records)
            .outcomes
            .iter()
            .all(SiteOutcome::is_measured));
    }

    #[test]
    fn streamed_sink_error_aborts_run() {
        let c = campaign();
        let loads = vec![Waveform::constant(0.1); 9];
        let mut delivered = 0usize;
        let mut records = Vec::new();
        let err = c
            .run_streamed(
                &mut RunCtx::serial(),
                &loads,
                None,
                Time::from_ns(5.0),
                Time::from_ns(15.0),
                2,
                RetryPolicy::none(),
                |r| {
                    delivered += 1;
                    let failing = delivered == 3;
                    records.push(r);
                    if failing {
                        Err(ScanError::InvalidConfig {
                            name: "sink",
                            reason: "downstream full".into(),
                        })
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap_err();
        assert!(matches!(err, ScanError::InvalidConfig { name: "sink", .. }));
        // After the third record fails, the stream is closed with one
        // best-effort terminal abort record naming the two site records
        // that made it through — never a silent truncation.
        assert_eq!(delivered, 4);
        match records.last() {
            Some(StreamRecord::Aborted {
                sites_completed,
                reason,
            }) => {
                assert_eq!(*sites_completed, 2);
                assert!(reason.contains("downstream full"), "reason: {reason}");
            }
            other => panic!("expected terminal abort record, got {other:?}"),
        }
    }

    #[test]
    fn streamed_supervisor_trip_stops_at_chunk_boundary() {
        use psnt_sup::{CancelToken, RunBudget, Supervisor};
        let c = campaign();
        let rails = vec![Waveform::constant(1.04); 9];
        let instants = vec![Time::from_ns(5.0), Time::from_ns(20.0)];
        // Pre-cancelled, rails already solved: the producer trips
        // before claiming the first chunk, so zero site records stream
        // and the run reports the interrupt plus a terminal abort
        // record.
        let token = CancelToken::new();
        token.cancel();
        let mut records = Vec::new();
        let err = c
            .run_streamed_from_rails(
                &mut RunCtx::serial()
                    .with_supervisor(Supervisor::new(token, RunBudget::unlimited())),
                rails.clone(),
                None,
                instants.clone(),
                RetryPolicy::none(),
                |r| {
                    records.push(r);
                    Ok(())
                },
            )
            .unwrap_err();
        assert_eq!(err, ScanError::Interrupted(psnt_sup::Interrupt::Cancelled));
        assert_eq!(records.len(), 1, "only the terminal abort record");
        assert!(matches!(
            records.last(),
            Some(StreamRecord::Aborted {
                sites_completed: 0,
                ..
            })
        ));
        // Cancelling before the grid solve interrupts even earlier:
        // the error is the same, and no records stream at all.
        let token = CancelToken::new();
        token.cancel();
        let mut early = Vec::new();
        let err = c
            .run_streamed(
                &mut RunCtx::serial()
                    .with_supervisor(Supervisor::new(token, RunBudget::unlimited())),
                &vec![Waveform::constant(0.1); 9],
                None,
                Time::from_ns(5.0),
                Time::from_ns(15.0),
                2,
                RetryPolicy::none(),
                |r| {
                    early.push(r);
                    Ok(())
                },
            )
            .unwrap_err();
        assert_eq!(err, ScanError::Interrupted(psnt_sup::Interrupt::Cancelled));
        assert!(early.is_empty(), "solve tripped before any record");
        // A detached supervisor (the default) streams the full run.
        let mut full = Vec::new();
        c.run_streamed_from_rails(
            &mut RunCtx::serial().with_supervisor(Supervisor::detached()),
            rails,
            None,
            instants,
            RetryPolicy::none(),
            |r| {
                full.push(r);
                Ok(())
            },
        )
        .unwrap();
        assert!(matches!(full.last(), Some(StreamRecord::Summary { .. })));
    }

    #[test]
    fn streamed_records_render_as_events() {
        let c = campaign();
        let loads = vec![Waveform::constant(0.1); 9];
        let mut kinds = Vec::new();
        c.run_streamed(
            &mut RunCtx::serial(),
            &loads,
            None,
            Time::from_ns(5.0),
            Time::from_ns(15.0),
            2,
            RetryPolicy::none(),
            |r| {
                kinds.push(r.to_event().kind);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(kinds.len(), 9 + 2 + 1);
        assert!(kinds[..9].iter().all(|k| k == "stream_site"));
        assert!(kinds[9..11].iter().all(|k| k == "stream_frame"));
        assert_eq!(kinds[11], "stream_summary");
    }

    #[test]
    fn streamed_observer_telemetry_counts_match() {
        let c = campaign();
        let loads = vec![Waveform::constant(0.1); 9];
        let mut obs = Observer::ring(256);
        c.run_streamed(
            &mut RunCtx::new(Engine::new(3)).with_observer(&mut obs),
            &loads,
            None,
            Time::from_ns(5.0),
            Time::from_ns(15.0),
            2,
            RetryPolicy::none(),
            |_| Ok(()),
        )
        .unwrap();
        assert_eq!(obs.metrics.counter_value("campaign.sites_done"), 9);
        assert_eq!(obs.metrics.counter_value("engine.jobs_done"), 9);
    }

    mod stream_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]

            /// The tentpole contract: streamed campaigns are
            /// bit-identical to the in-memory path at jobs ∈ {1, 4},
            /// across load patterns, sample counts and fault plans.
            #[test]
            fn streamed_vs_in_memory_bit_identity(
                centre_load in 0.1..1.0f64,
                samples in 1usize..5,
                // 0..9 faults that site; 9 means no fault.
                faulted_site in 0usize..10,
            ) {
                use psnt_fault::{Fault, FaultPlan};
                let c = campaign();
                let mut loads = vec![Waveform::constant(0.03); 9];
                loads[4] = Waveform::constant(centre_load);
                let plan = || {
                    if faulted_site < 9 {
                        FaultPlan::new().with(Fault::SitePanic { site: faulted_site })
                    } else {
                        FaultPlan::default()
                    }
                };
                let in_memory = c
                    .run_resilient(
                        &mut RunCtx::serial().with_fault_plan(plan()),
                        &loads,
                        None,
                        Time::from_ns(10.0),
                        Time::from_ns(20.0),
                        samples,
                        RetryPolicy::none(),
                    )
                    .unwrap();
                for jobs in [1usize, 4] {
                    let mut records = Vec::new();
                    let mut ctx = RunCtx::new(Engine::new(jobs)).with_fault_plan(plan());
                    c.run_streamed(
                        &mut ctx,
                        &loads,
                        None,
                        Time::from_ns(10.0),
                        Time::from_ns(20.0),
                        samples,
                        RetryPolicy::none(),
                        |r| {
                            records.push(r);
                            Ok(())
                        },
                    )
                    .unwrap();
                    prop_assert_eq!(collect_stream(records), in_memory.clone(), "jobs={}", jobs);
                }
            }
        }
    }

    #[test]
    fn frames_roundtrip_through_chain() {
        let c = campaign();
        let loads = vec![Waveform::constant(0.1); 9];
        let result = c
            .run(
                &mut RunCtx::serial(),
                &loads,
                Time::from_ns(5.0),
                Time::from_ns(15.0),
                3,
            )
            .unwrap();
        for (k, frame) in result.frames.iter().enumerate() {
            let codes = c.chain().deserialize(frame).unwrap();
            for (site, code) in result.sites.iter().zip(&codes) {
                assert_eq!(&site.measurements[k].hs_code, code);
            }
        }
    }
}
