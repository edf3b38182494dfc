//! Span and counter recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public functions; nothing inside the crates is
//! instrumented. A span name is `<layer>.<stage>`; the layer is the part
//! before the dot. Two names are not layers: [`CHECK`] covers the
//! benchmark's own correctness checks, and [`REPLAY`] covers the
//! replayed grid update, whose duration stands in for the grid time
//! inside `CycleStepper::step` (see [`Tracer::layer_ms`]).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Span name of the benchmark's own correctness checks; excluded from
/// the traced wall time.
pub const CHECK: &str = "check";
/// Span name of the replayed grid update (`solve_delta`/`solve_sparse`
/// through the public `PowerGrid` API).
pub const REPLAY: &str = "pdn.solve";
/// Span name of `CycleStepper::step`, which runs the grid update itself.
pub const STEP: &str = "workload.step";

/// Accumulated span time and work counters of one traced repetition.
///
/// A disabled tracer still counts (the counters are deterministic work,
/// needed by the self-test and the reference checks) but never reads
/// the clock.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: BTreeMap<&'static str, Duration>,
    counts: BTreeMap<&'static str, u64>,
    maxima: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::default()
        }
    }

    /// A tracer that only counts.
    pub fn off() -> Tracer {
        Tracer::default()
    }

    /// Runs `f` inside the span `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        *self.spans.entry(name).or_default() += t0.elapsed();
        r
    }

    /// Adds `n` to the work counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Raises the gauge `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let slot = self.maxima.entry(name).or_insert(v);
        *slot = slot.max(v);
    }

    /// The work counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// The gauge `name` (0 when never set).
    pub fn gauge(&self, name: &str) -> f64 {
        self.maxima.get(name).copied().unwrap_or(0.0)
    }

    /// Every work counter, by name.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Time in the span `name`, ms.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }

    /// Time in every span except [`CHECK`], ms: the part of the traced
    /// wall time the spans cover.
    pub fn covered_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|(k, _)| **k != CHECK)
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .sum()
    }

    /// Self time of `layer`, ms. The grid update runs twice in a traced
    /// cycle, once inside `CycleStepper::step` and once as the replay;
    /// the replay's time is charged to `pdn` and subtracted from the
    /// step, so `workload` keeps only the step's own stages.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        let own: f64 = self
            .spans
            .iter()
            .filter(|(k, _)| k.split('.').next() == Some(layer))
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .sum();
        if layer == "workload" {
            own - self.span_ms(REPLAY)
        } else {
            own
        }
    }
}
