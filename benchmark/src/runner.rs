//! The measurement loop every workload shares: set-up, untimed checks,
//! the timed iterations, and (in a traced run) the traced iterations with
//! their probes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::time::Instant;

use crate::report::{median, Metric};
use crate::span::{self_times, totals_by_name, Span, SpanId, Tracer};

/// An untraced run builds its inputs at least this many times, and for at
/// least [`SETUP_MIN_S`]; `setup_s` is the median, so one slow build does
/// not move it.
pub const SETUP_REPS: usize = 5;
pub const SETUP_MIN_S: f64 = 0.3;

/// What one timed iteration produced.
#[derive(Debug)]
pub struct Iteration<O> {
    /// Host seconds of the timed part.
    pub wall_s: f64,
    /// The deterministic outputs every iteration must repeat exactly.
    pub output: O,
    /// Operations attempted and failed in this iteration.
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer figures the probes measured (empty when not traced).
    pub layer: BTreeMap<&'static str, f64>,
}

/// A named output check and whether it held.
pub type Check = (String, bool);

/// One benchmark workload. The workload times its own iteration so that
/// what it keeps for its probes is dropped outside the timed part.
pub trait Workload {
    type Input;
    type Output: PartialEq + Debug;

    /// The instruction budget, for provenance.
    fn budget(&self) -> String;

    /// Builds the run's inputs from the seed.
    fn setup(&self, tracer: &Tracer, parent: Option<SpanId>) -> Result<Self::Input, String>;

    /// Untimed checks made once per run (for example thread-count
    /// invariance); the timed iterations do not repeat them.
    fn once_checks(&self, input: &Self::Input, output: &Self::Output) -> Vec<Check> {
        let _ = (input, output);
        Vec::new()
    }

    /// One timed iteration; with `probes`, also re-issues layer calls
    /// after the clock stops to isolate each layer's share.
    fn iterate(
        &self,
        input: &Self::Input,
        tracer: &Tracer,
        parent: Option<SpanId>,
        probes: bool,
    ) -> Iteration<Self::Output>;

    /// Output checks on one iteration's outputs.
    fn checks(&self, output: &Self::Output) -> Vec<Check>;

    /// Simulated instructions handed to the system in one iteration.
    fn instructions(&self, input: &Self::Input, output: &Self::Output) -> f64;

    /// Modelled end-to-end metrics (deterministic at a fixed seed), then
    /// extra figures that are printed and kept in the history only.
    fn modelled(&self, output: &Self::Output) -> (Vec<Metric>, Vec<Metric>);

    /// Per-layer figures derived from the span totals and probe values.
    fn derive_layer(&self, values: &mut BTreeMap<String, f64>) {
        let _ = values;
    }
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Measured {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub wall_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub instructions: f64,
    pub modelled: Vec<Metric>,
    pub extra: Vec<Metric>,
    /// Traced runs only: per-layer values keyed by metric name.
    pub layer: BTreeMap<String, f64>,
    /// Traced runs only: span count, total and self seconds per name.
    pub span_table: Vec<(String, u64, f64, f64)>,
    /// Traced runs only: every recorded span.
    pub spans: Vec<Span>,
}

fn until<T>(seconds: f64, min_iters: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_iters || start.elapsed().as_secs_f64() < seconds {
        out.push(f());
    }
    out
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Runs `workload` for `seconds`. An untraced run times set-up repeatedly
/// (see [`SETUP_REPS`]) and then iterates; a traced run spends half its
/// time on untraced iterations (the overhead baseline) and half on traced
/// iterations with probes.
pub fn run<W: Workload>(workload: &W, seconds: f64, traced: bool) -> Measured {
    let off = Tracer::new(false);
    let tracer = Tracer::new(traced);
    // A traced run builds its inputs once, so each set-up span counts once.
    let (reps, min_s) = if traced {
        (1, 0.0)
    } else {
        (SETUP_REPS, SETUP_MIN_S)
    };
    let mut setup_s = Vec::new();
    let mut built = None;
    let start = Instant::now();
    while setup_s.len() < reps || start.elapsed().as_secs_f64() < min_s {
        // Drop the previous build first, so only one is ever alive.
        drop(built.take());
        let t = Instant::now();
        built = Some(tracer.span(None, "bench.setup", |id| workload.setup(&tracer, id)));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup_spans = tracer.drain();
    let input = match built.expect("at least one set-up") {
        Ok(input) => input,
        Err(e) => {
            return Measured {
                correct: false,
                attempted: 1,
                failed: 1,
                checks: vec![(format!("set-up: {e}"), false)],
                wall_s: Vec::new(),
                setup_s,
                instructions: 0.0,
                modelled: Vec::new(),
                extra: Vec::new(),
                layer: BTreeMap::new(),
                span_table: Vec::new(),
                spans: setup_spans,
            };
        }
    };

    let untimed_budget = if traced { seconds / 2.0 } else { seconds };
    let plain = until(untimed_budget, 1, || {
        workload.iterate(&input, &off, None, false)
    });
    let mut traced_iters = Vec::new();
    let mut iter_spans: Vec<Vec<Span>> = Vec::new();
    if traced {
        traced_iters = until(seconds / 2.0, 1, || {
            let it = tracer.span(None, "bench.iteration", |id| {
                workload.iterate(&input, &tracer, id, true)
            });
            iter_spans.push(tracer.drain());
            it
        });
    }

    let first = &plain[0].output;
    let mut checks = workload.checks(first);
    checks.extend(workload.once_checks(&input, first));
    let all: Vec<&Iteration<W::Output>> = plain.iter().chain(traced_iters.iter()).collect();
    let repeat = all.iter().all(|it| &it.output == first);
    checks.push((
        format!(
            "{} iterations repeat the first one's outputs exactly",
            all.len()
        ),
        repeat,
    ));
    let attempted: u64 = all.iter().map(|it| it.attempted).sum();
    let mut failed: u64 = all.iter().map(|it| it.failed).sum();
    if !checks.iter().all(|(_, ok)| *ok) {
        // A failed output check fails every operation it covers.
        failed = attempted;
    }
    let (modelled, extra) = workload.modelled(first);

    let mut layer = BTreeMap::new();
    let mut span_table = Vec::new();
    let mut spans = setup_spans.clone();
    if traced {
        layer = layer_values(workload, &setup_spans, &iter_spans, &traced_iters);
        let untraced_wall = median(&plain.iter().map(|it| it.wall_s).collect::<Vec<_>>());
        let traced_wall = median(&traced_iters.iter().map(|it| it.wall_s).collect::<Vec<_>>());
        layer.insert("bench.untraced_wall_s".into(), untraced_wall);
        layer.insert("bench.traced_wall_s".into(), traced_wall);
        layer.insert("bench.trace_overhead_s".into(), traced_wall - untraced_wall);
        for group in &iter_spans {
            spans.extend(group.iter().cloned());
        }
        span_table = totals_by_name(&spans)
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    t.count,
                    ns_to_s(t.total_ns),
                    ns_to_s(t.self_ns),
                )
            })
            .collect();
    }

    Measured {
        correct: failed == 0,
        attempted,
        failed,
        checks,
        wall_s: plain.iter().map(|it| it.wall_s).collect(),
        setup_s,
        instructions: workload.instructions(&input, first),
        modelled,
        extra,
        layer,
        span_table,
        spans,
    }
}

/// Per-layer values of a traced run: for each span name, its total in the
/// set-up plus the median over traced iterations of its per-iteration
/// total (probes included); then the probes' own figures (median over
/// iterations) and whatever the workload derives from them.
fn layer_values<W: Workload>(
    workload: &W,
    setup: &[Span],
    iterations: &[Vec<Span>],
    traced: &[Iteration<W::Output>],
) -> BTreeMap<String, f64> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (name, t) in totals_by_name(setup) {
        *values.entry(format!("{name}_s")).or_default() += ns_to_s(t.total_ns);
    }
    let per_iter: Vec<_> = iterations.iter().map(|s| totals_by_name(s)).collect();
    let names: BTreeSet<&str> = per_iter.iter().flat_map(|m| m.keys().copied()).collect();
    for name in names {
        let totals: Vec<f64> = per_iter
            .iter()
            .map(|m| m.get(name).map_or(0.0, |t| ns_to_s(t.total_ns)))
            .collect();
        *values.entry(format!("{name}_s")).or_default() += median(&totals);
    }
    // Time no layer call covers: the self time of the benchmark's own
    // spans, probes excluded.
    let glue: Vec<f64> = iterations
        .iter()
        .map(|spans| {
            spans
                .iter()
                .zip(self_times(spans))
                .filter(|(s, _)| s.name.starts_with("bench.") && s.name != "bench.probe")
                .map(|(_, ns)| ns_to_s(ns))
                .sum()
        })
        .collect();
    values.insert("bench.self_s".into(), median(&glue));
    let keys: BTreeSet<&'static str> = traced
        .iter()
        .flat_map(|it| it.layer.keys().copied())
        .collect();
    for key in keys {
        let xs: Vec<f64> = traced
            .iter()
            .map(|it| it.layer.get(key).copied().unwrap_or(0.0))
            .collect();
        values.insert(key.to_string(), median(&xs));
    }
    workload.derive_layer(&mut values);
    values
}
