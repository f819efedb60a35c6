//! Probes shared by `pipeline` and `policy-grid`: re-issued layer calls,
//! made after the clock stops, that time one layer on its own.

use std::collections::BTreeMap;

use ripple_program::{Layout, Program};
use ripple_sim::{PolicyKind, SimConfig, SimSession, SimStats};
use ripple_trace::{reconstruct_trace, record_trace, BbTrace};
use ripple_workloads::{Executor, InputConfig};

use crate::pipeline::Loaded;
use crate::span::{SpanId, Tracer};

/// Per-layer figures a probe adds to, keyed by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// Executes the app under `input`, encodes the blocks and decodes them.
pub fn trace_round_trip(
    l: &Loaded,
    input: InputConfig,
    budget: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
    layer: &mut Layer,
) -> Result<(), String> {
    let program = &l.application.program;
    let trace = tracer.span(parent, "workloads.execute", |_| {
        Executor::new(program, &l.application.model, input).run(budget)
    });
    let bytes = tracer.span(parent, "trace.encode", |_| {
        record_trace(program, &l.layout, trace.iter())
    });
    *layer.entry("workloads.blocks").or_default() += trace.len() as f64;
    *layer.entry("trace.bytes").or_default() += bytes.len() as f64;
    tracer
        .span(parent, "trace.decode", |_| {
            reconstruct_trace(program, &l.layout, &bytes)
        })
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// A fresh session: capture, then Demand-MIN twice. The first replay pays
/// the set bucketing and the second does not. Returns the warm session and
/// the replay's stats.
pub fn fresh_session<'a>(
    program: &'a Program,
    layout: &'a Layout,
    trace: &'a BbTrace,
    cfg: &SimConfig,
    tracer: &Tracer,
    parent: Option<SpanId>,
    layer: &mut Layer,
) -> (SimSession<'a>, SimStats) {
    let session = tracer.span(parent, "sim.session", |_| {
        SimSession::new(program, layout, trace, cfg.clone())
    });
    tracer.span(parent, "sim.capture", |_| session.ensure_recorded());
    let first = tracer.span(parent, "sim.replay_first", |_| {
        session.run(PolicyKind::DEMAND_MIN)
    });
    tracer.span(parent, "sim.replay_warm", |_| {
        session.run(PolicyKind::DEMAND_MIN)
    });
    *layer.entry("sim.requests").or_default() +=
        (first.demand_accesses + first.prefetches_issued) as f64;
    *layer.entry("sim.demand_misses").or_default() += first.demand_misses as f64;
    (session, first)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Ratios every workload derives the same way from probe totals.
pub fn derive_common(values: &mut BTreeMap<String, f64>) {
    let get = |v: &BTreeMap<String, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    let blocks = get(values, "workloads.blocks");
    let bytes = values.remove("trace.bytes").unwrap_or(0.0);
    values.insert("trace.bytes_per_block".into(), ratio(bytes, blocks));
    let decode = get(values, "trace.decode_s");
    values.insert(
        "trace.decode_mblocks_per_s".into(),
        ratio(blocks / 1e6, decode),
    );
    let bucketing = get(values, "sim.replay_first_s") - get(values, "sim.replay_warm_s");
    values.insert("sim.bucketing_s".into(), bucketing);
}
