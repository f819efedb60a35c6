//! Dimension 3: frontend path equivalence and warmup accounting.
//!
//! The simulator has two frontends — the dense interned fast path and the
//! hash-keyed reference path — selected by [`LinePath`]. They must be
//! observationally identical: same [`SimStats`] and the same byte-for-byte
//! eviction stream, for every policy, prefetcher, eviction mechanism,
//! injected program, and scripted-invalidation schedule.
//!
//! The interned path has a second way to run an online policy: once a
//! session holds a captured request stream, it replays the capture
//! instead of running the single-pass frontend. A session whose capture
//! is forced up front must therefore match the fresh frontend run, for
//! the same policy, byte for byte.
//!
//! A further, independent oracle checks warmup accounting on the interned
//! path alone: warmup is a *stats-only* gate, so rerunning a case with
//! `warmup_fraction = 0` must leave the eviction stream untouched and can
//! only grow each counter. This catches warmup bugs mirrored identically
//! in both frontends, which pure path comparison cannot see.

use std::sync::Arc;

use rand::{Rng, SeedableRng, StdRng};
use ripple_obs::{MetricsRecorder, NullRecorder, Recorder};
use ripple_sim::{EvictionEvent, LinePath, PolicyKind, SimSession, SimStats, VecSink};

use crate::case::{all_policies, gen_full_case, run_path, run_path_recorded, FullCase};
use crate::shrink::{min_failing_prefix, shrink_list};

/// Named u64 counters of [`SimStats`], for field-level diff messages and
/// the warmup monotonicity check.
fn counters(s: &SimStats) -> [(&'static str, u64); 15] {
    [
        ("blocks", s.blocks),
        ("instructions", s.instructions),
        ("invalidate_instructions", s.invalidate_instructions),
        ("demand_accesses", s.demand_accesses),
        ("demand_misses", s.demand_misses),
        ("compulsory_misses", s.compulsory_misses),
        ("served_l2", s.served_l2),
        ("served_l3", s.served_l3),
        ("served_mem", s.served_mem),
        ("prefetches_issued", s.prefetches_issued),
        ("prefetch_fills", s.prefetch_fills),
        ("evictions", s.evictions),
        (
            "prefetch_pollution_evictions",
            s.prefetch_pollution_evictions,
        ),
        ("invalidate_hits", s.invalidate_hits),
        ("mispredictions", s.mispredictions),
    ]
}

fn diff_stats(a: &SimStats, b: &SimStats) -> String {
    let mut fields: Vec<String> = counters(a)
        .iter()
        .zip(counters(b).iter())
        .filter(|((_, x), (_, y))| x != y)
        .map(|((name, x), (_, y))| format!("{name}: {x} vs {y}"))
        .collect();
    if a.cycles != b.cycles {
        fields.push(format!("cycles: {} vs {}", a.cycles, b.cycles));
    }
    fields.join(", ")
}

/// One interned run on a session whose capture is forced before the
/// run, so online policies replay the captured stream instead of running
/// the single-pass frontend. Returns the stats, the eviction stream and
/// the session's recording-pass count.
fn run_captured(
    case: &FullCase,
    policy: PolicyKind,
    recorder: Arc<dyn Recorder>,
) -> (SimStats, Vec<EvictionEvent>, u32) {
    let session = SimSession::new(
        &case.program,
        &case.layout,
        &case.trace,
        case.config.clone(),
    )
    .with_recorder(recorder);
    session.ensure_recorded();
    let mut sink = VecSink::new();
    let stats = session.run_with_sink(policy, &mut sink);
    (stats, sink.into_events(), session.recording_passes())
}

/// Names the first difference between two (stats, eviction stream) runs.
fn divergence(
    what: &str,
    policy: PolicyKind,
    (sa, ea): (&SimStats, &[EvictionEvent]),
    (sb, eb): (&SimStats, &[EvictionEvent]),
) -> Option<String> {
    if sa != sb {
        return Some(format!(
            "{what} stats diverge under {policy:?}: {}",
            diff_stats(sa, sb)
        ));
    }
    if ea != eb {
        let idx = ea
            .iter()
            .zip(eb.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(ea.len().min(eb.len()));
        return Some(format!(
            "{what} eviction streams diverge under {policy:?} at event {idx} ({} vs {} events)",
            ea.len(),
            eb.len()
        ));
    }
    None
}

/// The divergence test applied to one (case, policy) pair.
fn violation(case: &FullCase, policy: PolicyKind) -> Option<String> {
    let (si, ei) = run_path(case, policy, LinePath::Interned);
    let (sr, er) = run_path(case, policy, LinePath::Reference);
    if let Some(message) = divergence("interned and reference", policy, (&si, &ei), (&sr, &er)) {
        return Some(message);
    }
    let (sc, ec, _) = run_captured(case, policy, Arc::new(NullRecorder));
    if let Some(message) = divergence("fresh and captured-replay", policy, (&si, &ei), (&sc, &ec)) {
        return Some(message);
    }

    // Independent warmup oracle on the interned path.
    if case.config.warmup_fraction > 0.0 {
        let cold = {
            let mut c = case.with_script(case.script().map(<[_]>::to_vec).unwrap_or_default());
            c.config.warmup_fraction = 0.0;
            c
        };
        let (sc, ec) = run_path(&cold, policy, LinePath::Interned);
        if ec != ei {
            return Some(format!(
                "warmup changed the eviction stream under {policy:?}: {} cold vs {} warm events",
                ec.len(),
                ei.len()
            ));
        }
        for ((name, warm), (_, no_warmup)) in counters(&si).iter().zip(counters(&sc).iter()) {
            if warm > no_warmup {
                return Some(format!(
                    "warmup *increased* {name} under {policy:?}: {warm} warm vs {no_warmup} cold"
                ));
            }
        }
        // Warmup-gated scripted invalidations: with no injected
        // instructions in the program, every counted invalidate hit comes
        // from a script entry at a post-warmup position.
        if let Some(script) = case.script() {
            if !case.injected {
                let warmup_until =
                    (case.trace.len() as f64 * case.config.warmup_fraction.clamp(0.0, 0.9)) as u64;
                let eligible = script
                    .iter()
                    .filter(|&&(pos, _)| pos >= warmup_until)
                    .count() as u64;
                if si.invalidate_hits > eligible {
                    return Some(format!(
                        "{} invalidate hits counted under {policy:?} but only {} script entries \
                         fall after warmup position {warmup_until}",
                        si.invalidate_hits, eligible
                    ));
                }
            }
        }
    }
    None
}

fn pick_policy(seed: u64) -> PolicyKind {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let pool = all_policies();
    pool[rng.gen_range(0..pool.len())]
}

/// Checks one generated case; shrinks the trace (then the script) on
/// failure.
pub fn check(seed: u64) -> Result<(), (String, String)> {
    let case = gen_full_case(seed);
    let policy = pick_policy(seed);
    let Some(message) = violation(&case, policy) else {
        return Ok(());
    };

    // Shrink: shortest failing trace prefix first, then ddmin the script.
    let len = min_failing_prefix(case.trace.len(), |n| {
        violation(&case.truncated(n), policy).is_some()
    });
    let mut minimal = case.truncated(len);
    if let Some(script) = minimal.script().map(<[_]>::to_vec) {
        if !script.is_empty() {
            let kept = shrink_list(&script, |entries| {
                violation(&minimal.with_script(entries.to_vec()), policy).is_some()
            });
            if kept.len() < script.len()
                && violation(&minimal.with_script(kept.clone()), policy).is_some()
            {
                minimal = minimal.with_script(kept);
            }
        }
    }
    let final_message = violation(&minimal, policy).expect("shrunk case still fails");
    let repro = format!(
        "case: {}\npolicy: {policy:?}\ntrace shrunk {} -> {} blocks, script {} entries\nscript: {:?}\n{}",
        minimal.label,
        case.trace.len(),
        minimal.trace.len(),
        minimal.script().map_or(0, <[_]>::len),
        minimal.script().unwrap_or(&[]),
        final_message,
    );
    Err((message, repro))
}

/// [`check`] rerun with a live [`MetricsRecorder`] attached: attaching an
/// observability recorder must leave stats and the full eviction stream
/// byte-identical to the unrecorded run, and the recorder must actually
/// have seen the run (at least one `session.run` phase lap). The same
/// holds for an observed session replaying its forced capture, which must
/// also have recorded exactly once.
pub fn check_recorded(seed: u64) -> Result<(), (String, String)> {
    let case = gen_full_case(seed);
    let policy = pick_policy(seed);
    let (plain_stats, plain_events) = run_path(&case, policy, LinePath::Interned);
    let recorder = Arc::new(MetricsRecorder::new());
    let (rec_stats, rec_events) =
        run_path_recorded(&case, policy, LinePath::Interned, recorder.clone());
    let plain = (&plain_stats, plain_events.as_slice());
    let (cap_stats, cap_events, passes) =
        run_captured(&case, policy, Arc::new(MetricsRecorder::new()));
    let problem = divergence(
        "unrecorded and recorded",
        policy,
        plain,
        (&rec_stats, &rec_events),
    )
    .or_else(|| {
        divergence(
            "unrecorded fresh and recorded captured-replay",
            policy,
            plain,
            (&cap_stats, &cap_events),
        )
    })
    .or_else(|| {
        (passes != 1)
            .then(|| format!("captured-replay session performed {passes} recording passes"))
    })
    .or_else(|| match recorder.snapshot().phase("session.run") {
        Some(stat) if stat.count > 0 => None,
        _ => Some(format!(
            "recorder saw no session.run phase under {policy:?}"
        )),
    });
    problem.map_or(Ok(()), |message| {
        let repro = format!("case: {}\npolicy: {policy:?}\n{message}", case.label);
        Err((message, repro))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_agree_on_many_seeds() {
        for seed in 0..24 {
            if let Err((msg, repro)) = check(seed) {
                panic!("seed {seed}: {msg}\n{repro}");
            }
        }
    }

    #[test]
    fn captured_replay_agrees_for_every_policy() {
        // The fuzz check picks one policy per seed; here every registry
        // policy replays a forced capture on a few generated cases.
        for seed in 0..4 {
            let case = gen_full_case(seed);
            for policy in all_policies() {
                let (sf, ef) = run_path(&case, policy, LinePath::Interned);
                let (sc, ec, passes) = run_captured(&case, policy, Arc::new(NullRecorder));
                if let Some(message) =
                    divergence("fresh and captured-replay", policy, (&sf, &ef), (&sc, &ec))
                {
                    panic!("seed {seed} ({}): {message}", case.label);
                }
                assert_eq!(passes, 1, "seed {seed}: {policy:?}");
            }
        }
    }

    #[test]
    fn recording_never_perturbs_a_run() {
        for seed in 0..16 {
            if let Err((msg, repro)) = check_recorded(seed) {
                panic!("seed {seed}: {msg}\n{repro}");
            }
        }
    }
}
