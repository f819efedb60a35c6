//! # ripple-lab: experiments as data
//!
//! The paper's evaluation is a grid — applications × prefetchers × cache
//! geometries × replacement policies × invalidation thresholds — but a
//! grid expressed as twenty hand-written bench binaries costs a new
//! binary (and a copy of the harness wiring) per figure. This crate
//! inverts that: an **experiment is a declaration** ([`Experiment`], JSON
//! under `experiments/`), resolved against the policy/app/profile
//! registries ([`Experiment::resolve`]), expanded into a deterministic
//! cartesian grid ([`ResolvedExperiment::expand`]), and executed on the
//! shared harness ([`run_experiment`]) into a validated, byte-stable
//! `ripple.lab_report.v1` document ([`validate_lab_report`]) plus
//! rendered sweep tables ([`render_tables`]).
//!
//! Named [`TargetProfile`]s carry the machine model (the paper's
//! Table II plus Zen 2- and Tremont-like hierarchies), the same
//! per-target shape as the `eigenform/perfect` harness this crate is
//! modeled on — so "the Fig. 7 sweep, but on a Tremont-like cache" is a
//! one-line edit to a declaration, not a new binary.
//!
//! The checked-in declarations re-express the per-figure benches; the
//! figure benches run a declaration and check the paper's headline shapes
//! over the typed [`LabRun`].

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_debug_implementations)]

mod experiment;
mod report;
mod runner;
mod target;

pub use experiment::{
    Experiment, FaultMode, GridPoint, ResolvedExperiment, FAULT_MODES, TOKEN_PRIORS,
    TOKEN_UNDERLYING_AGNOSTIC,
};
pub use report::{render_tables, validate_lab_report, LAB_PHASES, LAB_SCHEMA};
pub use runner::{run_experiment, LabOptions, LabRun, PointOutcome, PointRow, RipplePointRow};
pub use target::{TargetProfile, TARGET_PROFILES};

/// Why a lab operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabError {
    /// The experiment declaration is malformed: unparseable JSON, an
    /// unknown axis entry, or an out-of-range value.
    Declaration(String),
    /// Executing the grid failed; the message names the offending point.
    Run(String),
}

impl std::fmt::Display for LabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabError::Declaration(msg) => write!(f, "experiment declaration: {msg}"),
            LabError::Run(msg) => write!(f, "experiment run: {msg}"),
        }
    }
}

impl std::error::Error for LabError {}

/// The checked-in experiment declarations, embedded at compile time so
/// `lab run <name>` works from any working directory. Each is the
/// declarative form of a legacy per-figure bench (plus `lab-smoke`, the
/// small grid CI uses for determinism diffs).
pub const BUILTIN_EXPERIMENTS: [(&str, &str); 5] = [
    (
        "fig03-policies",
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../experiments/fig03-policies.json"
        )),
    ),
    (
        "fig06-threshold",
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../experiments/fig06-threshold.json"
        )),
    ),
    (
        "fig07-speedup",
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../experiments/fig07-speedup.json"
        )),
    ),
    (
        "ablation-underlying",
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../experiments/ablation-underlying.json"
        )),
    ),
    (
        "lab-smoke",
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../experiments/lab-smoke.json"
        )),
    ),
];

/// Parses a built-in declaration by name.
///
/// # Errors
///
/// Returns [`LabError::Declaration`] for an unknown name (listing the
/// valid ones) — a built-in that fails to *parse* is a packaging bug and
/// also surfaces here.
pub fn builtin(name: &str) -> Result<Experiment, LabError> {
    let Some((_, text)) = BUILTIN_EXPERIMENTS.iter().find(|(n, _)| *n == name) else {
        let valid: Vec<&str> = BUILTIN_EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        return Err(LabError::Declaration(format!(
            "unknown experiment {name:?} (built-in: {})",
            valid.join(" ")
        )));
    };
    Experiment::parse(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_parses_resolves_and_matches_its_key() {
        for (name, _) in BUILTIN_EXPERIMENTS {
            let e = builtin(name).unwrap();
            assert_eq!(e.name, name, "declaration name must match its key");
            let r = e.resolve().unwrap();
            assert!(r.num_points() > 0);
            assert_eq!(r.expand().len(), r.num_points());
        }
    }

    #[test]
    fn unknown_builtin_lists_the_valid_names() {
        let err = builtin("fig99").unwrap_err();
        let LabError::Declaration(msg) = err else {
            panic!("wrong variant");
        };
        assert!(msg.contains("lab-smoke"), "{msg}");
    }
}
