//! Experiment harness for regenerating every table and figure of the
//! Ripple paper.
//!
//! The figures that read the shared evaluation grid (Figs. 1-3, 7-12 and
//! §II-D) live in [`figures`]: one function per figure over the
//! `fig07-speedup` lab run, driven by the `paper_grid` bench. The
//! remaining bench targets (Fig. 6, Fig. 13, the tables, ablations and
//! perf microbenchmarks) use the helpers below directly.

pub mod figures;

use ripple::collect_profile;
use ripple_lab::TargetProfile;
use ripple_program::{Layout, LayoutConfig};
use ripple_trace::BbTrace;
use ripple_workloads::{generate, App, Application, InputConfig};

/// Instruction budget per application trace (`RIPPLE_BENCH_INSTRS`).
pub fn bench_budget() -> u64 {
    std::env::var("RIPPLE_BENCH_INSTRS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

/// The target profile benches measure on (`RIPPLE_BENCH_PROFILE`, a
/// `ripple-lab` profile name; default `paper`, the paper's Table II).
pub fn bench_profile() -> &'static TargetProfile {
    let name = std::env::var("RIPPLE_BENCH_PROFILE").unwrap_or_else(|_| "paper".to_string());
    TargetProfile::find(&name).unwrap_or_else(|| {
        panic!(
            "RIPPLE_BENCH_PROFILE={name:?} names no target profile (valid: {})",
            ripple_lab::TARGET_PROFILES
                .iter()
                .map(|p| p.name)
                .collect::<Vec<_>>()
                .join(" ")
        )
    })
}

/// A loaded application with its profiled trace.
pub struct LoadedApp {
    /// The generated application.
    pub app: Application,
    /// Its (pre-injection) layout.
    pub layout: Layout,
    /// The training/evaluation trace (input #0).
    pub trace: BbTrace,
}

/// Generates `app` and collects its input-#0 profile at the bench budget.
pub fn load_app(app: App, budget: u64) -> LoadedApp {
    let generated = generate(&app.spec());
    let layout = Layout::new(&generated.program, &LayoutConfig::default());
    let profile = collect_profile(
        &generated,
        &layout,
        InputConfig::training(app.spec().seed),
        budget,
    )
    .expect("profile collection is lossless");
    LoadedApp {
        app: generated,
        layout,
        trace: profile.trace,
    }
}

/// `paper=` vs `measured=` comparison line (grepped into EXPERIMENTS.md).
pub fn paper_check(label: &str, paper: f64, measured: f64, unit: &str) -> String {
    format!("check: {label}: paper={paper}{unit} measured={measured:.2}{unit}")
}

/// Prints a [`paper_check`] line.
pub fn print_paper_check(label: &str, paper: f64, measured: f64, unit: &str) {
    println!("{}", paper_check(label, paper, measured, unit));
}
