//! The paper's grid figures, each read from one lab run.
//!
//! Figs. 1, 2, 3, 7, 8, 9, 10, 11, 12 and §II-D all read one evaluation:
//! every application under each prefetcher (none / NLP / FDIP) with the
//! policy matrix, the prefetch-aware ideal, the ideal cache, and
//! Ripple-LRU / Ripple-Random — the built-in `fig07-speedup` declaration.
//! Each figure is a function from that [`LabRun`] to a [`Section`]: the
//! text the figure prints plus the paper shape checks that failed. A
//! failed check is reported, not panicked on, so one failing figure does
//! not hide the others.
//!
//! Figures read a single-profile run's pristine (`fault_modes: none`)
//! points. Ripple-LRU is read at its tuned threshold and Ripple-Random at
//! that same threshold: the plan, not the substrate, owns the threshold.

use ripple_lab::{FaultMode, LabRun, PointOutcome, RipplePointRow};
use ripple_sim::{PolicyKind, PrefetcherKind};
use ripple_workloads::App;

use crate::paper_check;

/// A figure: renders its section from the grid run.
pub type Figure = fn(&LabRun) -> Section;

/// Every grid figure with the section name `paper_grid` prints it under,
/// in paper order.
pub const FIGURES: [(&str, Figure); 10] = [
    ("fig01_ideal_cache", fig01_ideal_cache),
    ("fig02_fdip", fig02_fdip),
    ("fig03_policies", fig03_policies),
    ("sec2d_compulsory", sec2d_compulsory),
    ("fig07_speedup", fig07_speedup),
    ("fig08_mpki", fig08_mpki),
    ("fig09_coverage", fig09_coverage),
    ("fig10_accuracy", fig10_accuracy),
    ("fig11_static_overhead", fig11_static_overhead),
    ("fig12_dynamic_overhead", fig12_dynamic_overhead),
];

/// One figure's printed text and the shape checks it failed.
#[derive(Debug, Default)]
pub struct Section {
    /// The figure's rows, series and `check:` lines, newline-terminated.
    pub text: String,
    /// One message per failed shape check; empty when the figure's
    /// shape reproduces.
    pub failures: Vec<String>,
}

impl Section {
    fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    /// A per-app series: one value per app plus the mean.
    fn series(&mut self, title: &str, unit: &str, rows: &[(String, f64)]) {
        self.line(format!("\n{title}"));
        for (name, v) in rows {
            self.line(format!("  {name:<16} {v:>8.2} {unit}"));
        }
        self.line(format!("  {:<16} {:>8.2} {unit}", "MEAN", mean(rows)));
    }

    fn paper_check(&mut self, label: &str, paper: f64, measured: f64, unit: &str) {
        self.line(paper_check(label, paper, measured, unit));
    }

    /// Records `failure()` unless the paper's shape `holds`.
    fn check(&mut self, holds: bool, failure: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(failure());
        }
    }
}

fn mean(rows: &[(String, f64)]) -> f64 {
    rows.iter().map(|r| r.1).sum::<f64>() / rows.len().max(1) as f64
}

/// A run's pristine points under one prefetcher, in declaration order.
struct Cells<'r>(Vec<(App, &'r PointOutcome)>);

impl<'r> Cells<'r> {
    fn new(run: &'r LabRun, prefetcher: PrefetcherKind) -> Self {
        Cells(
            run.points
                .iter()
                .zip(&run.outcomes)
                .filter(|(p, _)| p.prefetcher == prefetcher && p.fault == FaultMode::None)
                .map(|(p, o)| (p.app, o))
                .collect(),
        )
    }

    /// `f` per app, labelled with the app's name.
    fn rows(&self, f: impl Fn(&PointOutcome) -> f64) -> Vec<(String, f64)> {
        self.0
            .iter()
            .map(|&(a, c)| (a.name().to_string(), f(c)))
            .collect()
    }

    /// Mean of `f` over the apps.
    fn mean(&self, f: impl Fn(&PointOutcome) -> f64) -> f64 {
        self.0.iter().map(|&(_, c)| f(c)).sum::<f64>() / self.0.len().max(1) as f64
    }

    /// Names of the point's declared policies, in axis order.
    fn policy_names(&self) -> Vec<&'r str> {
        self.0.first().map_or_else(Vec::new, |(_, c)| {
            c.policies.iter().map(|(n, _)| n.as_str()).collect()
        })
    }
}

/// Ripple-LRU at its tuned threshold.
fn ripple_lru(c: &PointOutcome) -> &RipplePointRow {
    c.ripple
        .iter()
        .find(|r| r.underlying == PolicyKind::LRU.name() && r.best)
        .expect("lru best row")
}

/// Ripple-Random at Ripple-LRU's tuned threshold.
fn ripple_random(c: &PointOutcome) -> &RipplePointRow {
    let threshold = ripple_lru(c).threshold;
    c.ripple
        .iter()
        .find(|r| r.underlying == PolicyKind::RANDOM.name() && r.threshold == threshold)
        .expect("random row at the tuned threshold")
}

/// Figure 1: ideal I-cache speedup over an LRU baseline without
/// prefetching. Paper: 11–47 % per app, mean 17.7 %.
pub fn fig01_ideal_cache(run: &LabRun) -> Section {
    let cells = Cells::new(run, PrefetcherKind::None);
    let rows = cells.rows(|c| c.ideal_cache.speedup_pct);
    let mut s = Section::default();
    s.series(
        "Fig. 1 — Ideal I-cache speedup over LRU (no prefetching)",
        "%",
        &rows,
    );
    let mean = cells.mean(|c| c.ideal_cache.speedup_pct);
    s.paper_check("fig1 mean ideal-cache speedup", 17.7, mean, "%");
    s.check(rows.iter().all(|r| r.1 > 0.0), || {
        "ideal cache must always win".into()
    });
    s
}

/// Figure 2: FDIP speedup over the no-prefetch LRU baseline, with LRU vs
/// ideal (Demand-MIN) replacement. Paper: FDIP+LRU 13.4 %, FDIP+ideal
/// 16.6 %, ideal cache 17.7 %.
pub fn fig02_fdip(run: &LabRun) -> Section {
    // Speedups are stored relative to the same-prefetcher LRU baseline;
    // chain them onto the no-prefetch baseline via the ideal-cache row
    // shared by both configurations (the ideal cache executes identical
    // work under any prefetcher).
    let mut fdip_lru = Vec::new();
    let mut fdip_ideal = Vec::new();
    let none = Cells::new(run, PrefetcherKind::None);
    let fdip = Cells::new(run, PrefetcherKind::Fdip);
    for (&(a, none), &(_, fdip)) in none.0.iter().zip(&fdip.0) {
        // ideal_cache.speedup_pct = (lru_cycles / ic_cycles - 1) * 100 per
        // config; the ic cycles are identical, so:
        let none_lru_over_ic = 1.0 + none.ideal_cache.speedup_pct / 100.0;
        let fdip_lru_over_ic = 1.0 + fdip.ideal_cache.speedup_pct / 100.0;
        let fdip_vs_none = (none_lru_over_ic / fdip_lru_over_ic - 1.0) * 100.0;
        fdip_lru.push((a.name().to_string(), fdip_vs_none));
        let ideal_gain = 1.0 + fdip.ideal.speedup_pct / 100.0;
        fdip_ideal.push((
            a.name().to_string(),
            ((1.0 + fdip_vs_none / 100.0) * ideal_gain - 1.0) * 100.0,
        ));
    }
    let mut s = Section::default();
    s.series(
        "Fig. 2 — FDIP+LRU speedup over no-prefetch LRU",
        "%",
        &fdip_lru,
    );
    s.series(
        "Fig. 2 — FDIP+ideal-replacement speedup over no-prefetch LRU",
        "%",
        &fdip_ideal,
    );
    let m_lru = mean(&fdip_lru);
    let m_ideal = mean(&fdip_ideal);
    s.paper_check("fig2 mean fdip+lru speedup", 13.4, m_lru, "%");
    s.paper_check("fig2 mean fdip+ideal speedup", 16.6, m_ideal, "%");
    s.check(m_ideal > m_lru, || {
        "ideal replacement must improve FDIP".into()
    });
    s
}

/// Figure 3: prior replacement policies vs LRU under FDIP. Paper: none of
/// GHRP/Hawkeye/Harmony/SRRIP/DRRIP beat LRU, while the ideal policy
/// gains 3.16 % on average. The policy columns are the declaration's
/// `@priors`, so a newly registered policy gets a column unasked.
pub fn fig03_policies(run: &LabRun) -> Section {
    let cells = Cells::new(run, PrefetcherKind::Fdip);
    let policy_names = cells.policy_names();
    let mut s = Section::default();
    s.line("\nFig. 3 — Replacement-policy speedup over LRU (FDIP at L1I), %");
    let mut header = format!("  {:<16}", "app");
    for name in &policy_names {
        header.push_str(&format!(" {name:>9}"));
    }
    header.push_str(&format!(" {:>9}", "ideal"));
    s.line(header);
    let mut sums = vec![0.0f64; policy_names.len() + 1];
    for &(a, c) in &cells.0 {
        let mut row = format!("  {:<16}", a.name());
        let mut vals: Vec<f64> = c.policies.iter().map(|(_, r)| r.speedup_pct).collect();
        vals.push(c.ideal.speedup_pct);
        for (sum, v) in sums.iter_mut().zip(&vals) {
            *sum += v;
            row.push_str(&format!(" {v:>9.2}"));
        }
        s.line(row);
    }
    let n = cells.0.len() as f64;
    let mut mean_row = format!("  {:<16}", "MEAN");
    for sum in &sums {
        mean_row.push_str(&format!(" {:>9.2}", sum / n));
    }
    s.line(mean_row);
    let ideal_mean = sums.last().expect("ideal column") / n;
    s.paper_check("fig3 mean ideal speedup under fdip", 3.16, ideal_mean, "%");
    // The paper's headline: no prior policy meaningfully beats LRU while
    // ideal clearly does.
    for (name, sum) in policy_names.iter().zip(&sums) {
        let mean = sum / n;
        s.check(mean < ideal_mean, || {
            format!("{name} mean {mean:.2}% must trail the ideal {ideal_mean:.2}%")
        });
    }
    s
}

/// §II-D: compulsory MPKI is tiny (paper: 0.1–0.3, mean 0.16), which is
/// why scan-oriented policies (SRRIP/DRRIP) have nothing to exploit on
/// the I-cache.
pub fn sec2d_compulsory(run: &LabRun) -> Section {
    let cells = Cells::new(run, PrefetcherKind::None);
    let mut s = Section::default();
    s.series(
        "§II-D — Compulsory MPKI (steady state)",
        "MPKI",
        &cells.rows(|c| c.compulsory_mpki),
    );
    let mean = cells.mean(|c| c.compulsory_mpki);
    s.paper_check("sec2d mean compulsory mpki", 0.16, mean, "");
    let total_mean = cells.mean(|c| c.lru.mpki);
    // Our traces are ~1 M instructions vs the paper's 100 M, so first
    // touches weigh ~10x more here even after cache warmup; the qualitative
    // point (compulsory misses are a minority, i.e. scanning patterns are
    // rare) still holds.
    s.check(mean < 0.5 * total_mean, || {
        format!("compulsory misses must be a minority of total MPKI ({mean:.2} vs {total_mean:.2})")
    });
    s
}

/// Figure 7: Ripple-LRU / Ripple-Random vs prior policies and the ideal,
/// for each prefetcher. Paper means: Ripple-LRU +1.25 % (none), +2.13 %
/// (NLP), +1.4 % (FDIP); ideal +3.36/+3.87/+3.16 %.
pub fn fig07_speedup(run: &LabRun) -> Section {
    let mut s = Section::default();
    for (pf, paper_ripple, paper_ideal) in [
        (PrefetcherKind::None, 1.25, 3.36),
        (PrefetcherKind::NextLine, 2.13, 3.87),
        (PrefetcherKind::Fdip, 1.4, 3.16),
    ] {
        let cells = Cells::new(run, pf);
        s.line(format!(
            "\nFig. 7 — Speedup over LRU with {} (percent)",
            pf.name()
        ));
        s.line(format!(
            "  {:<16} {:>10} {:>13} {:>8} {:>8}",
            "app", "ripple-lru", "ripple-random", "best-prior", "ideal"
        ));
        for &(a, c) in &cells.0 {
            let best_prior = c
                .policies
                .iter()
                .map(|(_, p)| p.speedup_pct)
                .fold(f64::NEG_INFINITY, f64::max);
            s.line(format!(
                "  {:<16} {:>10.2} {:>13.2} {:>8.2} {:>8.2}",
                a.name(),
                ripple_lru(c).row.speedup_pct,
                ripple_random(c).row.speedup_pct,
                best_prior,
                c.ideal.speedup_pct
            ));
        }
        let mean_rl = cells.mean(|c| ripple_lru(c).row.speedup_pct);
        let mean_rr = cells.mean(|c| ripple_random(c).row.speedup_pct);
        let mean_ideal = cells.mean(|c| c.ideal.speedup_pct);
        s.line(format!(
            "  {:<16} {:>10.2} {:>13.2} {:>8} {:>8.2}",
            "MEAN", mean_rl, mean_rr, "", mean_ideal
        ));
        s.paper_check(
            &format!("fig7 mean ripple-lru speedup ({})", pf.name()),
            paper_ripple,
            mean_rl,
            "%",
        );
        s.paper_check(
            &format!("fig7 mean ideal speedup ({})", pf.name()),
            paper_ideal,
            mean_ideal,
            "%",
        );
        s.check(mean_rl <= mean_ideal, || {
            format!(
                "{}: ripple cannot beat the ideal policy ({mean_rl:.2} > {mean_ideal:.2})",
                pf.name()
            )
        });
        // Headline shape: Ripple-LRU beats every prior policy's mean
        // (within measurement noise under the strongest prefetchers, where
        // absolute differences shrink to hundredths of a percent).
        for (i, name) in cells.policy_names().into_iter().enumerate() {
            // Two explicit exclusions from the "Ripple beats every prior"
            // bar: plain Random legitimately beats LRU on thrash-heavy
            // apps (classic cyclic-pattern behaviour), and TRRIP consumes
            // the same offline profile Ripple does, making it a peer
            // technique rather than a hardware-only prior.
            if name == PolicyKind::RANDOM.name() || name == PolicyKind::TRRIP.name() {
                continue;
            }
            let mean_p = cells.mean(|c| c.policies[i].1.speedup_pct);
            s.check(mean_rl >= mean_p - 0.25, || {
                format!(
                    "{}: ripple-lru ({mean_rl:.2}) must beat {name} ({mean_p:.2})",
                    pf.name()
                )
            });
        }
    }
    s
}

/// Figure 8: L1I miss reduction over LRU. Paper means: Ripple-LRU 9.57 %
/// (none), 28.6 % (NLP), 18.61 % (FDIP); ideal 28.88/53.66/45 %.
pub fn fig08_mpki(run: &LabRun) -> Section {
    let mut s = Section::default();
    for (pf, paper_ripple, paper_ideal) in [
        (PrefetcherKind::None, 9.57, 28.88),
        (PrefetcherKind::NextLine, 28.6, 53.66),
        (PrefetcherKind::Fdip, 18.61, 45.0),
    ] {
        let cells = Cells::new(run, pf);
        s.line(format!(
            "\nFig. 8 — L1I miss reduction over LRU with {} (percent)",
            pf.name()
        ));
        s.line(format!(
            "  {:<16} {:>10} {:>13} {:>8}",
            "app", "ripple-lru", "ripple-random", "ideal"
        ));
        for &(a, c) in &cells.0 {
            s.line(format!(
                "  {:<16} {:>10.2} {:>13.2} {:>8.2}",
                a.name(),
                ripple_lru(c).row.miss_reduction_pct,
                ripple_random(c).row.miss_reduction_pct,
                c.ideal.miss_reduction_pct
            ));
        }
        let mean_rl = cells.mean(|c| ripple_lru(c).row.miss_reduction_pct);
        let mean_ideal = cells.mean(|c| c.ideal.miss_reduction_pct);
        s.line(format!(
            "  {:<16} {:>10.2} {:>13} {:>8.2}",
            "MEAN", mean_rl, "", mean_ideal
        ));
        s.paper_check(
            &format!("fig8 mean ripple-lru miss reduction ({})", pf.name()),
            paper_ripple,
            mean_rl,
            "%",
        );
        s.paper_check(
            &format!("fig8 mean ideal miss reduction ({})", pf.name()),
            paper_ideal,
            mean_ideal,
            "%",
        );
        s.check(mean_ideal > 0.0, || {
            format!("{}: ideal must reduce misses", pf.name())
        });
        s.check(mean_rl <= mean_ideal + 1e-9, || {
            format!("{}: ripple cannot reduce more than ideal", pf.name())
        });
    }
    s
}

/// Mean Ripple-LRU coverage (0..=1) over the JIT apps and over the rest.
fn coverage_means(cells: &Cells) -> (f64, f64) {
    let mean_where = |jit: bool| {
        let coverage: Vec<f64> = cells
            .0
            .iter()
            .filter(|(a, _)| a.has_jit() == jit)
            .map(|&(_, c)| ripple_lru(c).coverage)
            .collect();
        coverage.iter().sum::<f64>() / coverage.len().max(1) as f64
    };
    (mean_where(true), mean_where(false))
}

/// Figure 9: Ripple's replacement coverage per application. Paper: mean
/// above 50 %; below 50 % only for the JIT-heavy HHVM trio
/// (drupal/mediawiki/wordpress); verilator near-total (98.7 %).
pub fn fig09_coverage(run: &LabRun) -> Section {
    let cells = Cells::new(run, PrefetcherKind::Fdip);
    let mut s = Section::default();
    s.series(
        "Fig. 9 — Ripple replacement coverage (FDIP)",
        "%",
        &cells.rows(|c| ripple_lru(c).coverage * 100.0),
    );
    // JIT apps must trail the non-JIT mean.
    let (jit_mean, nonjit_mean) = coverage_means(&cells);
    s.line(format!(
        "  jit-apps mean {:.1}% vs non-jit mean {:.1}%",
        jit_mean * 100.0,
        nonjit_mean * 100.0
    ));
    s.check(jit_mean < nonjit_mean, || {
        format!("JIT code must cap coverage ({jit_mean:.2} !< {nonjit_mean:.2})")
    });
    s
}

/// Figure 10: Ripple's replacement accuracy per application. Paper: mean
/// 92 % (min 88 %), vs LRU's own 77.8 % average accuracy.
pub fn fig10_accuracy(run: &LabRun) -> Section {
    let cells = Cells::new(run, PrefetcherKind::None);
    let mut s = Section::default();
    s.series(
        "Fig. 10 — Ripple replacement accuracy",
        "%",
        &cells.rows(|c| ripple_lru(c).accuracy * 100.0),
    );
    let mean = cells.mean(|c| ripple_lru(c).accuracy) * 100.0;
    let lru_mean = cells.mean(|c| ripple_lru(c).underlying_accuracy) * 100.0;
    s.line(format!("  LRU's own eviction accuracy: {lru_mean:.1}%"));
    s.paper_check("fig10 mean ripple accuracy", 92.0, mean, "%");
    s.paper_check("fig10 mean lru accuracy", 77.8, lru_mean, "%");
    s.check(mean > lru_mean, || {
        format!("ripple must evict more accurately than LRU ({mean:.1} !> {lru_mean:.1})")
    });
    s
}

/// Figure 11: static instruction overhead of injected invalidations.
/// Paper: below 4.4 % for every application (mean 3.4 %).
pub fn fig11_static_overhead(run: &LabRun) -> Section {
    let cells = Cells::new(run, PrefetcherKind::Fdip);
    let rows = cells.rows(|c| ripple_lru(c).static_overhead_pct);
    let mut s = Section::default();
    s.series("Fig. 11 — Static instruction overhead", "%", &rows);
    let mean = cells.mean(|c| ripple_lru(c).static_overhead_pct);
    s.paper_check("fig11 mean static overhead", 3.4, mean, "%");
    s.check(rows.iter().all(|r| r.1 < 4.4), || {
        "static overhead must stay below the paper's 4.4% bound".into()
    });
    s
}

/// Figure 12: dynamic instruction overhead of executed invalidations.
/// Paper: mean 2.2 %, below 2 % everywhere except verilator (~10 %,
/// where near-total coverage costs extra executed invalidations).
pub fn fig12_dynamic_overhead(run: &LabRun) -> Section {
    let cells = Cells::new(run, PrefetcherKind::Fdip);
    let mut s = Section::default();
    s.series(
        "Fig. 12 — Dynamic instruction overhead",
        "%",
        &cells.rows(|c| ripple_lru(c).dynamic_overhead_pct),
    );
    let mean = cells.mean(|c| ripple_lru(c).dynamic_overhead_pct);
    s.paper_check("fig12 mean dynamic overhead", 2.2, mean, "%");
    s.check(mean < 15.0, || {
        format!("dynamic overhead out of control: {mean:.1}%")
    });
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_lab::{run_experiment, Experiment, LabOptions, TOKEN_PRIORS};
    use std::sync::OnceLock;

    /// One JIT app and one non-JIT app under every prefetcher, at a
    /// test-sized budget. Computed once and shared by the tests.
    fn small_run() -> &'static LabRun {
        static RUN: OnceLock<LabRun> = OnceLock::new();
        RUN.get_or_init(|| {
            let decl = Experiment {
                name: "figures".into(),
                description: String::new(),
                instructions: 60_000,
                profiles: vec!["paper".into()],
                apps: vec!["drupal".into(), "tomcat".into()],
                prefetchers: vec!["none".into(), "nlp".into(), "fdip".into()],
                policies: vec![TOKEN_PRIORS.into()],
                ripple_underlying: vec!["lru".into(), "random".into()],
                thresholds: vec![0.45, 0.65],
                fault_modes: vec!["none".into()],
            };
            run_experiment(&decl.resolve().unwrap(), &LabOptions::default()).unwrap()
        })
    }

    #[test]
    fn every_figure_renders_a_small_grid() {
        let run = small_run();
        let titles = [
            "Fig. 1 ", "Fig. 2 ", "Fig. 3 ", "§II-D ", "Fig. 7 ", "Fig. 8 ", "Fig. 9 ", "Fig. 10 ",
            "Fig. 11 ", "Fig. 12 ",
        ];
        for ((name, figure), title) in FIGURES.iter().zip(titles) {
            // Shape results at this budget are not asserted: only that the
            // figure renders from the run without panicking.
            let section = figure(run);
            assert!(
                section.text.starts_with(&format!("\n{title}")),
                "{name} must print its title first:\n{}",
                section.text
            );
        }
    }

    #[test]
    fn fig09_means_average_only_the_apps_present() {
        // Fig. 9's JIT and non-JIT means average over the apps present,
        // so with one app each they are that app's coverage.
        let cells = Cells::new(small_run(), PrefetcherKind::Fdip);
        let coverage = |app: App| {
            let (_, c) = cells.0.iter().find(|(a, _)| *a == app).unwrap();
            ripple_lru(c).coverage
        };
        let (jit, nonjit) = coverage_means(&cells);
        assert!(jit > 0.0, "the JIT app must have some coverage");
        assert_eq!(jit, coverage(App::Drupal));
        assert_eq!(nonjit, coverage(App::Tomcat));
    }

    #[test]
    fn failed_shape_checks_are_collected_in_order() {
        let mut s = Section::default();
        s.check(true, || unreachable!("a holding check builds no message"));
        s.check(false, || "first".into());
        s.check(false, || "second".into());
        assert_eq!(s.failures, ["first", "second"]);
        assert!(s.text.is_empty(), "checks print nothing themselves");
    }

    #[test]
    fn figures_read_only_pristine_points() {
        // Bitflip listed first: a filter that ignored the fault coordinate
        // would hand the faulted point to the figures.
        let decl = Experiment {
            name: "figures-faults".into(),
            description: String::new(),
            instructions: 30_000,
            profiles: vec!["paper".into()],
            apps: vec!["tomcat".into()],
            prefetchers: vec!["none".into()],
            policies: vec![],
            ripple_underlying: vec!["lru".into()],
            thresholds: vec![0.55],
            fault_modes: vec!["bitflip".into(), "none".into()],
        };
        let run = run_experiment(&decl.resolve().unwrap(), &LabOptions::default()).unwrap();
        assert_eq!(run.points.len(), 2);
        let cells = Cells::new(&run, PrefetcherKind::None);
        assert_eq!(cells.0.len(), 1, "one pristine point per app");
        assert!(cells.0[0].1.trace_health.is_none());
    }
}
