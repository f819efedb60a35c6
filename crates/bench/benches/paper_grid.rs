//! Figs. 1, 2, 3, 7, 8, 9, 10, 11, 12 and §II-D from one run of the
//! built-in `fig07-speedup` declaration (`experiments/fig07-speedup.json`)
//! on the bench profile (`RIPPLE_BENCH_PROFILE`) at the bench budget
//! (`RIPPLE_BENCH_INSTRS`).
//!
//! Each figure prints its section under a `== <name> ==` marker line, then
//! every failed paper shape check is listed on stderr and the process
//! exits non-zero.

use ripple_bench::figures::FIGURES;
use ripple_bench::{bench_budget, bench_profile};
use ripple_lab::{builtin, run_experiment, LabOptions};

fn main() {
    let mut decl = builtin("fig07-speedup").expect("embedded declaration");
    decl.profiles = vec![bench_profile().name.to_string()];
    let resolved = decl.resolve().expect("declaration resolves");
    let options = LabOptions {
        instructions: Some(bench_budget()),
        ..LabOptions::default()
    };
    let run = run_experiment(&resolved, &options).expect("lab run");

    let mut failures = Vec::new();
    for (name, figure) in FIGURES {
        let section = figure(&run);
        println!("== {name} ==");
        print!("{}", section.text);
        failures.extend(section.failures.iter().map(|f| format!("{name}: {f}")));
    }
    if !failures.is_empty() {
        eprintln!("{} paper shape check(s) failed:", failures.len());
        for failure in &failures {
            eprintln!("  {failure}");
        }
        std::process::exit(1);
    }
}
