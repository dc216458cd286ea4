//! Regenerates every figure and table of the DATE 2005 fault-trajectory
//! paper, plus the extended tables T-A … T-J that `ft_bench::tables`
//! describes in its module doc.
//!
//! ```text
//! repro <experiment> [--csv]
//!
//! experiments:
//!   fig1             Figure 1 — golden + fault dictionary curves (R3)
//!   fig2             Figure 2 — sampling transformation to XY points
//!   fig3             Figure 3 — trajectories + diagnosis example
//!   ga               Section 2.4 GA run (128×15, roulette, 1/(1+I))
//!   table-accuracy   T-A GA vs baseline selectors
//!   table-nfreq      T-B number of test frequencies
//!   table-circuits   T-C across the circuit library
//!   table-fitness    T-D fitness formulation ablation
//!   table-step       T-E dictionary grid ablation
//!   table-noise      T-F noise & tolerance robustness
//!   table-methods    T-G trajectory vs nearest-neighbour diagnosis
//!   table-multiprobe T-H multi-probe observation extension
//!   table-encoding   T-I GA genome encoding ablation
//!   table-double     T-J double faults vs single-fault model
//!   all              everything above, in order
//! ```

use std::process::ExitCode;

use ft_bench::{figures, paper_setup, tables, Table};

fn print_table(table: &Table, csv: bool) {
    if csv {
        println!("{}", table.to_csv());
    } else {
        println!("{table}");
    }
}

fn run(experiment: &str, csv: bool) -> Result<(), String> {
    match experiment {
        "fig1" => {
            let setup = paper_setup();
            print_table(&figures::fig1_with(&setup, "R3"), csv);
        }
        "fig2" => print_table(&figures::fig2(), csv),
        "fig3" => {
            print_table(&figures::fig3_trajectories(), csv);
            print_table(&figures::fig3_diagnosis(), csv);
        }
        "ga" => {
            let (history, summary) = figures::ga24();
            print_table(&history, csv);
            print_table(&summary, csv);
        }
        "table-accuracy" => print_table(&tables::table_accuracy(), csv),
        "table-nfreq" => print_table(&tables::table_nfreq(), csv),
        "table-circuits" => print_table(&tables::table_circuits(), csv),
        "table-fitness" => print_table(&tables::table_fitness(), csv),
        "table-step" => print_table(&tables::table_step(), csv),
        "table-noise" => print_table(&tables::table_noise(), csv),
        "table-methods" => print_table(&tables::table_diagnosis_methods(), csv),
        "table-multiprobe" => print_table(&tables::table_multiprobe(), csv),
        "table-encoding" => print_table(&tables::table_encoding(), csv),
        "table-double" => print_table(&tables::table_double_faults(), csv),
        "all" => {
            for name in [
                "fig1",
                "fig2",
                "fig3",
                "ga",
                "table-accuracy",
                "table-nfreq",
                "table-circuits",
                "table-fitness",
                "table-step",
                "table-noise",
                "table-methods",
                "table-multiprobe",
                "table-encoding",
                "table-double",
            ] {
                eprintln!("=== {name} ===");
                run(name, csv)?;
            }
        }
        other => {
            return Err(format!(
                "unknown experiment `{other}` (run with no arguments for usage)"
            ));
        }
    }
    Ok(())
}

const USAGE: &str = "usage: repro <experiment> [--csv]\n\
     experiments: fig1 fig2 fig3 ga table-accuracy table-nfreq \
     table-circuits table-fitness table-step table-noise table-methods \
     table-multiprobe table-encoding table-double all";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let csv = args.iter().any(|a| a == "--csv");
    let experiments: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    if experiments.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    for experiment in experiments {
        if let Err(msg) = run(experiment, csv) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
