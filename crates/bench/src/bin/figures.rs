//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures <command> [--scale FRACTION | --full] [--json DIR] [--trace DIR]
//!
//! commands:
//!   fig3a | fig3a-synthetic | fig3b | fig4 | fig5 | fig6
//!   ablation-traversal | ablation-mbr | ablation-packing
//!   extra-mnn | extra-hnn
//!   robustness          resilience fault-free-overhead study (BENCH_robustness.json)
//!   outofcore           10⁷-point streamed build + census (BENCH_outofcore.json)
//!   all                 run every figure
//!   list-datasets       print Table 2 (with the scaled cardinalities)
//! ```
//!
//! `--scale 0.1` (the default) runs each workload at 10 % of the paper's
//! cardinality; `--full` is paper scale (700 K × 700 K joins — expect a
//! long run).
//!
//! `--trace DIR` attaches an execution tracer to every run and writes one
//! structured `ExecutionReport` JSON per run into `DIR` (phase wall times
//! with I/O deltas, per-level node-expansion histograms, and the
//! pruning-effectiveness breakdown). Measured counters are unaffected.

use ann_bench::{figures, report::Report};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

struct Args {
    command: String,
    fraction: f64,
    json_dir: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut fraction = 0.1;
    let mut json_dir = None;
    let mut trace_dir = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--full" => fraction = 1.0,
            "--scale" => {
                fraction = value(&mut args, &flag)?;
                if !(fraction > 0.0 && fraction <= 1.0) {
                    return Err(format!("--scale must be in (0, 1], got {fraction}"));
                }
            }
            "--json" => json_dir = Some(value(&mut args, &flag)?),
            "--trace" => trace_dir = Some(value(&mut args, &flag)?),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(Args {
        command,
        fraction,
        json_dir,
        trace_dir,
    })
}

/// The value that follows `flag`, parsed as a `T`.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = args.next().ok_or(format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|e| format!("bad {flag} value {v:?}: {e}"))
}

fn usage() -> String {
    "usage: figures <fig3a|fig3a-synthetic|fig3b|fig4|fig5|fig6|\
     ablation-traversal|ablation-mbr|ablation-packing|extra-mnn|extra-hnn|\
     robustness|outofcore|all|list-datasets> \
     [--scale F] [--full] [--json DIR] [--trace DIR]"
        .to_string()
}

fn emit(rep: impl Report, json_dir: &Option<PathBuf>) {
    print!("{}", rep.render());
    println!();
    if let Some(dir) = json_dir {
        if let Err(e) = rep.write_json(dir) {
            eprintln!("warning: could not write JSON for {}: {e}", rep.id());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let f = args.fraction;
    if let Some(dir) = &args.trace_dir {
        if let Err(e) = ann_bench::harness::enable_tracing(dir) {
            eprintln!("could not create trace directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        eprintln!("tracing every run into {}", dir.display());
    }
    eprintln!(
        "running {} at scale {:.3} of the paper's cardinalities",
        args.command, f
    );
    match args.command.as_str() {
        "fig3a" => emit(figures::fig3a(f), &args.json_dir),
        "fig3a-synthetic" => emit(figures::fig3a_synthetic(f), &args.json_dir),
        "fig3b" => emit(figures::fig3b(f), &args.json_dir),
        "fig4" => emit(figures::fig4(f), &args.json_dir),
        "fig5" => emit(figures::fig5(f), &args.json_dir),
        "fig6" => emit(figures::fig6(f), &args.json_dir),
        "ablation-traversal" => emit(figures::ablation_traversal(f), &args.json_dir),
        "ablation-mbr" => emit(figures::ablation_mbr(f), &args.json_dir),
        "extra-mnn" => emit(figures::extra_mnn(f), &args.json_dir),
        "extra-hnn" => emit(figures::extra_hnn(f), &args.json_dir),
        "ablation-packing" => emit(figures::ablation_packing(f), &args.json_dir),
        "robustness" => emit(figures::robustness_bench(f), &args.json_dir),
        "outofcore" => emit(figures::outofcore(f), &args.json_dir),
        "all" => {
            for fig in figures::all(f) {
                emit(fig, &args.json_dir);
            }
        }
        "list-datasets" => print!("{}", figures::table2(f)),
        other => {
            eprintln!("unknown command {other:?}\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
