//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures <command> [--scale FRACTION | --full] [--json DIR] [--trace DIR]
//!
//! commands:
//!   fig3a | fig3a-synthetic | fig3b | fig4 | fig5 | fig6
//!   ablation-traversal | ablation-mbr | extra-mnn
//!   parallel-scaling    thread-scaling study (BENCH_parallel_scaling.json)
//!   parallel-join       morsel-engine sweep: every algorithm x threads
//!                       {1,2,4,8} x uniform/clustered, byte-diffed vs
//!                       serial (BENCH_parallel_join.json)
//!   kernels             batched-kernel throughput study (BENCH_kernels.json)
//!   robustness          resilience fault-free-overhead study (BENCH_robustness.json)
//!   outofcore           streaming-build + prefetch sweep (BENCH_outofcore.json);
//!                       honors --points N --pool-pages P --seed S overrides
//!   serving             closed-loop HTTP front-end load sweep (BENCH_serving.json)
//!   mvcc                snapshot-reader latency with/without an active
//!                       writer (BENCH_mvcc.json)
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

struct Args {
    command: String,
    fraction: f64,
    json_dir: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    outofcore: ann_bench::figures::OutofcoreOpts,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut fraction = 0.1;
    let mut json_dir = None;
    let mut trace_dir = None;
    let mut outofcore = ann_bench::figures::OutofcoreOpts::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--points" => {
                let v = args.next().ok_or("--points needs a value")?;
                let n = v
                    .parse::<usize>()
                    .map_err(|e| format!("bad --points value {v:?}: {e}"))?;
                if n == 0 {
                    return Err("--points must be positive".to_string());
                }
                outofcore.points = Some(n);
            }
            "--pool-pages" => {
                let v = args.next().ok_or("--pool-pages needs a value")?;
                let p = v
                    .parse::<usize>()
                    .map_err(|e| format!("bad --pool-pages value {v:?}: {e}"))?;
                if p == 0 {
                    return Err("--pool-pages must be positive".to_string());
                }
                outofcore.pool_pages = Some(p);
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                outofcore.seed = Some(
                    v.parse::<u64>()
                        .map_err(|e| format!("bad --seed value {v:?}: {e}"))?,
                );
            }
            "--full" => fraction = 1.0,
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                fraction = v
                    .parse::<f64>()
                    .map_err(|e| format!("bad --scale value {v:?}: {e}"))?;
                if !(fraction > 0.0 && fraction <= 1.0) {
                    return Err(format!("--scale must be in (0, 1], got {fraction}"));
                }
            }
            "--json" => {
                let v = args.next().ok_or("--json needs a directory")?;
                json_dir = Some(PathBuf::from(v));
            }
            "--trace" => {
                let v = args.next().ok_or("--trace needs a directory")?;
                trace_dir = Some(PathBuf::from(v));
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(Args {
        command,
        fraction,
        json_dir,
        trace_dir,
        outofcore,
    })
}

fn usage() -> String {
    "usage: figures <fig3a|fig3a-synthetic|fig3b|fig4|fig5|fig6|\
     ablation-traversal|ablation-mbr|ablation-packing|extra-mnn|extra-hnn|extra-parallel|\
     parallel-scaling|parallel-join|kernels|robustness|outofcore|serving|mvcc|all|list-datasets> \
     [--scale F] [--full] [--json DIR] [--trace DIR] \
     [--points N] [--pool-pages P] [--seed S]"
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
        "extra-parallel" => emit(figures::extra_parallel(f), &args.json_dir),
        "parallel-scaling" => emit(figures::parallel_scaling(f), &args.json_dir),
        "parallel-join" => emit(figures::parallel_join(f), &args.json_dir),
        "kernels" => emit(figures::kernels_bench(f), &args.json_dir),
        "robustness" => emit(figures::robustness_bench(f), &args.json_dir),
        "outofcore" => emit(figures::outofcore(f, &args.outofcore), &args.json_dir),
        "serving" => emit(figures::serving(f), &args.json_dir),
        "mvcc" => emit(figures::mvcc(f), &args.json_dir),
        "all" => {
            for fig in figures::all(f) {
                emit(fig, &args.json_dir);
            }
            emit(figures::parallel_scaling(f), &args.json_dir);
            emit(figures::parallel_join(f), &args.json_dir);
            emit(figures::kernels_bench(f), &args.json_dir);
            emit(figures::robustness_bench(f), &args.json_dir);
            emit(figures::serving(f), &args.json_dir);
            emit(figures::mvcc(f), &args.json_dir);
        }
        "list-datasets" => print!("{}", figures::table2(f)),
        other => {
            eprintln!("unknown command {other:?}\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
