//! `ann-perf`: the repository's benchmark. See `perf/README.md`.

mod check;
mod gen;
mod join;
mod layers;
mod measure;
mod results;
mod serve;
mod spec;
mod trace;

use join::JoinWorkload;
use measure::Report;
use serve::ServeWorkload;
use spec::Spec;
use std::path::PathBuf;
use std::time::Duration;

/// What one run of one workload is given.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Worker threads for the parallel join: `min(cores, 4)`.
    pub threads: usize,
    /// Where trace files go (`perf/out`).
    pub out: PathBuf,
    /// Scratch directory of this run, under `out`, removed at exit.
    pub tmp: PathBuf,
}

/// A workload step's outcome; the message ends up in an `error` line.
pub type Res<T> = Result<T, String>;

/// Prefixes a library error with the step that met it.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `T`, the worker threads of the parallel join.
pub fn join_threads() -> usize {
    host_cores().min(4)
}

enum Workload {
    Join(JoinWorkload),
    Serve(ServeWorkload),
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "join2d_hot" => Workload::Join(JoinWorkload {
            dims: 2,
            n: 70_000,
            k: 1,
            frames: 4096,
        }),
        "join10d_cold" => Workload::Join(JoinWorkload {
            dims: 10,
            n: 20_000,
            k: 10,
            frames: 64,
        }),
        "serve_small" => Workload::Serve(ServeWorkload {
            n: 256,
            k: 1,
            readers: host_cores().min(2),
            writer: false,
        }),
        "serve_mixed" => Workload::Serve(ServeWorkload {
            n: 4000,
            k: 2,
            readers: 1,
            writer: true,
        }),
        _ => return None,
    })
}

/// Closes a traced pass: checks the spans, prints each layer's self time,
/// and writes `<out>/<workload>.trace.jsonl`.
pub fn finish_trace(args: &RunArgs, traces: Vec<trace::Trace>, rep: &mut Report) {
    let sum = trace::summarize(&traces);
    if sum.unclosed > 0 {
        rep.fail(format!("{} spans never closed", sum.unclosed));
    }
    if sum.negative_self > 0 {
        rep.fail(format!(
            "{} spans have negative self time",
            sum.negative_self
        ));
    }
    rep.set("trace.spans", sum.spans as f64);
    for (name, (count, total, own)) in &sum.by_name {
        println!(
            "span {name} count={count} total_ms={:.3} self_ms={:.3}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    let path = args.out.join(format!("{}.trace.jsonl", args.workload));
    if let Err(e) = trace::write_jsonl(&path, &traces) {
        rep.fail(format!("writing {}: {e}", path.display()));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ann-perf [--workload <name>] [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--out DIR]\n       \
         ann-perf compare <base results.json> <new results.json>\n       \
         ann-perf --self-test\n\
         Without --workload, every workload runs in its own process and <out>/results.json is written."
    );
    std::process::exit(2)
}

fn main() {
    let spec = Spec::load();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, base, new, ..] = argv.as_slice() else {
            usage()
        };
        match results::compare(&spec, base, new) {
            Ok(false) => return,
            Ok(true) => std::process::exit(1),
            Err(e) => {
                eprintln!("ann-perf compare: {e}");
                std::process::exit(2);
            }
        }
    }
    let mut name = None;
    let mut seed = 1u64;
    let mut seconds = spec.run_seconds;
    let mut trace = false;
    let mut runs = 1u64;
    let mut out = PathBuf::from("perf/out");
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => name = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value() == "1",
            "--runs" => runs = value().parse().unwrap_or_else(|_| usage()),
            "--out" => out = PathBuf::from(value()),
            "--self-test" => match gen::self_test() {
                Ok(()) => {
                    println!("self-test ok");
                    return;
                }
                Err(e) => {
                    eprintln!("self-test failed: {e}");
                    std::process::exit(1);
                }
            },
            _ => usage(),
        }
    }
    std::fs::create_dir_all(&out).expect("creating the output directory");
    let Some(name) = name else {
        let ok = results::run_all(&spec, seed, seconds, trace, runs, &out);
        std::process::exit(i32::from(!ok));
    };
    let Some(w) = workload(&name).filter(|_| spec.workloads.contains(&name)) else {
        eprintln!(
            "unknown workload {name:?}; BENCHMARK.json names {:?}",
            spec.workloads
        );
        std::process::exit(2);
    };
    let tmp = out.join(format!("tmp-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("creating the scratch directory");
    let args = RunArgs {
        workload: name,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        threads: join_threads(),
        out,
        tmp,
    };
    println!(
        "run workload={} seed={} seconds={} trace={} host_cores={} threads={}",
        args.workload,
        seed,
        seconds,
        u8::from(trace),
        host_cores(),
        args.threads
    );
    let mut rep = match w {
        Workload::Join(w) => join::run(&w, &args),
        Workload::Serve(w) => serve::run(&w, &args),
    };
    let _ = std::fs::remove_dir_all(&args.tmp);
    let decls = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    rep.print(decls, !trace);
    for e in &rep.errors {
        println!("error {e}");
    }
    println!("{}", rep.to_json(decls));
}
