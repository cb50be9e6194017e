//! Seed-driven fuzz driver: `fuzz [--seed S] [--cases N] [--class C]`.
//!
//! `--class` is one of `diff`, `nxn`, `kernels`, `tree`, `recovery`, `faults`,
//! `wire`, `interleave`, `parallel`, or `all`
//! (default). Exits non-zero when any case fails; every failure prints a
//! minimal reproducer (and, for differential failures, the diverging
//! run's `ExecutionReport` JSON).

use checker::{run_class, Class};
use std::process::ExitCode;

struct Args {
    seed: u64,
    cases: usize,
    classes: Vec<Class>,
}

fn parse_args() -> Result<Args, String> {
    let mut seed = 0xA11_AE57u64; // "all nearest"
    let mut cases = 200usize;
    let mut classes = Class::ALL.to_vec();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                seed = parse_u64(&v).ok_or_else(|| format!("bad --seed {v:?}"))?;
            }
            "--cases" => {
                let v = value("--cases")?;
                cases = v.parse().map_err(|_| format!("bad --cases {v:?}"))?;
            }
            "--class" => {
                let v = value("--class")?;
                if v == "all" {
                    classes = Class::ALL.to_vec();
                } else {
                    classes = vec![Class::parse(&v).ok_or_else(|| {
                        format!("unknown class {v:?} (diff|nxn|kernels|tree|recovery|faults|wire|interleave|parallel|all)")
                    })?];
                }
            }
            "--help" | "-h" => {
                return Err("usage: fuzz [--seed S] [--cases N] \
                            [--class diff|nxn|kernels|tree|recovery|faults|wire|interleave|parallel|all]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(Args {
        seed,
        cases,
        classes,
    })
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = 0usize;
    for class in &args.classes {
        let failures = run_class(*class, args.seed, args.cases);
        if failures.is_empty() {
            println!(
                "checker: class {:<8} seed {:#018x} — {} cases OK",
                class.name(),
                args.seed,
                args.cases
            );
        } else {
            for f in &failures {
                eprintln!("{}", f.render());
            }
            failed += failures.len();
        }
    }
    if failed > 0 {
        eprintln!("checker: {failed} failure(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
