//! Whole-benchmark runs (`perf/out/results.json`) and `ann-perf compare`.

use crate::spec::Spec;
use ann_core::wire::JsonValue;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// First line of a command's stdout, or `unknown` (the driver's checkout is
/// not a git repository).
fn probe(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Runs every workload of `spec`, each in its own process so that peak
/// memory is per workload, `runs` times with seeds `seed, seed + 1, …`;
/// echoes each run's metric lines and writes `<out>/results.json`.
/// Returns whether every run was correct.
pub fn run_all(spec: &Spec, seed: u64, seconds: u64, trace: bool, runs: u64, out: &Path) -> bool {
    if let Err(e) = crate::gen::self_test() {
        eprintln!("ann-perf: self-test failed: {e}");
        return false;
    }
    let exe = std::env::current_exe().expect("path of this executable");
    let mut rows = Vec::new();
    let mut all_correct = true;
    for seed in seed..seed + runs {
        for workload in &spec.workloads {
            for traced in [false, true] {
                if traced && !trace {
                    continue;
                }
                let done = Command::new(&exe)
                    .args(["--workload", workload])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--out")
                    .arg(out)
                    .output()
                    .expect("running a workload process");
                let stdout = String::from_utf8_lossy(&done.stdout);
                let (body, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", ""));
                println!("{body}");
                let correct = JsonValue::parse(last)
                    .ok()
                    .and_then(|v| v.get("correct").and_then(JsonValue::as_bool))
                    .unwrap_or(false);
                if !correct || !done.status.success() {
                    all_correct = false;
                    eprintln!(
                        "ann-perf: {workload} seed {seed} trace {} did not end correct",
                        u8::from(traced)
                    );
                    eprint!("{}", String::from_utf8_lossy(&done.stderr));
                    continue;
                }
                rows.push(format!(
                    "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"result\":{last}}}",
                    u8::from(traced)
                ));
            }
        }
    }
    let doc = format!(
        "{{\"commit\":\"{}\",\"rustc\":\"{}\",\"host_cores\":{},\"threads\":{},\"seed\":{seed},\
         \"seconds\":{seconds},\"runs\":[\n{}\n]}}\n",
        probe("git", &["rev-parse", "HEAD"]),
        probe("rustc", &["-V"]),
        crate::host_cores(),
        crate::join_threads(),
        rows.join(",\n")
    );
    let path = out.join("results.json");
    match std::fs::write(&path, doc) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("ann-perf: writing {}: {e}", path.display());
            all_correct = false;
        }
    }
    all_correct
}

/// `(workload, metric)` → the values of every run in a results file.
type Table = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or(format!("{path}: no \"runs\" array"))?;
    let mut table = Table::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or(format!("{path}: run without a workload"))?;
        let Some(JsonValue::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path}: run without metrics"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or(format!("{path}: {name} has no value"))?;
            table
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(table)
}

/// `[q1, median, q3]` as Python's `statistics.quantiles(values, n=4)` gives
/// them; a single value is all three.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return [v[0]; 3];
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let rank = (i + 1) * (len + 1);
        let j = (rank / 4).clamp(1, len - 1);
        let delta = rank as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// One row per (workload, metric) in both files. Returns whether any
/// end-to-end metric got worse by more than its bound.
pub fn compare(spec: &Spec, base_path: &str, new_path: &str) -> Result<bool, String> {
    let base = load(base_path)?;
    let new = load(new_path)?;
    let mut regressed = false;
    println!(
        "{:<14} {:<34} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "base median",
        "base [q1, q3]",
        "new median",
        "new [q1, q3]",
        "delta",
        "bound"
    );
    for ((workload, metric), base_values) in &base {
        let (Some(new_values), Some(decl)) = (
            new.get(&(workload.clone(), metric.clone())),
            spec.decl(metric),
        ) else {
            continue;
        };
        let [bq1, bmed, bq3] = quartiles(base_values);
        let [nq1, nmed, nq3] = quartiles(new_values);
        let delta = if bmed == 0.0 {
            0.0
        } else {
            (nmed - bmed) / bmed
        };
        let worse = if decl.higher_is_better { -delta } else { delta };
        let sorted = |values: &[f64]| {
            let mut v = values.to_vec();
            v.sort_by(f64::total_cmp);
            v
        };
        let verdict = match decl.bound {
            // Both sets ran the same seeds, so a count that repeats exactly
            // gives the same values in both.
            None if sorted(base_values) == sorted(new_values) => "same",
            None => "",
            Some(bound) if bmed != 0.0 && (bq3 - bq1) / bmed > bound => "unresolved",
            Some(bound) if worse > bound => {
                regressed = true;
                "REGRESSION"
            }
            Some(_) => "ok",
        };
        println!(
            "{workload:<14} {metric:<34} {bmed:>12.4} {:>25} {nmed:>12.4} {:>25} {:>+7.2}% {:>6}  {verdict}",
            format!("[{bq1:.4}, {bq3:.4}]"),
            format!("[{nq1:.4}, {nq3:.4}]"),
            delta * 100.0,
            decl.bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    Ok(regressed)
}
