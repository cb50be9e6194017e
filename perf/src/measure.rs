//! Sample statistics, process memory, and the metric table a run reports.

use crate::spec::MetricDecl;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` of `xs`, printed only when at least ten
/// samples lie beyond it; fewer cannot place a tail.
pub fn tail(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    let rank = (q * n as f64).ceil() as usize;
    if n < rank + 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank.max(1) - 1])
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What the calibration kernel takes, in ms, on the host a corrected time is
/// quoted for: this sandbox with its neighbours quiet. A constant, so it only
/// fixes the scale of corrected times.
const CALIBRATION_NOMINAL_MS: f64 = 12.5;

/// Times single-threaded work with the host's speed taken out.
///
/// This sandbox's cores switch, every few seconds and each on its own,
/// between speeds ~28 % apart as other tenants come and go (an identical join
/// took 835 or 1 050 ms; the calibration kernel 12.5 or 15.9 ms, correlation
/// 0.92 over 98 joins). The kernel runs before and after each timed piece of
/// work on the same thread, and the wall time is scaled to what it would be
/// on a host where the kernel takes [`CALIBRATION_NOMINAL_MS`]. That took
/// the run-to-run spread of a join's time from 10 % to under 4 %. Only work
/// this thread computes itself can be corrected; served requests are not.
pub struct HostSpeed {
    points: Vec<[f64; 2]>,
    last_ms: f64,
}

impl HostSpeed {
    pub fn new() -> Self {
        let points = (0..4096u32)
            .map(|i| [f64::from(i * 7919 % 4096), f64::from(i * 104_729 % 4096)])
            .collect();
        let mut host = HostSpeed {
            points,
            last_ms: 0.0,
        };
        host.last_ms = host.calibrate();
        host
    }

    /// The calibration kernel, a fixed piece of floating-point work (the
    /// nearest neighbour of each of 4 096 points by exhaustive search): how
    /// fast this thread's core runs right now, in ms (12 to 16 here).
    fn calibrate(&self) -> f64 {
        let points = black_box(&self.points);
        let t = Instant::now();
        let mut acc = 0.0;
        for q in points {
            let mut best = f64::INFINITY;
            for p in points {
                let (dx, dy) = (q[0] - p[0], q[1] - p[1]);
                let d = dx * dx + dy * dy;
                if d > 0.0 && d < best {
                    best = d;
                }
            }
            acc += best;
        }
        black_box(acc);
        ms(t.elapsed())
    }

    /// Runs `f`; returns its result, its wall time and its corrected time.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Duration, Duration) {
        let before = self.last_ms;
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed();
        self.last_ms = self.calibrate();
        let factor = CALIBRATION_NOMINAL_MS / ((before + self.last_ms) / 2.0);
        (out, wall, wall.mul_f64(factor))
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run reports: metric values by name, with the sample count
/// behind each where it is a statistic of samples.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons a check failed; non-empty means `correct: false`.
    pub errors: Vec<String>,
    values: BTreeMap<String, (f64, Option<usize>)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), (value, None));
    }

    pub fn set_n(&mut self, name: &str, value: f64, samples: usize) {
        self.values.insert(name.to_string(), (value, Some(samples)));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.errors.push(why.into());
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// One `metric <name> <unit> <value> [n=<samples>]` line per declared
    /// metric. A per-layer metric this workload does not reach reads 0; an
    /// end-to-end metric must have been measured, every value must be finite,
    /// and nothing undeclared may be reported.
    pub fn print(&mut self, decls: &[MetricDecl], required: bool) {
        let mut wrong = Vec::new();
        for (name, (v, _)) in &mut self.values {
            if !decls.iter().any(|d| &d.name == name) {
                wrong.push(format!("metric {name} is not declared in BENCHMARK.json"));
            } else if !v.is_finite() {
                wrong.push(format!("metric {name} is not a finite number: {v}"));
                *v = 0.0;
            }
        }
        for d in decls {
            match self.values.get(&d.name) {
                Some((v, n)) => {
                    let n = n.map_or(String::new(), |n| format!(" n={n}"));
                    println!("metric {} {} {}{}", d.name, d.unit, v, n);
                }
                None if required => wrong.push(format!("metric {} was not measured", d.name)),
                None => println!("metric {} {} 0", d.name, d.unit),
            }
        }
        self.errors.extend(wrong);
    }

    /// The result object the driver reads from the last line of stdout.
    pub fn to_json(&self, decls: &[MetricDecl]) -> String {
        let metrics: Vec<String> = decls
            .iter()
            .map(|d| {
                let v = self.get(&d.name).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, v, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
