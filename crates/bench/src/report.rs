//! Table formatting and JSON dumping for experiment results.

use crate::harness::Measurement;
use ann_core::wire::JsonValue;
use std::path::Path;

/// A value that becomes one JSON value in a report file.
pub trait ToJson {
    /// The value as JSON.
    fn to_json(&self) -> JsonValue;
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Num(*self)
    }
}

macro_rules! int_to_json {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> JsonValue {
                JsonValue::Int(*self as u64)
            }
        }
    )+};
}
int_to_json!(u64, usize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(T::to_json).collect())
    }
}

/// Implements [`ToJson`] for a struct as an object of the listed fields,
/// in the listed order, keyed by field name. The list must name every
/// field: the destructuring pattern has no `..`, so a field added to the
/// struct and forgotten here is a compile error.
macro_rules! json_fields {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::report::ToJson for $ty {
            fn to_json(&self) -> ann_core::wire::JsonValue {
                let $ty { $($field),+ } = self;
                ann_core::wire::JsonValue::Obj(vec![
                    $((stringify!($field).to_string(), $crate::report::ToJson::to_json($field))),+
                ])
            }
        }
    };
}
pub(crate) use json_fields;

/// A regenerated figure or `BENCH_*` study: a text table for the
/// terminal and a JSON document for `results/`.
pub trait Report: ToJson {
    /// Output id — also the JSON file stem.
    fn id(&self) -> &str;

    /// Renders the report as an aligned text table.
    fn render(&self) -> String;

    /// Writes the report as JSON under `dir/<id>.json` (for EXPERIMENTS.md
    /// bookkeeping). Creates the directory when missing.
    fn write_json(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id()));
        std::fs::write(path, self.to_json().to_string())
    }
}

/// A complete regenerated figure: its id, workload description, and rows.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Paper figure id (e.g. `"fig3a"`).
    pub id: String,
    /// Human description of the workload.
    pub workload: String,
    /// One measurement per bar/series point; `group` labels the x-position
    /// (e.g. buffer size, dimensionality, k).
    pub rows: Vec<FigureRow>,
}

json_fields!(Figure { id, workload, rows });

/// One bar / series point.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// X-axis group (dataset, buffer size, dimensionality, k, ...).
    pub group: String,
    /// The measurement; its fields sit beside `group` in the JSON row.
    pub measurement: Measurement,
}

impl ToJson for FigureRow {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![("group".to_string(), self.group.to_json())];
        if let JsonValue::Obj(measurement) = self.measurement.to_json() {
            fields.extend(measurement);
        }
        JsonValue::Obj(fields)
    }
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(id: &str, workload: &str) -> Self {
        Figure {
            id: id.to_string(),
            workload: workload.to_string(),
            rows: Vec::new(),
        }
    }

    /// Adds one measurement under an x-axis group.
    pub fn push(&mut self, group: &str, m: Measurement) {
        self.rows.push(FigureRow {
            group: group.to_string(),
            measurement: m,
        });
    }
}

impl Report for Figure {
    fn id(&self) -> &str {
        &self.id
    }

    /// The same rows/series the paper plots.
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.workload));
        out.push_str(&format!(
            "{:<16} {:<18} {:>9} {:>9} {:>9} {:>10} {:>12} {:>10}\n",
            "group", "method", "cpu(s)", "io(s)", "total(s)", "pages", "dist-comps", "enqueued"
        ));
        for row in &self.rows {
            let m = &row.measurement;
            out.push_str(&format!(
                "{:<16} {:<18} {:>9.3} {:>9.3} {:>9.3} {:>10} {:>12} {:>10}\n",
                row.group,
                m.label,
                m.cpu_seconds,
                m.io_seconds,
                m.total_seconds(),
                m.physical_pages,
                m.distance_computations,
                m.enqueued,
            ));
        }
        out
    }
}

/// One row of the resilience-overhead study (`BENCH_robustness`).
#[derive(Clone, Debug)]
pub struct RobustnessRow {
    /// Algorithm variant measured (e.g. `"mba"`, `"mba-2t"`, `"bnn"`).
    pub algorithm: String,
    /// Points per side of the self-join.
    pub n: usize,
    /// Timed repetitions each figure is averaged over.
    pub runs: usize,
    /// Seconds per run through the unified entrypoint with no resilience
    /// limits configured (the guard reduces to one branch per expansion).
    pub baseline_seconds: f64,
    /// Seconds per run with every resilience feature armed but
    /// non-firing: a live cancel token, a far deadline, generous visit
    /// and I/O budgets, and a per-request retry override.
    pub armed_seconds: f64,
    /// `(armed_seconds / baseline_seconds - 1) * 100`.
    pub overhead_percent: f64,
    /// Whether the armed run's results and work counters (I/O block
    /// excluded) matched the baseline exactly (must always be `true`).
    pub decision_identical: bool,
}

json_fields!(RobustnessRow {
    algorithm,
    n,
    runs,
    baseline_seconds,
    armed_seconds,
    overhead_percent,
    decision_identical,
});

/// The resilience fault-free-overhead figure: every pool-backed variant
/// (plus HNN) through the unified entrypoint, ungoverned vs fully armed,
/// on the same warm indexes. Emitted as `BENCH_robustness.json`.
#[derive(Clone, Debug)]
pub struct RobustnessReport {
    /// Output id (`BENCH_robustness` — also the JSON file stem).
    pub id: String,
    /// Human description of the workload.
    pub workload: String,
    /// Largest `overhead_percent` across the rows (the gated headline).
    pub max_overhead_percent: f64,
    /// One row per algorithm variant.
    pub rows: Vec<RobustnessRow>,
}

json_fields!(RobustnessReport {
    id,
    workload,
    max_overhead_percent,
    rows
});

impl Report for RobustnessReport {
    fn id(&self) -> &str {
        &self.id
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.workload));
        out.push_str(&format!(
            "{:<8} {:>8} {:>5} {:>12} {:>12} {:>10} {:>10}\n",
            "variant", "n", "runs", "baseline(s)", "armed(s)", "overhead", "decisions"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<8} {:>8} {:>5} {:>12.6} {:>12.6} {:>9.2}% {:>10}\n",
                r.algorithm,
                r.n,
                r.runs,
                r.baseline_seconds,
                r.armed_seconds,
                r.overhead_percent,
                if r.decision_identical { "ok" } else { "DIFF" },
            ));
        }
        out.push_str(&format!(
            "max overhead: {:.2}%\n",
            self.max_overhead_percent
        ));
        out
    }
}

/// One cell of the out-of-core sweep (`BENCH_outofcore`): an MBA
/// self-join over two streamed-built MBRQT trees on a [`FileDisk`],
/// cold pool, with the prefetcher off or on.
///
/// [`FileDisk`]: ann_store::FileDisk
#[derive(Clone, Debug)]
pub struct OutofcoreRow {
    /// Points per side of the self-join.
    pub points: usize,
    /// Buffer-pool frames during the query phase.
    pub pool_pages: usize,
    /// Pages the two trees occupy on disk (≥ 10× `pool_pages` on the
    /// gated cold cell).
    pub dataset_pages: u64,
    /// Whether the pipelined leaf prefetcher was enabled.
    pub prefetch: bool,
    /// Streaming (external) build time for both trees, seconds.
    pub build_seconds: f64,
    /// Query-phase wall clock, seconds.
    pub wall_seconds: f64,
    /// Logical page reads during the query phase (must be identical
    /// prefetch-on vs prefetch-off).
    pub logical_reads: u64,
    /// Physical page reads during the query phase (prefetch batches
    /// these; demand faults shrink accordingly).
    pub physical_reads: u64,
    /// Pages the prefetcher read ahead of demand.
    pub prefetch_issued: u64,
    /// Prefetched frames later claimed by a demand access.
    pub prefetch_hits: u64,
    /// Prefetched frames evicted before any demand access claimed them.
    pub prefetch_wasted: u64,
    /// `prefetch_hits / prefetch_issued` (0 when nothing was issued).
    pub prefetch_hit_rate: f64,
    /// Result pairs produced.
    pub result_pairs: usize,
    /// Whether this row's sorted results and logical read count matched
    /// its prefetch-off twin exactly (trivially `true` on the off rows;
    /// must always be `true`).
    pub identical_to_baseline: bool,
}

json_fields!(OutofcoreRow {
    points,
    pool_pages,
    dataset_pages,
    prefetch,
    build_seconds,
    wall_seconds,
    logical_reads,
    physical_reads,
    prefetch_issued,
    prefetch_hits,
    prefetch_wasted,
    prefetch_hit_rate,
    result_pairs,
    identical_to_baseline,
});

/// The ≥10⁷-point external-build validation row of `BENCH_outofcore`.
#[derive(Clone, Debug)]
pub struct OutofcoreCensus {
    /// Points streamed through the external build.
    pub points: usize,
    /// Sorter run budget (records held in memory at once).
    pub run_budget: usize,
    /// Streaming build wall clock, seconds.
    pub build_seconds: f64,
    /// [`validate`](ann_core::index::validate) wall clock, seconds.
    pub validate_seconds: f64,
    /// Full-census wall clock, seconds.
    pub census_seconds: f64,
    /// Objects the validated tree reported.
    pub objects: u64,
    /// Whether every input oid came back from the census exactly once.
    pub census_complete: bool,
}

json_fields!(OutofcoreCensus {
    points,
    run_budget,
    build_seconds,
    validate_seconds,
    census_seconds,
    objects,
    census_complete,
});

/// The out-of-core figure: streaming external builds plus the
/// prefetch-off vs prefetch-on cold query sweep. Emitted as
/// `BENCH_outofcore.json`.
#[derive(Clone, Debug)]
pub struct OutofcoreReport {
    /// Output id (`BENCH_outofcore` — also the JSON file stem).
    pub id: String,
    /// Human description of the workload.
    pub workload: String,
    /// Dataset seed (reproducibility).
    pub seed: u64,
    /// One row per (points, pool pages, prefetch) cell.
    pub rows: Vec<OutofcoreRow>,
    /// The large-scale external-build validation.
    pub census: OutofcoreCensus,
}

json_fields!(OutofcoreReport {
    id,
    workload,
    seed,
    rows,
    census
});

impl Report for OutofcoreReport {
    fn id(&self) -> &str {
        &self.id
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.workload));
        out.push_str(&format!(
            "{:<9} {:>6} {:>8} {:>8} {:>9} {:>9} {:>9} {:>8} {:>7} {:>7} {:>8} {:>9}\n",
            "points",
            "pool",
            "ds-pages",
            "prefetch",
            "build(s)",
            "wall(s)",
            "logical",
            "physical",
            "issued",
            "hits",
            "hit-rate",
            "identical"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<9} {:>6} {:>8} {:>8} {:>9.3} {:>9.3} {:>9} {:>8} {:>7} {:>7} {:>7.1}% {:>9}\n",
                r.points,
                r.pool_pages,
                r.dataset_pages,
                if r.prefetch { "on" } else { "off" },
                r.build_seconds,
                r.wall_seconds,
                r.logical_reads,
                r.physical_reads,
                r.prefetch_issued,
                r.prefetch_hits,
                r.prefetch_hit_rate * 100.0,
                if r.identical_to_baseline {
                    "ok"
                } else {
                    "DIFF"
                },
            ));
        }
        let c = &self.census;
        out.push_str(&format!(
            "census: {} points, run budget {}, build {:.1}s, validate {:.1}s, \
             census {:.1}s, {} objects, complete: {}\n",
            c.points,
            c.run_budget,
            c.build_seconds,
            c.validate_seconds,
            c.census_seconds,
            c.objects,
            if c.census_complete {
                "ok"
            } else {
                "INCOMPLETE"
            },
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_measurement(label: &str) -> Measurement {
        Measurement {
            label: label.to_string(),
            cpu_seconds: 1.25,
            physical_pages: 100,
            io_seconds: 1.0,
            logical_reads: 1000,
            result_pairs: 42,
            distance_computations: 9000,
            enqueued: 300,
            build_seconds: 0.5,
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let mut fig = Figure::new("figX", "test workload");
        fig.push("g1", sample_measurement("MBA NXNDIST"));
        fig.push("g2", sample_measurement("GORDER"));
        let text = fig.render();
        assert!(text.contains("figX"));
        assert!(text.contains("MBA NXNDIST"));
        assert!(text.contains("GORDER"));
        assert!(text.contains("2.250")); // total = cpu + io
        assert_eq!(text.lines().count(), 2 + 2); // header x2 + 2 rows
    }

    #[test]
    fn json_round_trip() {
        let dir = std::env::temp_dir().join(format!("ann-bench-test-{}", std::process::id()));
        let mut fig = Figure::new("figY", "json test");
        fig.push("g", sample_measurement("BNN MAXMAXDIST"));
        fig.write_json(&dir).unwrap();
        let body = std::fs::read_to_string(dir.join("figY.json")).unwrap();
        let parsed = JsonValue::parse(&body).unwrap();
        assert_eq!(parsed.get("id").and_then(JsonValue::as_str), Some("figY"));
        let row = &parsed.get("rows").and_then(JsonValue::as_arr).unwrap()[0];
        assert_eq!(row.get("group").and_then(JsonValue::as_str), Some("g"));
        assert_eq!(
            row.get("label").and_then(JsonValue::as_str),
            Some("BNN MAXMAXDIST")
        );
        std::fs::remove_dir_all(&dir).ok();

        // Same keys, in the same order, as the committed figure artifacts.
        let keys = |v: &JsonValue| match v {
            JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        };
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/fig3a.json");
        let committed = JsonValue::parse(&std::fs::read_to_string(committed).unwrap()).unwrap();
        let committed_row = &committed.get("rows").and_then(JsonValue::as_arr).unwrap()[0];
        assert_eq!(keys(&parsed), keys(&committed));
        assert_eq!(keys(row), keys(committed_row));
    }
}
