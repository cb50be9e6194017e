//! The benchmark's declaration, read from the `BENCHMARK.json` embedded at
//! build time, so metric names, units, directions and bounds have one source.

use ann_core::wire::JsonValue;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the base median; `None` for per-layer
    /// metrics, which gate nothing.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| -> Vec<JsonValue> {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing array {key:?}"))
                .to_vec()
        };
        let text = |v: &JsonValue, key: &str| -> String {
            v.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing string {key:?}"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricDecl> {
            list(key)
                .iter()
                .map(|m| MetricDecl {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
                .collect()
        };
        Spec {
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_u64)
                .expect("BENCHMARK.json: run_seconds"),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    pub fn decl(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
