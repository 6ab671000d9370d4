//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions and regression bounds are written down. The binary emits
//! exactly the names listed there (`tests.rs` pins both directions).

use std::sync::OnceLock;

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Spec {
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Json, key: &str) -> Vec<Metric> {
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key}: missing {k}"))
            .to_string()
    };
    doc.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
        .as_arr()
        .iter()
        .map(|m| Metric {
            name: field(m, "name"),
            unit: field(m, "unit"),
            higher_is_better: field(m, "better") == "higher",
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// The parsed `BENCHMARK.json`.
///
/// # Panics
///
/// Panics if the compiled-in document is malformed — a build-time input,
/// so a bug in this repository rather than a runtime condition.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let text = |j: &Json, k: &str| {
            j.get(k).and_then(Json::as_str).expect("workload name/why").to_string()
        };
        Spec {
            run_seconds: doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds"),
            workloads: doc
                .get("workloads")
                .expect("workloads")
                .as_arr()
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    })
}
