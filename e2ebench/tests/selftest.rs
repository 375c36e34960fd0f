//! Short-length self-test of the benchmark: every workload on two
//! seeds, each run twice. Counts and simulated statistics must repeat
//! exactly for a seed, every engine must match native on every lane,
//! and `BENCHMARK.json` must declare exactly the metrics the benchmark
//! prints.

use e2ebench::measure::{self, Options, Outcome};
use e2ebench::metrics::{self, MetricDef};
use e2ebench::workload;
use simtrace::json::{self, JsonValue};

fn short_run(w: &workload::Workload, seed: u64, trace: bool) -> Outcome {
    measure::run(
        w,
        Options {
            seed,
            seconds: 0.0,
            trace,
        },
    )
}

#[test]
fn every_workload_repeats_exactly_and_matches_native() {
    for w in workload::all() {
        let w = w.shortened(100, 2);
        let mut per_seed = Vec::new();
        for seed in [1, 2] {
            let a = short_run(&w, seed, false);
            let b = short_run(&w, seed, false);
            for out in [&a, &b] {
                assert_eq!(out.failed, 0, "{} seed {seed}: {:?}", w.name, out.failures);
                assert!(out.attempted > 0);
                assert!(out.reference.iter().all(Option::is_some), "{}", w.name);
            }
            assert_eq!(
                a.reference, b.reference,
                "{} seed {seed} must repeat",
                w.name
            );
            // One timed round: each whole-run rate is that round's rate.
            assert_eq!(a.whole_run.len(), 5, "{}", w.name);
            for (name, v) in &a.whole_run {
                assert_eq!(a.samples[name], [*v], "{} {name}", w.name);
            }
            per_seed.push(a.reference);
        }
        if w.be_load > 0.0 {
            assert_ne!(
                per_seed[0], per_seed[1],
                "{}: the seed must reach the stimuli",
                w.name
            );
        }
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let w = workload::by_name("fig1-6x6")
        .expect("workload exists")
        .shortened(100, 2);
    let a = short_run(&w, 3, true);
    let b = short_run(&w, 3, true);
    assert_eq!(a.failed, 0, "{:?}", a.failures);
    assert_eq!(a.reference, b.reference);
    let trace = a.trace.as_ref().expect("traced run keeps spans");
    assert!(json::validate(&trace.to_json()).is_ok());
    for m in metrics::per_layer() {
        assert!(a.samples.contains_key(&m.name), "{} missing", m.name);
    }
    for count in [
        "compile.ops",
        "batch.bitwise_ops",
        "compiled.deltas_per_cycle",
    ] {
        assert_eq!(a.samples[count], b.samples[count], "{count}");
    }
}

type Row = (String, String, String);

fn declared(doc: &JsonValue, key: &str) -> Vec<Row> {
    doc.get(key)
        .and_then(JsonValue::items)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn rows(catalog: Vec<MetricDef>) -> Vec<Row> {
    catalog
        .into_iter()
        .map(|m| (m.name, m.unit.to_string(), m.better.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
    let doc = json::parse(&text).expect("valid JSON");
    assert_eq!(declared(&doc, "end_to_end"), rows(metrics::end_to_end()));
    assert_eq!(declared(&doc, "per_layer"), rows(metrics::per_layer()));
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::items)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::str).expect("name"))
        .collect();
    assert_eq!(names, workload::DECLARED);
    for name in names {
        assert!(workload::by_name(name).is_some(), "{name} must exist");
    }
}
