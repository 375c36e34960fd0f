//! The metric catalog and the summary statistics every metric is
//! reported with.
//!
//! The catalog is the single list of names, units and directions;
//! `BENCHMARK.json` must declare exactly the same sets (the self-test
//! checks it).

use crate::workload::Engine;

/// One reported metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The rate unit of an engine: the batched engine's rate aggregates its
/// lanes.
fn rate_unit(e: Engine) -> &'static str {
    if e.batched() {
        "lane-cycles/s"
    } else {
        "cycles/s"
    }
}

/// Runner phases as `RunReport::profile` names them.
pub const PHASES: [&str; 5] = ["generate", "load", "simulate", "retrieve", "analyse"];

/// Build stages timed on the workload's spec in the traced run.
pub const STAGES: [&str; 5] = [
    "spec.assemble_s",
    "speccheck.analyze_s",
    "speccheck.bitflow_s",
    "compile.program_s",
    "batch.lower_s",
];

/// The block kind the kernel profiler attributes self time to (every
/// block of the default NoC build is a router).
pub const ROUTER_KIND: &str = "vc-router";

/// Metrics of an untraced run (`--trace 0`).
pub fn end_to_end() -> Vec<MetricDef> {
    let mut v = vec![def("setup_s", "s", "lower")];
    for e in Engine::ALL {
        v.push(def(
            format!("{}.cycles_per_s", e.id()),
            rate_unit(e),
            "higher",
        ));
    }
    v.push(def("peak_rss_mb", "MB", "lower"));
    v
}

/// Metrics of a traced run (`--trace 1`).
pub fn per_layer() -> Vec<MetricDef> {
    let mut v: Vec<MetricDef> = STAGES.iter().map(|s| def(*s, "s", "lower")).collect();
    v.push(def("compile.ops", "count", "lower"));
    v.push(def("batch.bitwise_ops", "count", "higher"));
    for e in Engine::ALL {
        let p = e.id();
        v.push(def(format!("{p}.build_s"), "s", "lower"));
        for phase in PHASES {
            v.push(def(format!("{p}.{phase}_s"), "s", "lower"));
        }
        v.push(def(format!("{p}.other_s"), "s", "lower"));
        v.push(def(format!("{p}.sim_cycles_per_s"), rate_unit(e), "higher"));
        if e.has_kernel() {
            v.push(def(format!("{p}.deltas_per_cycle"), "count", "lower"));
            v.push(def(format!("{p}.reeval_frac"), "ratio", "lower"));
            v.push(def(format!("{p}.evals_per_cycle"), "count", "lower"));
            v.push(def(format!("{p}.self_s.{ROUTER_KIND}"), "s", "lower"));
        }
        v.push(def(format!("{p}.coverage"), "ratio", "higher"));
        v.push(def(format!("{p}.trace_overhead"), "ratio", "lower"));
    }
    v.push(def("traffic.flits_offered", "count", "higher"));
    v.push(def("traffic.packets_delivered", "count", "higher"));
    v.push(def("sim.gt_latency_mean", "cycles", "lower"));
    v.push(def("sim.be_latency_mean", "cycles", "lower"));
    v.push(def("failed_frac", "ratio", "lower"));
    v
}

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarise `samples`; quartiles use the exclusive method of
    /// Python's `statistics.quantiles(values, n=4)`. `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n == 1 {
            return Some(Summary {
                median,
                q1: median,
                q3: median,
                n,
            });
        }
        let quartile = |i: usize| {
            let m = (n + 1) * i;
            let j = (m / 4).clamp(1, n - 1);
            let delta = m as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
