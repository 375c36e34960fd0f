//! Result files, the result line, the host fingerprint and compare
//! mode.

use crate::measure::{Options, Outcome};
use crate::metrics::{self, MetricDef, Summary};
use crate::workload::Workload;
use simtrace::json::{self, write_f64, write_str, JsonValue};
use std::fmt::Write as _;
use std::path::Path;

/// Host, toolchain and source identity, stamped into every result
/// file.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Commit of the checkout, when it is a git repository.
    pub git_rev: Option<String>,
    /// Cargo build profile.
    pub profile: &'static str,
}

impl Host {
    /// Fingerprint this host; `root` is the checkout's root.
    pub fn detect(root: &Path) -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu_model,
            rustc: env!("E2EBENCH_RUSTC"),
            git_rev: git_rev(root),
            profile: env!("E2EBENCH_PROFILE"),
        }
    }
}

/// The commit `HEAD` names, read from the `.git` directory.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|rev| rev.trim().to_string()))
}

/// The unit of a reported metric: from the catalog, or seconds for the
/// per-kind self times of block kinds the catalog does not list.
fn unit_of(name: &str, catalog: &[MetricDef]) -> &'static str {
    catalog
        .iter()
        .find(|m| m.name == name)
        .map_or("s", |m| m.unit)
}

/// The value a metric is reported with: its whole-run value where it
/// has one, else the median of its samples.
fn value_of(out: &Outcome, name: &str, sum: &Summary) -> f64 {
    out.whole_run.get(name).copied().unwrap_or(sum.median)
}

/// Every metric's summary, by name.
fn summaries(out: &Outcome) -> Vec<(String, Summary)> {
    out.samples
        .iter()
        .filter_map(|(name, v)| Summary::of(v).map(|s| (name.clone(), s)))
        .collect()
}

/// The result file: run parameters, host, correctness, simulated
/// results and every metric's reported value, median, quartiles, sample
/// count and samples in round order.
pub fn result_file(w: &Workload, opts: Options, host: &Host, out: &Outcome) -> String {
    let catalog: Vec<MetricDef> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .collect();
    let mut s = String::from("{\"schema\":\"e2ebench/1\",\"workload\":");
    write_str(&mut s, w.name);
    let _ = write!(
        s,
        ",\"seed\":{},\"seconds\":{},\"trace\":{},\"lanes\":{},\"rounds\":{}",
        opts.seed, opts.seconds, opts.trace, w.lanes, out.rounds
    );
    s.push_str(",\n\"host\":{\"nproc\":");
    let _ = write!(s, "{},\"cpu_model\":", host.nproc);
    write_str(&mut s, &host.cpu_model);
    s.push_str(",\"rustc\":");
    write_str(&mut s, host.rustc);
    s.push_str(",\"git_rev\":");
    match &host.git_rev {
        Some(r) => write_str(&mut s, r),
        None => s.push_str("null"),
    }
    s.push_str(",\"profile\":");
    write_str(&mut s, host.profile);
    let _ = write!(
        s,
        "}},\n\"attempted\":{},\"failed\":{},\"failed_frac\":",
        out.attempted, out.failed
    );
    write_f64(&mut s, out.failed as f64 / out.attempted.max(1) as f64);
    s.push_str(",\"failures\":[");
    for (i, f) in out.failures.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_str(&mut s, f);
    }
    s.push_str("],\n\"simulated\":{\"validated_against_hardware\":false,\"lanes\":[");
    for (lane, r) in out.reference.iter().enumerate() {
        if lane > 0 {
            s.push(',');
        }
        let _ = write!(s, "\n{{\"seed\":{}", opts.seed.wrapping_add(lane as u64));
        if let Some(r) = r {
            let (gt_n, gt_mean) = r.gt();
            let (be_n, be_mean) = r.be();
            let _ = write!(
                s,
                ",\"cycles\":{},\"flits_offered\":{},\"packets_delivered\":{},\"gt_packets\":{gt_n},\"gt_mean\":",
                r.cycles, r.throughput.offered_flits, r.throughput.delivered_packets
            );
            write_f64(&mut s, gt_mean);
            let _ = write!(s, ",\"be_packets\":{be_n},\"be_mean\":");
            write_f64(&mut s, be_mean);
        }
        s.push('}');
    }
    s.push_str("]},\n\"metrics\":{");
    for (i, (name, sum)) in summaries(out).iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('\n');
        write_str(&mut s, name);
        s.push_str(":{\"unit\":");
        write_str(&mut s, unit_of(name, &catalog));
        let value = value_of(out, name, sum);
        for (key, v) in [
            ("value", value),
            ("median", sum.median),
            ("q1", sum.q1),
            ("q3", sum.q3),
        ] {
            let _ = write!(s, ",\"{key}\":");
            write_f64(&mut s, v);
        }
        let _ = write!(s, ",\"n\":{},\"samples\":[", sum.n);
        for (i, v) in out.samples[name].iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write_f64(&mut s, *v);
        }
        s.push_str("]}");
    }
    s.push_str("\n}}\n");
    s
}

/// The result line: exactly the declared metrics of this kind of run,
/// each with its reported value. A run is correct when no lane-run
/// failed and every declared metric was measured.
pub fn result_line(declared: &[MetricDef], out: &Outcome) -> String {
    let sums = summaries(out);
    let measured = declared
        .iter()
        .all(|m| sums.iter().any(|(n, _)| *n == m.name));
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.failed == 0 && out.attempted > 0 && measured,
        out.attempted,
        out.failed
    );
    for (i, m) in declared.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let value = sums
            .iter()
            .find(|(n, _)| *n == m.name)
            .map_or(0.0, |(name, sum)| value_of(out, name, sum));
        write_str(&mut s, &m.name);
        s.push_str(":{\"value\":");
        write_f64(&mut s, value);
        s.push_str(",\"unit\":");
        write_str(&mut s, m.unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if v.get("schema").and_then(JsonValue::str) != Some("e2ebench/1") {
        return Err(format!("{}: not an e2ebench result file", path.display()));
    }
    Ok(v)
}

/// Compare mode: every metric of two result files side by side — both
/// reported values with the per-round quartiles and sample counts, and
/// the ratio new/base of the reported values.
pub fn compare(base: &Path, new: &Path) -> Result<String, String> {
    let (b, n) = (load(base)?, load(new)?);
    let field =
        |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::str).unwrap_or("?").to_string();
    let mut s = String::new();
    for (label, v, p) in [("base", &b, base), ("new", &n, new)] {
        let host = v.get("host");
        let _ = writeln!(
            s,
            "{label}: {} | workload {} seed {} trace {} | {} CPUs, {} | {} | rev {}",
            p.display(),
            field(v, "workload"),
            v.get("seed").and_then(JsonValue::u64).unwrap_or(0),
            v.get("trace").and_then(JsonValue::bool).unwrap_or(false),
            host.and_then(|h| h.get("nproc"))
                .and_then(JsonValue::u64)
                .unwrap_or(0),
            host.map_or("?".into(), |h| field(h, "cpu_model")),
            host.map_or("?".into(), |h| field(h, "rustc")),
            host.map_or("?".into(), |h| field(h, "git_rev")),
        );
    }
    if field(&b, "workload") != field(&n, "workload") {
        let _ = writeln!(s, "warning: the files measure different workloads");
    }
    let _ = writeln!(
        s,
        "\n{:<34} {:>14} {:>36} {:>36} {:>9}",
        "metric", "unit", "base value [q1, q3] n", "new value [q1, q3] n", "new/base"
    );
    let metrics_of = |v: &JsonValue| match v.get("metrics") {
        Some(JsonValue::Obj(m)) => m.clone(),
        _ => Vec::new(),
    };
    let (bm, nm) = (metrics_of(&b), metrics_of(&n));
    let mut names: Vec<&String> = bm.iter().map(|(k, _)| k).collect();
    names.extend(
        nm.iter()
            .map(|(k, _)| k)
            .filter(|k| bm.iter().all(|(b, _)| b != *k)),
    );
    let cell = |m: Option<&JsonValue>| match m {
        Some(m) => {
            let g = |k: &str| m.get(k).and_then(JsonValue::num).unwrap_or(f64::NAN);
            format!(
                "{:.4e} [{:.3e}, {:.3e}] n={}",
                g("value"),
                g("q1"),
                g("q3"),
                g("n")
            )
        }
        None => "-".into(),
    };
    for name in names {
        let bv = bm.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let nv = nm.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let unit = bv.or(nv).map_or("?".into(), |m| field(m, "unit"));
        let value = |m: Option<&JsonValue>| m.and_then(|m| m.get("value")).and_then(JsonValue::num);
        let ratio = match (value(bv), value(nv)) {
            (Some(x), Some(y)) if x != 0.0 => format!("{:.4}", y / x),
            _ => "-".into(),
        };
        let _ = writeln!(
            s,
            "{name:<34} {unit:>14} {:>36} {:>36} {ratio:>9}",
            cell(bv),
            cell(nv)
        );
    }
    Ok(s)
}
