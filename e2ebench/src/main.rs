//! ```text
//! e2ebench --workload NAME --seed N --seconds S --trace 0|1
//! e2ebench --compare BASE.json NEW.json
//! ```
//!
//! A run measures one workload for `S` seconds and prints one JSON
//! object as its last line of standard output: `correct`, `attempted`,
//! `failed` and the values of the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). It also writes a result file
//! with quartiles, sample counts, the host fingerprint and the
//! simulated results to `out/` beside this crate, and for traced runs
//! the spans. Compare mode prints two result files side by side.

use e2ebench::measure::{self, Options};
use e2ebench::{metrics, report, workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
    format!(
        "usage: e2ebench --workload {{{}}} --seed N --seconds S --trace 0|1\n       \
         e2ebench --compare BASE.json NEW.json",
        names.join("|")
    )
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let i = args
        .iter()
        .position(|a| a == name)
        .ok_or_else(|| format!("missing {name}"))?;
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{name} needs a value"))
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name)?;
    v.parse().map_err(|_| format!("{name}: cannot parse {v:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if let Some(i) = args.iter().position(|a| a == "--compare") {
        match (args.get(i + 1), args.get(i + 2)) {
            (Some(base), Some(new)) => {
                report::compare(Path::new(base), Path::new(new)).map(|s| print!("{s}"))
            }
            _ => Err("--compare needs two result files".into()),
        }
    } else {
        bench(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

fn bench(args: &[String]) -> Result<(), String> {
    let name = flag(args, "--workload")?;
    let w = workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let trace = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    let seconds: f64 = parse(args, "--seconds")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a finite number >= 0, not {seconds}"
        ));
    }
    let opts = Options {
        seed: parse(args, "--seed")?,
        seconds,
        trace,
    };
    let crate_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let host = report::Host::detect(crate_dir.parent().unwrap_or(&crate_dir));

    let out = measure::run(&w, opts);
    let dir = crate_dir.join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}-trace{}", w.name, opts.seed, u8::from(trace));
    let file = dir.join(format!("{stem}.json"));
    std::fs::write(&file, report::result_file(&w, opts, &host, &out))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    if let Some(t) = &out.trace {
        let spans = dir.join(format!("{stem}.spans.json"));
        std::fs::write(&spans, t.to_json()).map_err(|e| format!("{}: {e}", spans.display()))?;
    }
    for f in &out.failures {
        eprintln!("e2ebench: FAILED {f}");
    }
    eprintln!(
        "e2ebench: {} rounds, result file {}",
        out.rounds,
        file.display()
    );
    let declared = if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    println!("{}", report::result_line(&declared, &out));
    Ok(())
}
