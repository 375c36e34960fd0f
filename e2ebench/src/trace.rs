//! In-memory spans for the traced run, written out when the benchmark
//! ends.
//!
//! One span wraps each public call the benchmark makes into a layer
//! (`SimBuilder::session`, `Session::run`, the build stages). The runner
//! interleaves its five phases every period and reports only their
//! totals (`RunReport::profile`), so each phase becomes one *synthetic*
//! child of its `Session::run` span: laid end to end from the parent's
//! start, with the phase's total as its length.

use simtrace::json::{write_f64, write_str};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the trace origin.
#[derive(Debug, Clone)]
struct Span {
    /// Layer call, e.g. `noc::Session::run`.
    name: String,
    /// Start offset.
    start_ns: u64,
    /// End offset.
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Laid out from a reported total rather than timed directly.
    synthetic: bool,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let start_ns = self.offset(Instant::now());
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
            synthetic: false,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now and return its duration.
    pub fn close(&mut self, id: usize) -> Duration {
        let end_ns = self.offset(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        Duration::from_nanos(end_ns - span.start_ns)
    }

    /// Time `f` as a span under `parent`.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Lay `parts` end to end as synthetic children of `parent`.
    pub fn lay_out(&mut self, parent: usize, parts: &[(&str, Duration)]) {
        let mut at = self.spans[parent].start_ns;
        for (name, d) in parts {
            let end = at + d.as_nanos() as u64;
            self.spans.push(Span {
                name: (*name).to_string(),
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
                synthetic: true,
            });
            at = end;
        }
    }

    /// Self time of every span: its length minus what its children
    /// cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n{{\"id\":{id},\"name\":");
            write_str(&mut out, &s.name);
            let _ = write!(out, ",\"start_s\":");
            write_f64(&mut out, s.start_ns as f64 * 1e-9);
            out.push_str(",\"end_s\":");
            write_f64(&mut out, s.end_ns as f64 * 1e-9);
            out.push_str(",\"self_s\":");
            write_f64(&mut out, own[id] as f64 * 1e-9);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, ",\"parent\":{p}");
                }
                None => out.push_str(",\"parent\":null"),
            }
            let _ = write!(out, ",\"synthetic\":{}}}", s.synthetic);
        }
        out.push_str("\n]");
        out
    }
}
