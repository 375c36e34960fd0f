//! Rounds of timed runs: every engine simulates every lane seed of the
//! workload once per round, engines interleaved so that host-speed
//! drift hits them alike.
//!
//! Each engine's results are checked against the native golden model's
//! on the same lane seed. An untraced run reports the end-to-end metrics;
//! a traced run pairs each engine's untraced turn with a traced one
//! (profiler attached, spans recorded) and reports the per-layer
//! metrics and the tracing overhead.

use crate::metrics::{PHASES, ROUTER_KIND};
use crate::trace::Trace;
use crate::workload::{Engine, Workload};
use soc_sim::noc::{RunReport, SeqNoc, Session, SimError};
use soc_sim::seqsim::{BatchedProgram, CompileOptions, CompiledProgram};
use soc_sim::stats::{LatencySummary, ThroughputCounter};
use soc_sim::vc_router::IfaceConfig;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;
use std::time::{Duration, Instant};

/// The kernel profiler times every this-many-th cycle in traced runs.
const PROFILE_SAMPLE_EVERY: u64 = 16;

/// At most this many failure descriptions are kept.
const MAX_FAILURE_NOTES: usize = 20;

/// What one benchmark run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed; lane `i` uses `seed + i`.
    pub seed: u64,
    /// Measuring time, finite and >= 0; rounds start while the next one
    /// is expected to end within it (at least one round always runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// The simulated outcome of one lane, compared bit for bit across
/// engines: cycles, verdicts, traffic counters and the latency
/// summaries (means by their bits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// System cycles simulated.
    pub cycles: u64,
    /// Saturation verdict.
    pub saturated: bool,
    /// Offered packets never delivered.
    pub unmatched: usize,
    /// Traffic volumes.
    pub throughput: ThroughputCounter,
    /// GT, BE and access-delay summaries.
    latency: [[u64; 7]; 3],
}

fn latency_words(s: &LatencySummary) -> [u64; 7] {
    [s.count, s.mean.to_bits(), s.min, s.max, s.p50, s.p90, s.p99]
}

impl SimResult {
    /// The comparable part of `r`.
    pub fn of(r: &RunReport) -> Self {
        SimResult {
            cycles: r.cycles,
            saturated: r.saturated,
            unmatched: r.unmatched,
            throughput: r.throughput,
            latency: [
                latency_words(&r.gt),
                latency_words(&r.be),
                latency_words(&r.access),
            ],
        }
    }

    /// GT packets measured and their mean latency (cycles).
    pub fn gt(&self) -> (u64, f64) {
        (self.latency[0][0], f64::from_bits(self.latency[0][1]))
    }

    /// BE packets measured and their mean latency (cycles).
    pub fn be(&self) -> (u64, f64) {
        (self.latency[1][0], f64::from_bits(self.latency[1][1]))
    }
}

/// Everything one benchmark run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Timed rounds.
    pub rounds: usize,
    /// Lane-runs attempted, warm-up included.
    pub attempted: u64,
    /// Lane-runs that errored, saturated or differed from native's.
    pub failed: u64,
    /// The first failures, described.
    pub failures: Vec<String>,
    /// Per-round samples by metric name.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Metrics reported as a whole-run value rather than the median of
    /// their per-round samples: in an untraced run, each engine's
    /// end-to-end rate, its simulated cycles over all timed rounds ÷
    /// their `Session::run` seconds.
    pub whole_run: BTreeMap<String, f64>,
    /// Native's result per lane (`None` where native itself failed).
    pub reference: Vec<Option<SimResult>>,
    /// The traced run's spans.
    pub trace: Option<Trace>,
}

/// One engine's share of a round.
#[derive(Debug, Default)]
struct Turn {
    build: Duration,
    builds: u32,
    run: Duration,
    lane_cycles: u64,
    phases: [Duration; 5],
    system_cycles: u64,
    delta_cycles: u64,
    re_evaluations: u64,
    profiled_cycles: u64,
    evals: u64,
    self_ns: BTreeMap<String, u64>,
}

struct Bench<'w> {
    w: &'w Workload,
    seed: u64,
    nproc: usize,
    reference: Vec<Option<SimResult>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    samples: BTreeMap<String, Vec<f64>>,
    /// Per engine over the untraced timed rounds: lane cycles and
    /// `Session::run` time.
    totals: [(u64, Duration); 5],
    trace: Option<Trace>,
}

/// Run workload `w` as `opts` asks.
pub fn run(w: &Workload, opts: Options) -> Outcome {
    let mut b = Bench {
        w,
        seed: opts.seed,
        nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
        reference: vec![None; w.lanes],
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        samples: BTreeMap::new(),
        totals: Default::default(),
        trace: opts.trace.then(Trace::default),
    };
    // Warm-up round, native first: fills the reference, pages in the
    // code and data, and is not timed.
    let mut warm = Turn::default();
    for e in Engine::ALL {
        b.job(e, 0..w.lanes, false, None, &mut warm);
    }
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() * (rounds + 1) / rounds <= budget {
        if opts.trace {
            b.traced_round(rounds as usize);
        } else {
            b.round(rounds as usize);
        }
        rounds += 1;
    }
    b.run_totals(opts.trace);
    let whole_run = Engine::ALL
        .iter()
        .zip(&b.totals)
        .filter(|(_, (_, run))| !run.is_zero())
        .map(|(e, (cycles, run))| {
            (
                format!("{}.cycles_per_s", e.id()),
                *cycles as f64 / run.as_secs_f64(),
            )
        })
        .collect();
    Outcome {
        rounds: rounds as usize,
        attempted: b.attempted,
        failed: b.failed,
        failures: b.failures,
        samples: b.samples,
        whole_run,
        reference: b.reference,
        trace: b.trace,
    }
}

/// Engines in round `r`'s order, rotated so that no engine always
/// runs first.
fn order(r: usize) -> impl Iterator<Item = Engine> {
    let n = Engine::ALL.len();
    (0..n).map(move |i| Engine::ALL[(r + i) % n])
}

impl Bench<'_> {
    /// Whole-run metrics: the failure share, the reference's traffic
    /// counts and simulated latencies, and (untraced) the peak RSS.
    fn run_totals(&mut self, trace: bool) {
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.sample("failed_frac", failed_frac);
        let (mut offered, mut delivered) = (0, 0);
        // (packets, summed latency) per class, for the pooled means.
        let (mut gt, mut be) = ((0, 0.0), (0, 0.0));
        for r in self.reference.iter().flatten() {
            offered += r.throughput.offered_flits;
            delivered += r.throughput.delivered_packets;
            for (acc, (n, mean)) in [(&mut gt, r.gt()), (&mut be, r.be())] {
                acc.0 += n;
                acc.1 += n as f64 * mean;
            }
        }
        let pooled = |(n, total): (u64, f64)| if n == 0 { 0.0 } else { total / n as f64 };
        self.sample("traffic.flits_offered", offered as f64);
        self.sample("traffic.packets_delivered", delivered as f64);
        self.sample("sim.gt_latency_mean", pooled(gt));
        self.sample("sim.be_latency_mean", pooled(be));
        if !trace {
            if let Some(rss) = peak_rss_mb() {
                self.sample("peak_rss_mb", rss);
            }
        }
    }

    fn sample(&mut self, name: impl Into<String>, v: f64) {
        self.samples.entry(name.into()).or_default().push(v);
    }

    fn fail(&mut self, lanes: Range<usize>, e: Engine, why: &str) {
        for lane in lanes {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_NOTES {
                self.failures.push(format!(
                    "{} lane {lane} (seed {}): {why}",
                    e.id(),
                    self.seed.wrapping_add(lane as u64)
                ));
            }
        }
    }

    /// Check one lane's outcome; the first native result per lane
    /// becomes the reference.
    fn check(&mut self, e: Engine, lane: usize, outcome: &Result<RunReport, SimError>) {
        let r = match outcome {
            Ok(r) => r,
            Err(err) => return self.fail(lane..lane + 1, e, &err.to_string()),
        };
        if r.saturated {
            return self.fail(lane..lane + 1, e, "saturated");
        }
        let got = SimResult::of(r);
        match &self.reference[lane] {
            None if e == Engine::Native => self.reference[lane] = Some(got),
            None => self.fail(lane..lane + 1, e, "no native reference"),
            Some(want) if *want != got => {
                let why = format!("report differs from native: {got:?} vs {want:?}");
                self.fail(lane..lane + 1, e, &why);
            }
            Some(_) => {}
        }
    }

    /// Build, run and check lanes `lanes` on engine `e` (one session per
    /// lane, or one session for all of them when batched), adding the
    /// times and counts to `turn`. A traced job attaches the kernel
    /// profiler and records spans under `parent`.
    fn job(
        &mut self,
        e: Engine,
        lanes: Range<usize>,
        traced: bool,
        parent: Option<usize>,
        turn: &mut Turn,
    ) {
        let w = self.w;
        let sessions: Vec<Range<usize>> = if e.batched() {
            vec![lanes]
        } else {
            lanes.map(|l| l..l + 1).collect()
        };
        let mut trace = if traced { self.trace.take() } else { None };
        for lanes in sessions {
            self.attempted += lanes.len() as u64;
            let mut gens: Vec<_> = lanes.clone().map(|l| w.generator(self.seed, l)).collect();
            let mut builder = soc_sim::sim(w.cfg)
                .engine(e.kind(w.lanes, self.nproc))
                .threads(self.nproc)
                .run_config(w.rc.clone());
            if traced && e.has_kernel() {
                builder = builder.profile(PROFILE_SAMPLE_EVERY);
            }

            let span = trace
                .as_mut()
                .map(|t| t.open("noc::SimBuilder::session", parent));
            let t0 = Instant::now();
            let built = builder.session();
            turn.build += t0.elapsed();
            turn.builds += 1;
            if let (Some(t), Some(id)) = (trace.as_mut(), span) {
                t.close(id);
            }
            let mut session = match built {
                Ok(s) => s,
                Err(err) => {
                    self.fail(lanes, e, &format!("build: {err}"));
                    continue;
                }
            };

            let span = trace.as_mut().map(|t| t.open("noc::Session::run", parent));
            let t0 = Instant::now();
            let outcomes = run_session(&mut session, &mut gens);
            let wall = t0.elapsed();
            if let (Some(t), Some(id)) = (trace.as_mut(), span) {
                t.close(id);
            }
            turn.run += wall;

            let outcomes = match outcomes {
                Ok(o) => o,
                Err(err) => {
                    self.fail(lanes, e, &err.to_string());
                    continue;
                }
            };
            for (lane, outcome) in lanes.clone().zip(&outcomes) {
                self.check(e, lane, outcome);
            }
            let reports: Vec<&RunReport> =
                outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
            turn.lane_cycles += reports.iter().map(|r| r.cycles).sum::<u64>();
            for r in &reports {
                if let Some(d) = &r.delta {
                    turn.system_cycles += d.system_cycles;
                    turn.delta_cycles += d.delta_cycles;
                    turn.re_evaluations += d.re_evaluations;
                }
            }
            // Batched lanes share one set of phase timings.
            if let Some(r) = reports.first() {
                let mut parts = Vec::new();
                for (i, phase) in PHASES.iter().enumerate() {
                    let d = r
                        .profile
                        .iter()
                        .find(|p| p.0 == *phase)
                        .map_or(Duration::ZERO, |p| p.1);
                    turn.phases[i] += d;
                    parts.push((*phase, d));
                }
                if let (Some(t), Some(id)) = (trace.as_mut(), span) {
                    t.lay_out(id, &parts);
                }
            }
            if traced {
                let profile = match session.batched_mut() {
                    Some(b) => b.take_profile(wall.as_secs_f64()),
                    None => session
                        .engine_mut()
                        .and_then(|en| en.take_profile(wall.as_secs_f64())),
                };
                if let Some(p) = profile {
                    turn.profiled_cycles += p.cycles;
                    for entry in &p.entries {
                        turn.evals += entry.evals;
                        let kind = entry.name.rsplit_once('.').map_or(&*entry.name, |k| k.0);
                        *turn.self_ns.entry(kind.to_string()).or_default() += entry.self_ns;
                    }
                }
            }
            // Dropping joins the sharded engine's workers; not timed.
            drop(session);
        }
        if traced {
            self.trace = trace;
        }
    }

    /// The jobs of timed round `r`: the scalar engines take turns lane
    /// by lane, so each engine's share of the round spans the whole
    /// round and host-speed drift hits every engine alike; the batched
    /// session sits at a position that moves from round to round.
    fn jobs(&self, r: usize) -> Vec<(Engine, Range<usize>)> {
        let lanes = self.w.lanes;
        let scalar: Vec<Engine> = order(r).filter(|e| !e.batched()).collect();
        let mut jobs: Vec<(Engine, Range<usize>)> = (0..lanes)
            .flat_map(|l| scalar.iter().map(move |e| (*e, l..l + 1)))
            .collect();
        jobs.insert(
            (r % (lanes + 1)) * scalar.len(),
            (Engine::Batched, 0..lanes),
        );
        jobs
    }

    /// An untraced round: end-to-end rates (per round, and added to the
    /// whole-run totals) and the set-up total.
    fn round(&mut self, r: usize) {
        let mut turns: [Turn; 5] = Default::default();
        for (e, lanes) in self.jobs(r) {
            self.job(e, lanes, false, None, &mut turns[e as usize]);
        }
        let mut setup = Duration::ZERO;
        for e in Engine::ALL {
            let t = &turns[e as usize];
            setup += t.build;
            let total = &mut self.totals[e as usize];
            total.0 += t.lane_cycles;
            total.1 += t.run;
            if !t.run.is_zero() {
                self.sample(
                    format!("{}.cycles_per_s", e.id()),
                    t.lane_cycles as f64 / t.run.as_secs_f64(),
                );
            }
        }
        self.sample("setup_s", setup.as_secs_f64());
    }

    /// A traced round: the build stages, then every job twice, untraced
    /// and traced, alternating which goes first.
    fn traced_round(&mut self, r: usize) {
        let round = self
            .trace
            .as_mut()
            .map(|t| t.open(format!("round {r}"), None));
        self.stages(round);
        let mut plain: [Turn; 5] = Default::default();
        let mut traced: [Turn; 5] = Default::default();
        for (i, (e, lanes)) in self.jobs(r).into_iter().enumerate() {
            let traced_first = (r + i).is_multiple_of(2);
            if !traced_first {
                self.job(e, lanes.clone(), false, None, &mut plain[e as usize]);
            }
            let span = self
                .trace
                .as_mut()
                .map(|t| t.open(format!("{} lanes {lanes:?}", e.id()), round));
            self.job(e, lanes.clone(), true, span, &mut traced[e as usize]);
            if let (Some(t), Some(id)) = (self.trace.as_mut(), span) {
                t.close(id);
            }
            if traced_first {
                self.job(e, lanes, false, None, &mut plain[e as usize]);
            }
        }
        for e in Engine::ALL {
            self.layer_samples(e, &plain[e as usize], &traced[e as usize]);
        }
        if let (Some(t), Some(id)) = (self.trace.as_mut(), round) {
            t.close(id);
        }
    }

    fn layer_samples(&mut self, e: Engine, plain: &Turn, t: &Turn) {
        let p = e.id();
        let run = t.run.as_secs_f64();
        let phases: f64 = t.phases.iter().map(Duration::as_secs_f64).sum();
        self.sample(
            format!("{p}.build_s"),
            t.build.as_secs_f64() / f64::from(t.builds.max(1)),
        );
        for (phase, d) in PHASES.iter().zip(&t.phases) {
            self.sample(format!("{p}.{phase}_s"), d.as_secs_f64());
        }
        self.sample(format!("{p}.other_s"), run - phases);
        self.sample(
            format!("{p}.sim_cycles_per_s"),
            t.lane_cycles as f64 / t.phases[2].as_secs_f64(),
        );
        self.sample(format!("{p}.coverage"), phases / run);
        self.sample(
            format!("{p}.trace_overhead"),
            run / plain.run.as_secs_f64() - 1.0,
        );
        if e.has_kernel() {
            self.sample(
                format!("{p}.deltas_per_cycle"),
                ratio(t.delta_cycles, t.system_cycles),
            );
            self.sample(
                format!("{p}.reeval_frac"),
                ratio(t.re_evaluations, t.delta_cycles),
            );
            self.sample(
                format!("{p}.evals_per_cycle"),
                ratio(t.evals, t.profiled_cycles),
            );
            for (kind, ns) in &t.self_ns {
                self.sample(format!("{p}.self_s.{kind}"), *ns as f64 * 1e-9);
            }
            if !t.self_ns.contains_key(ROUTER_KIND) {
                self.sample(format!("{p}.self_s.{ROUTER_KIND}"), 0.0);
            }
        }
    }

    /// Time the build stages on the workload's spec, each as its own
    /// span.
    fn stages(&mut self, parent: Option<usize>) {
        let Some(trace) = self.trace.as_mut() else {
            return;
        };
        let cfg = self.w.cfg;
        let (seq, assemble) = trace.time("noc::SeqNoc::with_faults", parent, || {
            SeqNoc::with_faults(cfg, IfaceConfig::default(), None)
        });
        let spec = seq.engine().spec();
        let (analysis, analyze) = trace.time("speccheck::analyze_spec", parent, || {
            speccheck::analyze_spec(spec)
        });
        let (bitflow, bitflow_t) = trace.time("speccheck::bitflow_graph", parent, || {
            speccheck::bitflow_graph(&speccheck::SpecGraph::from_spec(spec))
        });
        black_box(bitflow);
        let opts = CompileOptions {
            order: analysis.schedule.map(|h| h.order),
            ..CompileOptions::default()
        };
        let (prog, compile) = trace.time("seqsim::CompiledProgram::compile", parent, || {
            CompiledProgram::compile(spec, &opts)
        });
        let ops = prog.ops.len();
        let (batch, lower) = trace.time("seqsim::BatchedProgram::lower", parent, || {
            BatchedProgram::lower(spec, prog)
        });
        let bitwise_ops = batch.as_ref().map_or(0, BatchedProgram::bitwise_ops);
        black_box(batch.ok());
        for (name, d) in crate::metrics::STAGES
            .iter()
            .zip([assemble, analyze, bitflow_t, compile, lower])
        {
            self.sample(*name, d.as_secs_f64());
        }
        self.sample("compile.ops", ops as f64);
        self.sample("batch.bitwise_ops", bitwise_ops as f64);
    }
}

/// Drive one session: scalar sessions through `Session::run`, the
/// batched one through `Session::run_each_outcomes`.
fn run_session(
    session: &mut Session,
    gens: &mut [soc_sim::traffic::StimuliGenerator],
) -> Result<Vec<Result<RunReport, SimError>>, SimError> {
    if session.batched().is_some() {
        session.run_each_outcomes(gens).map(<[_]>::to_vec)
    } else {
        session.run(&mut gens[0]).map(|r| vec![Ok(r.clone())])
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
