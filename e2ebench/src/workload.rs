//! The benchmark's workloads and engines.
//!
//! A workload is a network, a traffic mix and a run length. The
//! benchmark turns its seed into one stimuli generator per lane (lane
//! `i` uses seed `seed + i`); the simulator only ever sees those
//! generated stimuli.

use soc_sim::noc::{EngineKind, RunConfig};
use soc_sim::noc_types::{NetworkConfig, Topology};
use soc_sim::traffic::{BeConfig, GtAllocator, StimuliGenerator, TrafficConfig};

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Stable name, as passed to `--workload`.
    pub name: &'static str,
    /// Simulated network.
    pub cfg: NetworkConfig,
    /// Uniform best-effort load per PE (flits/cycle); 0 offers none.
    pub be_load: f64,
    /// Whether the Fig 1 guaranteed-throughput streams are allocated.
    pub gt: bool,
    /// Runner parameters (warm-up, measured and drain cycles).
    pub rc: RunConfig,
    /// Lane seeds per round: every engine simulates each of them once.
    pub lanes: usize,
}

/// Lanes per round: the batched engine runs them as one session, the
/// scalar engines as that many sessions back to back.
pub const LANES: usize = 4;

/// The workloads `BENCHMARK.json` declares, in its order. They bracket
/// `fig1-6x6`: idle routers at one end, busy routers and a loaded
/// runner at the other. Declaring two rather than three lets every run
/// measure longer within the same total time, which a noisy host needs;
/// `fig1-6x6` stays runnable by name.
pub const DECLARED: [&str; 2] = ["idle-16x16", "hot-6x6"];

/// Every workload: the Fig 1 point, then the declared ones.
pub fn all() -> Vec<Workload> {
    let torus = |side: u8| NetworkConfig::new(side, side, Topology::Torus, 2);
    // The 6x6 workloads share one run length so that only the load
    // differs between them.
    let loaded = RunConfig::new().warmup(500).cycles(2_000).drain(500);
    vec![
        // The paper's Fig 1 point: sparse, so the kernel mostly sees
        // quiescent routers and the runner's other phases weigh in.
        Workload {
            name: "fig1-6x6",
            cfg: torus(6),
            be_load: 0.10,
            gt: true,
            rc: loaded.clone(),
            lanes: LANES,
        },
        // 256 routers, no stimuli: the simulate phase is nearly all of
        // the run and the builds are the largest.
        Workload {
            name: "idle-16x16",
            cfg: torus(16),
            be_load: 0.0,
            gt: false,
            rc: RunConfig::new().warmup(200).cycles(800).drain(200),
            lanes: LANES,
        },
        // Below the saturation knee but busy: most routers switch every
        // cycle and 2.5x the Fig 1 stimuli pass through the runner.
        Workload {
            name: "hot-6x6",
            cfg: torus(6),
            be_load: 0.25,
            gt: true,
            rc: loaded,
            lanes: LANES,
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The stimuli generator of lane `lane` for the run seeded `seed`.
    pub fn generator(&self, seed: u64, lane: usize) -> StimuliGenerator {
        let gt_streams = if self.gt {
            GtAllocator::new(self.cfg).auto_streams((2, 1), 2048, 128)
        } else {
            Vec::new()
        };
        StimuliGenerator::new(TrafficConfig {
            net: self.cfg,
            be: BeConfig::fig1(self.be_load),
            gt_streams,
            seed: seed.wrapping_add(lane as u64),
        })
    }

    /// The same workload with its run length scaled to `cycles` measured
    /// cycles and `lanes` lanes (the self-test's short form).
    pub fn shortened(mut self, cycles: u64, lanes: usize) -> Self {
        self.rc = self.rc.warmup(cycles / 4).cycles(cycles).drain(cycles / 4);
        self.lanes = lanes;
        self
    }
}

/// The engines measured on every workload, declared in [`Engine::ALL`]
/// order so that `e as usize` indexes per-engine arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The hand-written golden model; every other engine is checked
    /// against it.
    Native,
    /// The paper's HBR worklist engine with the hybrid schedule.
    Seqsim,
    /// The hybrid schedule compiled to bytecode.
    Compiled,
    /// The sharded engine, one shard per CPU.
    Sharded,
    /// The lane-batched engine, all lanes in one session.
    Batched,
}

impl Engine {
    /// Every engine, in report order.
    pub const ALL: [Engine; 5] = [
        Engine::Native,
        Engine::Seqsim,
        Engine::Compiled,
        Engine::Sharded,
        Engine::Batched,
    ];

    /// The metric-name prefix.
    pub fn id(self) -> &'static str {
        match self {
            Engine::Native => "native",
            Engine::Seqsim => "seqsim",
            Engine::Compiled => "compiled",
            Engine::Sharded => "sharded",
            Engine::Batched => "batched",
        }
    }

    /// The builder kind for a round of `lanes` lane seeds on `nproc`
    /// CPUs.
    pub fn kind(self, lanes: usize, nproc: usize) -> EngineKind {
        match self {
            Engine::Native => EngineKind::Native,
            Engine::Seqsim => EngineKind::Seq,
            Engine::Compiled => EngineKind::SeqCompiled,
            Engine::Sharded => EngineKind::Sharded { threads: nproc },
            Engine::Batched => EngineKind::Batched { lanes },
        }
    }

    /// Whether the engine runs all lanes in one session.
    pub fn batched(self) -> bool {
        self == Engine::Batched
    }

    /// Whether the engine has a delta-cycle kernel (delta statistics
    /// and the kernel profiler).
    pub fn has_kernel(self) -> bool {
        self != Engine::Native
    }
}
