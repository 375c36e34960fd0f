//! Activity gating of the lane-batched engine (DESIGN §12.6).
//!
//! Every lane keeps its own activity flags: a block that went quiet in
//! one lane is skipped there while other lanes keep running it, and a
//! lane group whose active lanes are all quiet fast-forwards. Both must
//! be invisible: per lane, the state, links, delta statistics and the
//! snapshot encoding end exactly where an engine that never skips
//! leaves them, and chaos panics fire at their cycle.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use seqsim::compile::CompiledExec;
use seqsim::demo::comb_demo;
use seqsim::{
    BatchedEngine, BitExpr, BitSemantics, BlockKind, CombInputs, CompileOptions, CompiledEngine,
    Enc, KernelProfiler, SideView, SlicePlan, SystemSpec,
};

const WIDTH: usize = 8;

/// A registered 8-bit latch: the output is the register, the register
/// takes the input at every clock edge. With `gated` set, its exec
/// reports quiet when the edge latched the value it already held. It
/// has one (unused) side ring, so host side writes can target it.
struct Latch {
    gated: bool,
}

impl BlockKind for Latch {
    fn name(&self) -> &str {
        "latch"
    }
    fn state_bits(&self) -> usize {
        WIDTH
    }
    fn input_widths(&self) -> Vec<usize> {
        vec![WIDTH]
    }
    fn output_widths(&self) -> Vec<usize> {
        vec![WIDTH]
    }
    fn reset(&self, _state: &mut [u64]) {}
    fn side_rings(&self) -> Vec<usize> {
        vec![4]
    }
    fn comb_inputs(&self, _port: usize) -> CombInputs {
        CombInputs::None
    }
    fn eval(
        &self,
        _instance: usize,
        cur: &[u64],
        inputs: &[u64],
        _cycle: u64,
        next: &mut [u64],
        outputs: &mut [u64],
        _side: &mut SideView<'_>,
    ) {
        outputs[0] = cur[0];
        next[0] = inputs[0];
    }
    fn compile(&self) -> Option<Box<dyn CompiledExec>> {
        Some(Box::new(LatchExec {
            gated: self.gated,
            ..LatchExec::default()
        }))
    }
}

#[derive(Default)]
struct LatchExec {
    gated: bool,
    regs: Vec<u64>,
    quiet: Vec<bool>,
}

impl CompiledExec for LatchExec {
    fn load(&mut self, instance: usize, packed: &[u64]) {
        if self.regs.len() <= instance {
            self.regs.resize(instance + 1, 0);
            self.quiet.resize(instance + 1, false);
        }
        self.regs[instance] = packed[0];
    }
    fn store(&self, instance: usize, packed: &mut [u64]) {
        packed[0] = self.regs[instance];
    }
    fn comb(
        &mut self,
        instance: usize,
        _pass: usize,
        _inputs: &[u64],
        _cycle: u64,
        outputs: &mut [u64],
        _side: &mut SideView<'_>,
    ) {
        outputs[0] = self.regs[instance];
    }
    fn update(&mut self, instance: usize, inputs: &[u64], _cycle: u64, _side: &mut SideView<'_>) {
        self.quiet[instance] = self.gated && self.regs[instance] == inputs[0];
        self.regs[instance] = inputs[0];
    }
    fn quiet(&self, instance: usize) -> bool {
        self.quiet[instance]
    }
}

/// `external -> latch 0 -> ... -> latch n-1 -> sink`. Returns the spec,
/// the external link and the inter-latch links.
fn chain(n: usize, gated: bool) -> (SystemSpec, usize, Vec<usize>) {
    let mut spec = SystemSpec::new();
    let k = spec.add_kind(Box::new(Latch { gated }));
    let blocks: Vec<usize> = (0..n).map(|_| spec.add_block(k)).collect();
    let ext = spec.external((blocks[0], 0), 0);
    let inner = (1..n)
        .map(|i| spec.wire((blocks[i - 1], 0), (blocks[i], 0)))
        .collect();
    spec.sink((blocks[n - 1], 0));
    (spec, ext, inner)
}

fn batch(lanes: usize, blocks: usize, gated: bool, threads: usize) -> BatchedEngine {
    let specs = (0..lanes).map(|_| chain(blocks, gated).0).collect();
    BatchedEngine::new(specs, &CompileOptions::default(), threads).expect("batch builds")
}

fn encoded(be: &BatchedEngine) -> Vec<u8> {
    let mut e = Enc::new();
    be.snapshot().encode(&mut e);
    e.into_bytes()
}

#[test]
fn fast_forward_matches_single_steps_and_an_ungated_batch() {
    let (lanes, n_blocks) = (3usize, 4usize);
    let (_, ext, _) = chain(n_blocks, true);
    let mut bulk = batch(lanes, n_blocks, true, 1);
    let mut single = batch(lanes, n_blocks, true, 1);
    let mut split = batch(lanes, n_blocks, true, 2);
    // The same chains never reporting quiet: every op runs every cycle.
    let mut ungated = batch(lanes, n_blocks, false, 1);
    for be in [&mut bulk, &mut single, &mut ungated] {
        be.attach_profiler(KernelProfiler::new(n_blocks, 1));
    }
    for be in [&mut bulk, &mut single, &mut split, &mut ungated] {
        for j in 0..lanes {
            be.set_external(j, ext, 0x10 + j as u64);
        }
    }
    // Odd and even stretches: the bank parity must match as well.
    for n in [1u64, 7, 100, 1001] {
        bulk.run(n);
        split.run(n);
        for _ in 0..n {
            single.run(1);
            ungated.run(1);
        }
        for other in [&single, &ungated, &split] {
            assert_eq!(bulk.cycle(), other.cycle());
            for j in 0..lanes {
                assert_eq!(bulk.stats(j), other.stats(j), "lane {j}");
                for b in 0..n_blocks {
                    assert_eq!(bulk.peek_state(j, b), other.peek_state(j, b));
                }
            }
        }
        for other in [&single, &ungated] {
            assert_eq!(encoded(&bulk), encoded(other), "after {n} more cycles");
        }
    }
    for j in 0..lanes {
        // The value crossed the chain, then every lane went quiet.
        assert_eq!(bulk.active_blocks(j), 0);
        assert_eq!(ungated.active_blocks(j), n_blocks);
        assert_eq!(bulk.peek_state(j, n_blocks - 1), vec![0x10 + j as u64]);
        // DeltaStats keeps one logical update per block per cycle.
        assert_eq!(bulk.stats(j).delta_cycles, bulk.cycle() * n_blocks as u64);
    }
    let report = |be: &mut BatchedEngine| {
        be.take_profiler()
            .expect("attached")
            .report("batched", 0.0, 0)
    };
    let (rb, rs, ru) = (report(&mut bulk), report(&mut single), report(&mut ungated));
    assert_eq!(rb.cycles, bulk.cycle());
    assert_eq!(rb.cycles, rs.cycles);
    for ((b, s), u) in rb.entries.iter().zip(&rs.entries).zip(&ru.entries) {
        assert_eq!((b.evals, b.skipped), (s.evals, s.skipped));
        assert_eq!(b.evals + b.skipped, rb.cycles, "block {}", b.block);
        assert!(b.skipped > 0);
        assert_eq!((u.evals, u.skipped), (ru.cycles, 0));
    }
}

#[test]
fn never_quiet_demo_lanes_are_never_skipped() {
    // The demo kinds ship no exec: packed ops, always evaluated.
    let lanes = 3usize;
    let specs: Vec<SystemSpec> = (0..lanes).map(|_| comb_demo().0).collect();
    let n_blocks = specs[0].blocks().len();
    let mut be = BatchedEngine::new(specs, &CompileOptions::default(), 1).expect("build");
    be.attach_profiler(KernelProfiler::new(n_blocks, 1));
    be.run(500);
    for j in 0..lanes {
        assert_eq!(be.active_blocks(j), n_blocks, "lane {j}");
    }
    let report = be.take_profiler().unwrap().report("batched", 0.0, 0);
    assert_eq!(report.cycles, 500);
    for e in &report.entries {
        assert_eq!((e.evals, e.skipped), (500, 0), "block {}", e.block);
    }
}

/// Drive lane-divergent scripts through a batch and, per lane, through
/// a scalar compiled engine (itself held to the interpreter by
/// `activity_gating`), comparing every state and link word each cycle.
fn wakes_are_per_lane(opts: &CompileOptions) {
    let (lanes, n_blocks) = (3usize, 5usize);
    let (_, ext, inner) = chain(n_blocks, true);
    let specs = (0..lanes).map(|_| chain(n_blocks, true).0).collect();
    let mut be = BatchedEngine::new(specs, opts, 1).expect("build");
    let mut refs: Vec<CompiledEngine> = (0..lanes)
        .map(|_| CompiledEngine::with_options(chain(n_blocks, true).0, opts))
        .collect();
    // Lane 0 changes often, lane 1 never, lane 2 late; some writes
    // repeat the value the link already holds.
    let script = |lane: usize, cycle: u64| -> Option<u64> {
        match (lane, cycle) {
            (0, c) if c < 40 && c % 3 == 0 => Some(c / 6),
            (2, 25) | (2, 26) => Some(0x41),
            (2, 50) => Some(0x80),
            _ => None,
        }
    };
    let mut quiet_while_busy = false;
    for cycle in 0..90u64 {
        for (j, r) in refs.iter_mut().enumerate() {
            if let Some(v) = script(j, cycle) {
                be.set_external(j, ext, v);
                r.set_external(ext, v);
            }
        }
        be.run(1);
        for (j, r) in refs.iter_mut().enumerate() {
            r.step();
            for b in 0..n_blocks {
                assert_eq!(
                    be.peek_state(j, b),
                    r.peek_state(b),
                    "cycle {cycle} lane {j} block {b}"
                );
            }
            for &l in inner.iter().chain([&ext]) {
                assert_eq!(
                    be.link_value(j, l),
                    r.link_value(l),
                    "cycle {cycle} lane {j} link {l}"
                );
            }
            assert_eq!(be.stats(j), r.stats(), "cycle {cycle} lane {j}");
            assert_eq!(
                be.active_blocks(j),
                r.active_blocks(),
                "cycle {cycle} lane {j}"
            );
        }
        quiet_while_busy |= be.active_blocks(1) == 0 && be.active_blocks(0) > 0;
    }
    assert!(quiet_while_busy, "lane 1 never slept while lane 0 ran");
    for j in 0..lanes {
        assert_eq!(be.active_blocks(j), 0, "lane {j}");
    }
    // Writing the value a link already holds wakes nobody.
    be.set_external(2, ext, 0x80);
    assert_eq!(be.active_blocks(2), 0);
    be.set_external(2, ext, 0x81);
    assert_eq!((be.active_blocks(1), be.active_blocks(2)), (0, 1));
    // A host side write wakes its target in its lane; an untargeted one
    // wakes the whole lane.
    be.side_write(1, 3, 0, 0, 1);
    assert_eq!((be.active_blocks(0), be.active_blocks(1)), (0, 1));
    be.side_mut(0);
    assert_eq!(be.active_blocks(0), n_blocks);
}

#[test]
fn wakes_are_per_lane_on_plain_links() {
    wakes_are_per_lane(&CompileOptions::default());
}

#[test]
fn wakes_are_per_lane_on_packed_bit_words() {
    // Sliced links live in packed per-bit slabs, one bit per lane: a
    // per-lane scatter inserts its lane's bit, and only that lane's
    // reader may wake.
    let (_, _, inner) = chain(5, true);
    wakes_are_per_lane(&CompileOptions {
        slice: SlicePlan { links: inner },
        ..CompileOptions::default()
    });
}

/// A stateless 8-bit buffer that declares its identity bit semantics.
/// Between sliced links the batch lowers it to a packed expression op,
/// which is never gated.
struct Stage;

impl BlockKind for Stage {
    fn name(&self) -> &str {
        "stage"
    }
    fn state_bits(&self) -> usize {
        0
    }
    fn input_widths(&self) -> Vec<usize> {
        vec![WIDTH]
    }
    fn output_widths(&self) -> Vec<usize> {
        vec![WIDTH]
    }
    fn reset(&self, _state: &mut [u64]) {}
    fn eval(
        &self,
        _instance: usize,
        _cur: &[u64],
        inputs: &[u64],
        _cycle: u64,
        _next: &mut [u64],
        outputs: &mut [u64],
        _side: &mut SideView<'_>,
    ) {
        outputs[0] = inputs[0];
    }
    fn bit_semantics(&self, port: usize) -> Option<BitSemantics> {
        (port == 0).then(|| BitSemantics {
            bits: (0..WIDTH).map(|bit| BitExpr::In { port: 0, bit }).collect(),
        })
    }
}

/// `external -> latch -> stage -> latch -> sink`, both stage links
/// sliced into per-bit words.
fn staged() -> (SystemSpec, usize, CompileOptions) {
    let mut spec = SystemSpec::new();
    let kl = spec.add_kind(Box::new(Latch { gated: true }));
    let ks = spec.add_kind(Box::new(Stage));
    let (a, st, b) = (spec.add_block(kl), spec.add_block(ks), spec.add_block(kl));
    let ext = spec.external((a, 0), 0);
    let l1 = spec.wire((a, 0), (st, 0));
    let l2 = spec.wire((st, 0), (b, 0));
    spec.sink((b, 0));
    let opts = CompileOptions {
        slice: SlicePlan {
            links: vec![l1, l2],
        },
        ..CompileOptions::default()
    };
    (spec, ext, opts)
}

#[test]
fn packed_expression_writes_wake_single_lanes() {
    let lanes = 3usize;
    let (_, ext, opts) = staged();
    let specs = (0..lanes).map(|_| staged().0).collect();
    let mut be = BatchedEngine::new(specs, &opts, 1).expect("build");
    assert!(
        be.program().bitwise_ops() > 0,
        "the stage lowers to a packed op"
    );
    let mut refs: Vec<CompiledEngine> = (0..lanes)
        .map(|_| CompiledEngine::with_options(staged().0, &opts))
        .collect();
    let n_links = refs[0].spec().links().len();
    for cycle in 0..40u64 {
        for (j, r) in refs.iter_mut().enumerate() {
            // Each lane changes its input on its own cycles, after its
            // second latch went quiet.
            if cycle % (8 + 3 * j as u64) == 7 {
                let v = (cycle * 37 + j as u64) & 0xFF;
                be.set_external(j, ext, v);
                r.set_external(ext, v);
            }
        }
        be.run(1);
        for (j, r) in refs.iter_mut().enumerate() {
            r.step();
            for b in [0, 2] {
                assert_eq!(
                    be.peek_state(j, b),
                    r.peek_state(b),
                    "cycle {cycle} lane {j} block {b}"
                );
            }
            for l in 0..n_links {
                assert_eq!(
                    be.link_value(j, l),
                    r.link_value(l),
                    "cycle {cycle} lane {j} link {l}"
                );
            }
            assert_eq!(
                be.active_blocks(j),
                r.active_blocks(),
                "cycle {cycle} lane {j}"
            );
        }
    }
}

#[test]
fn chaos_fires_inside_a_quiet_stretch() {
    for threads in [1usize, 2] {
        let (_, ext, _) = chain(3, true);
        let mut gated = batch(3, 3, true, threads);
        let mut ungated = batch(3, 3, false, threads);
        for be in [&mut gated, &mut ungated] {
            be.set_external(0, ext, 7);
            be.run(10);
            be.poison_lane_at(1, 60);
        }
        assert!((0..3).all(|j| gated.active_blocks(j) == 0));
        gated.run(200);
        ungated.run(200);
        let (cycle, payload) = gated.lane_poisoned(1).expect("chaos fired");
        assert_eq!(cycle, 60, "threads {threads}");
        assert!(payload.contains("chaos"));
        assert_eq!(ungated.lane_poisoned(1), Some((cycle, payload)));
        assert!(gated.lane_poisoned(0).is_none() && gated.lane_poisoned(2).is_none());
        assert_eq!(gated.cycle(), 210);
        for j in 0..3 {
            assert_eq!(gated.stats(j), ungated.stats(j), "lane {j}");
            for b in 0..3 {
                assert_eq!(gated.peek_state(j, b), ungated.peek_state(j, b));
            }
        }
    }
}

#[test]
fn restore_and_quarantine_move_state_versions() {
    let (_, ext, _) = chain(3, true);
    let mut be = batch(2, 3, true, 1);
    be.set_external(0, ext, 4);
    be.run(10);
    assert_eq!((be.active_blocks(0), be.active_blocks(1)), (0, 0));
    let before = be.state_version(0, 2);
    be.run(50);
    assert_eq!(
        be.state_version(0, 2),
        before,
        "a quiet block keeps its version"
    );
    let snap = be.snapshot();
    be.restore(&snap);
    assert_eq!(be.active_blocks(1), 3, "restore wakes every block");
    let restored = be.state_version(0, 2);
    assert!(restored > before, "restore moves every version");
    be.run(1);
    assert_eq!(be.active_blocks(0), 0, "restored state is quiet again");
    assert_eq!(be.peek_state(0, 2), vec![4]);
    // Quarantine switches the lane's peeks from the exec to the bank
    // words; they must then stay put across bank swaps.
    be.quarantine_lane(0, be.cycle(), "host verdict".into());
    assert!(be.state_version(0, 2) > restored);
    let frozen: Vec<Vec<u64>> = (0..3).map(|b| be.peek_state(0, b)).collect();
    for _ in 0..3 {
        be.run(1);
        for (b, words) in frozen.iter().enumerate() {
            assert_eq!(&be.peek_state(0, b), words, "block {b}");
        }
    }
}
