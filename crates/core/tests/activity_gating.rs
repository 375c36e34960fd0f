//! Activity gating of the straight-line compiled kernel (DESIGN §11.5).
//!
//! A block whose exec reports *quiet* is skipped until an input word
//! changes; when no block is active, `try_run` fast-forwards the rest
//! of the run in one step. Both must be invisible: the cycle counter,
//! the delta statistics, the snapshot encoding and the profiler's
//! cycle count end exactly where stepping cycle by cycle leaves them,
//! and every link and state word matches the interpreting engine.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use seqsim::compile::CompiledExec;
use seqsim::demo::comb_demo;
use seqsim::{
    BlockKind, CombInputs, CompileOptions, CompiledEngine, DynamicEngine, Enc, KernelProfiler,
    SideView, SlicePlan, SystemSpec,
};

const WIDTH: usize = 8;

/// A registered 8-bit latch: the output is the register, the register
/// takes the input at every clock edge. With `gated` set, its exec
/// reports quiet when the edge latched the value it already held;
/// otherwise it never does, and the engine runs it every cycle. It has
/// one (unused) side ring, so host side writes can target it.
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

/// `external -> latch 0 -> latch 1 -> ... -> latch n-1 -> sink`.
/// Returns the spec, the external link and the inter-latch links.
fn latch_chain(n: usize) -> (SystemSpec, usize, Vec<usize>) {
    chain_of(n, true)
}

fn chain_of(n: usize, gated: bool) -> (SystemSpec, usize, Vec<usize>) {
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

fn encoded(eng: &CompiledEngine) -> Vec<u8> {
    let mut e = Enc::new();
    eng.snapshot().encode(&mut e);
    e.into_bytes()
}

#[test]
fn fast_forward_matches_single_steps() {
    let (spec, ext, _) = latch_chain(4);
    let n_blocks = spec.blocks().len();
    let mut bulk = CompiledEngine::new(spec);
    let (spec, _, _) = latch_chain(4);
    let mut single = CompiledEngine::new(spec);
    // The same chain never reporting quiet: every op runs every cycle.
    let (spec, _, _) = chain_of(4, false);
    let mut ungated = CompiledEngine::new(spec);
    for eng in [&mut bulk, &mut single, &mut ungated] {
        eng.attach_profiler(KernelProfiler::new(n_blocks, 1));
        eng.set_external(ext, 0x5A);
    }
    // Odd and even stretches: the bank parity must match as well.
    for n in [1u64, 7, 100, 1001] {
        bulk.try_run(n).expect("straight-line run");
        for _ in 0..n {
            single.try_step().expect("straight-line step");
            ungated.try_step().expect("straight-line step");
        }
        for other in [&single, &ungated] {
            assert_eq!(bulk.cycle(), other.cycle());
            assert_eq!(bulk.stats(), other.stats());
            assert_eq!(encoded(&bulk), encoded(other), "after {n} more cycles");
        }
        assert_eq!(ungated.active_blocks(), n_blocks);
        let (pb, ps) = (bulk.profiler().unwrap(), single.profiler().unwrap());
        assert_eq!(pb.cycles(), ps.cycles());
        assert_eq!(pb.cycles(), bulk.cycle());
    }
    // The value crossed the chain, then everything went quiet.
    assert_eq!(bulk.active_blocks(), 0);
    assert_eq!(bulk.peek_state(n_blocks - 1), vec![0x5A]);
    // DeltaStats keeps one logical update per block per cycle.
    assert_eq!(bulk.stats().delta_cycles, bulk.cycle() * n_blocks as u64);
    let (rb, rs) = (
        bulk.take_profiler().unwrap().report("compiled", 0.0, 0),
        single.take_profiler().unwrap().report("compiled", 0.0, 0),
    );
    assert_eq!(rb.cycles, rs.cycles);
    for (b, s) in rb.entries.iter().zip(&rs.entries) {
        assert_eq!((b.evals, b.skipped), (s.evals, s.skipped));
        assert_eq!(b.evals + b.skipped, rb.cycles, "block {}", b.block);
        assert!(b.skipped > 0);
    }
}

#[test]
fn blocks_that_never_report_quiet_are_never_skipped() {
    // The demo kinds ship no exec: packed ops, always evaluated.
    let (spec, _) = comb_demo();
    let n_blocks = spec.blocks().len();
    let mut eng = CompiledEngine::new(spec);
    assert!(matches!(
        eng.program().mode,
        seqsim::ProgramMode::StraightLine { .. }
    ));
    eng.attach_profiler(KernelProfiler::new(n_blocks, 1));
    eng.try_run(500).expect("straight-line run");
    assert_eq!(eng.active_blocks(), n_blocks);
    let report = eng.take_profiler().unwrap().report("compiled", 0.0, 0);
    assert_eq!(report.cycles, 500);
    for e in &report.entries {
        assert_eq!((e.evals, e.skipped), (500, 0), "block {}", e.block);
    }
}

#[test]
fn wakes_follow_changes_and_match_the_interpreter() {
    let (spec, ext, inner) = latch_chain(5);
    let mut eng = CompiledEngine::new(spec);
    let (spec, _, _) = latch_chain(5);
    let mut dy = DynamicEngine::new(spec);
    // Inputs change on some cycles, repeat on others, and stay put
    // long enough for the whole chain to go quiet.
    let script = [(0u64, 3u64), (1, 3), (2, 9), (9, 9), (10, 0), (30, 0x77)];
    for cycle in 0..60u64 {
        if let Some(&(_, v)) = script.iter().find(|&&(c, _)| c == cycle) {
            eng.set_external(ext, v);
            dy.set_external(ext, v);
        }
        eng.step();
        dy.step();
        for b in 0..5 {
            assert_eq!(
                eng.peek_state(b),
                dy.peek_state(b),
                "cycle {cycle} block {b}"
            );
        }
        for &l in inner.iter().chain([&ext]) {
            assert_eq!(
                eng.link_value(l),
                dy.link_value(l),
                "cycle {cycle} link {l}"
            );
        }
    }
    assert_eq!(eng.active_blocks(), 0);
    // Writing the value a link already holds wakes nobody.
    eng.set_external(ext, 0x77);
    assert_eq!(eng.active_blocks(), 0);
    eng.set_external(ext, 0x78);
    assert!(eng.is_active(0) && !eng.is_active(1));
    // A host side write wakes its target; an untargeted one wakes all.
    eng.side_write(3, 0, 0, 1);
    assert!(eng.is_active(3) && !eng.is_active(2));
    eng.side_mut();
    assert_eq!(eng.active_blocks(), 5);
}

#[test]
fn sliced_links_wake_through_their_bit_words() {
    // Slice every inter-latch link: a scatter then writes per-bit
    // arena words, and the reader table must wake the consumer from
    // whichever bit word changed.
    let (spec, ext, inner) = latch_chain(4);
    let opts = CompileOptions {
        slice: SlicePlan {
            links: inner.clone(),
        },
        ..CompileOptions::default()
    };
    let mut eng = CompiledEngine::with_options(spec, &opts);
    assert_eq!(eng.program().slices.len(), inner.len());
    for (i, &l) in inner.iter().enumerate() {
        let s = eng.program().slice_of(l).expect("sliced");
        for bit in 0..WIDTH {
            assert_eq!(eng.program().readers(s.base as usize + bit), [i as u32 + 1]);
        }
    }
    let (spec, _, _) = latch_chain(4);
    let mut dy = DynamicEngine::new(spec);
    // Each value differs from the last in a single, different bit.
    let mut v = 0u64;
    for cycle in 0..80u64 {
        if cycle % 10 == 0 {
            v ^= 1 << (cycle / 10 % WIDTH as u64);
            eng.set_external(ext, v);
            dy.set_external(ext, v);
        }
        eng.try_run(1).expect("straight-line run");
        dy.step();
        for b in 0..4 {
            assert_eq!(
                eng.peek_state(b),
                dy.peek_state(b),
                "cycle {cycle} block {b}"
            );
        }
        for &l in &inner {
            assert_eq!(
                eng.link_value(l),
                dy.link_value(l),
                "cycle {cycle} link {l}"
            );
        }
    }
}

#[test]
fn restore_wakes_every_block() {
    let (spec, ext, _) = latch_chain(3);
    let mut eng = CompiledEngine::new(spec);
    eng.set_external(ext, 4);
    eng.run(10);
    assert_eq!(eng.active_blocks(), 0);
    let snap = eng.snapshot();
    let version = eng.state_version(2);
    eng.restore(&snap);
    assert_eq!(eng.active_blocks(), 3);
    assert!(
        eng.state_version(2) > version,
        "restore moves every version"
    );
    eng.run(1);
    assert_eq!(eng.active_blocks(), 0, "restored state is quiet again");
    assert_eq!(eng.peek_state(2), vec![4]);
}
