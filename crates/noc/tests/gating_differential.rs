//! Differential suite for the activity-gated compiled kernel.
//!
//! `CompiledNoc` skips quiet routers and fast-forwards all-quiet
//! stretches (DESIGN §11.5). Gating must be invisible: after every
//! advance the compiled engine has to match the interpreting `SeqNoc`
//! register for register and link for link, and the drained output
//! and access-delay rings must be equal. The cases target the ways a
//! gate could be wrong: routers that go quiet and must wake, state
//! that does not change while a block must stay awake, a new event
//! that leaves a link word unchanged, cycle-dependent fault windows,
//! restore inside a quiet stretch, and per-bit sliced links.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc::{random_plan, CompiledNoc, NocEngine, SeqNoc};
use noc_types::{Coord, Direction, Flit, FlitKind, NetworkConfig, Topology, NUM_VCS};
use std::sync::Arc;
use vc_router::{IfaceConfig, StimEntry};

/// The reference and the gated engine, driven by the same host calls.
struct Pair {
    cfg: NetworkConfig,
    seq: SeqNoc,
    comp: CompiledNoc,
    /// Compare every spec link. Off for the packed-control build, whose
    /// credit stages add links the reference does not have.
    same_spec: bool,
}

impl Pair {
    fn plain(cfg: NetworkConfig, faults: Option<Arc<noc::FaultPlan>>) -> Pair {
        let iface = IfaceConfig::default();
        Pair {
            cfg,
            seq: SeqNoc::with_faults(cfg, iface, faults.clone()),
            comp: CompiledNoc::with_faults(cfg, iface, faults),
            same_spec: true,
        }
    }

    fn cycle(&self) -> u64 {
        self.seq.cycle()
    }

    fn push(&mut self, node: usize, vc: usize, entry: StimEntry) {
        let a = self.seq.push_stim(node, vc, entry);
        let b = self.comp.push_stim(node, vc, entry);
        assert_eq!(a, b, "push accepted differently at node {node} vc {vc}");
        assert!(a, "stimuli ring full at node {node} vc {vc}");
    }

    /// Push a `len`-flit packet (`len >= 2`) from `src` to `dest`, every
    /// body flit carrying the same payload.
    fn packet(&mut self, src: usize, vc: usize, dest: Coord, len: usize, ts: u64) {
        self.push(
            src,
            vc,
            StimEntry {
                ts,
                flit: Flit::head(dest, src as u8),
            },
        );
        for i in 1..len {
            let kind = if i + 1 == len {
                FlitKind::Tail
            } else {
                FlitKind::Body
            };
            self.push(
                src,
                vc,
                StimEntry {
                    ts,
                    flit: Flit {
                        kind,
                        payload: 0xBEEF,
                    },
                },
            );
        }
    }

    /// The reference steps cycle by cycle; the compiled engine takes
    /// all `k` cycles in one run, fast-forwarding quiet stretches.
    fn advance(&mut self, k: u64) {
        self.seq.run(k);
        self.comp.run(k);
        self.compare();
    }

    fn compare(&self) {
        let c = self.cycle();
        assert_eq!(self.comp.cycle(), c);
        for node in 0..self.cfg.num_nodes() {
            assert_eq!(
                self.seq.peek_regs(node),
                self.comp.peek_regs(node),
                "cycle {c} node {node}"
            );
            for dir in 0..4 {
                assert_eq!(
                    self.seq.probe_link(node, dir),
                    self.comp.probe_link(node, dir),
                    "cycle {c} node {node} dir {dir}"
                );
            }
        }
        if self.same_spec {
            for l in 0..self.seq.engine().spec().links().len() {
                assert_eq!(
                    self.seq.engine().link_value(l),
                    self.comp.engine().link_value(l),
                    "cycle {c} link {l}"
                );
            }
        }
    }

    /// Drain both engines' rings, assert them equal, return the number
    /// of delivered flits.
    fn drain(&mut self) -> usize {
        let mut delivered = 0;
        for node in 0..self.cfg.num_nodes() {
            let out = self.seq.drain_delivered(node);
            assert_eq!(out, self.comp.drain_delivered(node), "delivered at {node}");
            assert_eq!(
                self.seq.drain_access(node),
                self.comp.drain_access(node),
                "access log at {node}"
            );
            delivered += out.len();
        }
        delivered
    }

    /// Routers the compiled engine will evaluate next cycle.
    fn awake_routers(&self) -> usize {
        (0..self.cfg.num_nodes())
            .filter(|&b| self.comp.engine().is_active(b))
            .count()
    }
}

fn coord(cfg: &NetworkConfig, node: usize) -> Coord {
    cfg.shape.coords().nth(node).expect("node in range")
}

#[test]
fn routers_go_quiet_and_wake_around_a_burst() {
    let cfg = NetworkConfig::new(4, 4, Topology::Torus, 2);
    let n = cfg.num_nodes();
    let mut p = Pair::plain(cfg, None);
    for _ in 0..3 {
        p.advance(1);
    }
    assert_eq!(p.awake_routers(), 0, "an idle network goes quiet");
    p.advance(40);
    let now = p.cycle();
    for src in 0..n {
        let dest = coord(&cfg, (src * 7 + 5) % n);
        p.packet(src, src % NUM_VCS, dest, 2 + src % 3, now);
    }
    assert_eq!(p.awake_routers(), n, "every pushed node wakes");
    for _ in 0..80 {
        p.advance(1);
    }
    let flits: usize = (0..n).map(|src| 2 + src % 3).sum();
    assert_eq!(p.drain(), flits);
    assert_eq!(p.awake_routers(), 0, "quiet again after the burst");
    p.advance(500);
    assert_eq!(p.drain(), 0);
}

#[test]
fn pending_stimulus_keeps_its_router_awake() {
    let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
    let mut p = Pair::plain(cfg, None);
    p.advance(5);
    let ts = p.cycle() + 40;
    p.push(
        4,
        1,
        StimEntry {
            ts,
            flit: Flit::head_tail(Coord::new(0, 0), 9),
        },
    );
    // Node 4's registers do not change while the entry waits for its
    // timestamp, but the pick reads the cycle: it must not sleep.
    while p.cycle() < ts {
        assert!(p.comp.engine().is_active(4), "cycle {}", p.cycle());
        p.advance(1);
    }
    for _ in 0..20 {
        p.advance(1);
    }
    assert_eq!(p.drain(), 1);
    assert_eq!(p.awake_routers(), 0);
}

#[test]
fn repeated_flit_words_are_new_events() {
    let cfg = NetworkConfig::new(4, 4, Topology::Mesh, 4);
    let mut p = Pair::plain(cfg, None);
    p.advance(3);
    // Body flits with equal payloads on one VC put the same word on the
    // East link in consecutive cycles: the link word does not change,
    // yet every cycle carries a new flit.
    let now = p.cycle();
    p.packet(0, 2, Coord::new(3, 0), 6, now);
    let east = Direction::East.index();
    let mut last = None;
    let mut repeats = 0;
    for _ in 0..40 {
        p.advance(1);
        let word = p.comp.probe_link(0, east).map(|e| (e.vc, e.flit));
        if word.is_some() && word == last {
            repeats += 1;
        }
        last = word;
    }
    assert!(
        repeats >= 2,
        "the case was not exercised ({repeats} repeats)"
    );
    assert_eq!(p.drain(), 6);
}

#[test]
fn random_fault_plans_with_stalls_and_link_faults() {
    let cfg = NetworkConfig::new(4, 4, Topology::Torus, 2);
    let n = cfg.num_nodes();
    for seed in [3u64, 11, 2007] {
        let plan = random_plan(&cfg, seed, 300);
        let faults: Vec<_> = (0..n).map(|i| plan.node_faults(i)).collect();
        assert!(faults.iter().any(|f| f.has_stalls()), "seed {seed}");
        assert!(
            faults.iter().any(|f| (0..4).any(|d| f.link_faulty(d))),
            "seed {seed}"
        );
        let mut p = Pair::plain(cfg, Some(Arc::new(plan)));
        let mut x = seed;
        for cycle in 0..300u64 {
            if cycle % 7 == 0 && cycle < 200 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let src = (x >> 33) as usize % n;
                let dest = coord(&cfg, (x >> 45) as usize % n);
                p.packet(
                    src,
                    (x >> 20) as usize % NUM_VCS,
                    dest,
                    2 + (x >> 9) as usize % 3,
                    cycle,
                );
            }
            p.advance(1);
            if cycle % 16 == 15 {
                p.drain();
            }
        }
        for _ in 0..4 {
            p.advance(50);
            p.drain();
        }
    }
}

#[test]
fn snapshot_and_restore_inside_a_quiet_stretch() {
    let cfg = NetworkConfig::new(4, 4, Topology::Torus, 4);
    let n = cfg.num_nodes();
    let mut p = Pair::plain(cfg, None);
    p.packet(1, 0, Coord::new(2, 3), 3, 0);
    for _ in 0..40 {
        p.advance(1);
    }
    assert_eq!(p.drain(), 3);
    assert_eq!(p.awake_routers(), 0);
    p.advance(25);
    let (seq_snap, comp_snap) = (p.seq.snapshot(), p.comp.snapshot());
    let bytes = p.comp.save_state().expect("compiled checkpoints");

    // Diverge, then roll both engines back into the quiet stretch.
    p.packet(5, 1, Coord::new(0, 0), 4, p.cycle());
    p.advance(30);
    p.seq.restore(&seq_snap);
    p.comp.restore(&comp_snap);
    assert_eq!(p.awake_routers(), n, "restore wakes every router");
    p.compare();
    let replay = |p: &mut Pair| {
        let now = p.cycle();
        p.packet(9, 3, Coord::new(3, 1), 2, now + 3);
        for _ in 0..40 {
            p.advance(1);
        }
        assert_eq!(p.drain(), 2);
        p.advance(100);
    };
    replay(&mut p);

    // The durable checkpoint restores into a fresh engine just as well.
    p.seq.restore(&seq_snap);
    p.comp = CompiledNoc::new(cfg, IfaceConfig::default());
    p.comp.load_state(&bytes).expect("checkpoint loads");
    p.compare();
    replay(&mut p);
}

#[test]
fn packed_control_build_wakes_through_sliced_credit_words() {
    // A mesh: XY wormhole routing cannot deadlock, so every round
    // drains completely.
    let cfg = NetworkConfig::new(4, 4, Topology::Mesh, 2);
    let n = cfg.num_nodes();
    let iface = IfaceConfig::default();
    let comp = CompiledNoc::with_packed_control(cfg, iface, None);
    assert!(
        !comp.engine().program().slices.is_empty(),
        "credit links are sliced"
    );
    let mut p = Pair {
        cfg,
        seq: SeqNoc::new(cfg, iface),
        comp,
        same_spec: false,
    };
    p.advance(3);
    assert_eq!(p.awake_routers(), 0);
    for round in 0..3u64 {
        let now = p.cycle();
        for src in 0..n {
            let dest = coord(&cfg, (src * 5 + 3 + round as usize) % n);
            p.packet(src, (src + round as usize) % NUM_VCS, dest, 3, now + round);
        }
        for _ in 0..150 {
            p.advance(1);
        }
        assert_eq!(p.drain(), 3 * n);
        assert_eq!(p.awake_routers(), 0, "round {round}");
        p.advance(20);
    }
}
