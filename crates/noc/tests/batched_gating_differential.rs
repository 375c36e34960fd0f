//! Differential suite for the activity-gated batched engine.
//!
//! `BatchedNoc` skips, per lane, the routers that went quiet in that
//! lane and fast-forwards lane groups whose lanes are all quiet (DESIGN
//! §12.6). Gating must be invisible: after every advance each lane has
//! to match a `CompiledNoc` run of the same lane register for register,
//! link for link and in its delta statistics, and the drained output
//! and access-delay rings must be equal. The cases target what only
//! the batch has: lanes with divergent activity, host calls that hit
//! one lane inside another lane's quiet stretch (halt, chaos, restore),
//! packed credit words whose writes must wake single lanes, and lane
//! groups on several threads.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc::{random_plan, BatchedNoc, CompiledNoc, FaultPlan, NocEngine};
use noc_types::{Coord, Flit, FlitKind, NetworkConfig, Topology, NUM_VCS};
use std::sync::Arc;
use vc_router::{IfaceConfig, StimEntry};

/// A batch and one scalar reference per lane, driven by the same host
/// calls.
struct Lanes {
    cfg: NetworkConfig,
    batch: BatchedNoc,
    refs: Vec<CompiledNoc>,
    /// Halted lanes: their references stop advancing.
    halted: Vec<bool>,
    /// Quarantined lanes: no longer compared.
    poisoned: Vec<bool>,
}

impl Lanes {
    fn new(cfg: NetworkConfig, faults: Vec<Option<Arc<FaultPlan>>>, threads: usize) -> Lanes {
        let iface = IfaceConfig::default();
        let refs = faults
            .iter()
            .map(|f| CompiledNoc::with_faults(cfg, iface, f.clone()))
            .collect();
        let lanes = faults.len();
        Lanes {
            cfg,
            batch: BatchedNoc::with_faults(cfg, iface, faults, threads).expect("batch builds"),
            refs,
            halted: vec![false; lanes],
            poisoned: vec![false; lanes],
        }
    }

    fn packed_control(cfg: NetworkConfig, lanes: usize) -> Lanes {
        let iface = IfaceConfig::default();
        Lanes {
            cfg,
            batch: BatchedNoc::with_packed_control(cfg, iface, vec![None; lanes], 1)
                .expect("batch builds"),
            refs: (0..lanes)
                .map(|_| CompiledNoc::with_packed_control(cfg, iface, None))
                .collect(),
            halted: vec![false; lanes],
            poisoned: vec![false; lanes],
        }
    }

    fn lanes(&self) -> usize {
        self.refs.len()
    }

    fn cycle(&self) -> u64 {
        self.batch.cycle()
    }

    /// Routers (and stages) that lane `lane` evaluates next cycle.
    fn awake(&self, lane: usize) -> usize {
        self.batch.engine().active_blocks(lane)
    }

    fn push(&mut self, lane: usize, node: usize, vc: usize, entry: StimEntry) {
        let a = self.batch.push_stim(lane, node, vc, entry);
        let b = self.refs[lane].push_stim(node, vc, entry);
        assert_eq!(
            a, b,
            "lane {lane}: push accepted differently at {node}/{vc}"
        );
        assert!(a, "lane {lane}: stimuli ring full at node {node} vc {vc}");
    }

    /// Push a `len`-flit packet (`len >= 2`) from `src` to `dest` in one
    /// lane, every body flit carrying the same payload.
    fn packet(&mut self, lane: usize, src: usize, vc: usize, dest: Coord, len: usize, ts: u64) {
        self.push(
            lane,
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
            let flit = Flit {
                kind,
                payload: 0xBEEF,
            };
            self.push(lane, src, vc, StimEntry { ts, flit });
        }
    }

    /// The batch takes all `k` cycles in one run (fast-forwarding its
    /// quiet stretches); each running reference does the same.
    fn advance(&mut self, k: u64) {
        self.batch.run(k);
        for (lane, r) in self.refs.iter_mut().enumerate() {
            if !self.halted[lane] && !self.poisoned[lane] {
                r.run(k);
            }
        }
        self.compare();
    }

    fn compare(&self) {
        let c = self.cycle();
        let links = self.batch.engine().spec(0).links().len();
        for (lane, r) in self.refs.iter().enumerate() {
            if self.poisoned[lane] {
                continue;
            }
            assert!(self.batch.lane_poisoned(lane).is_none(), "lane {lane}");
            let running = !self.halted[lane];
            if running {
                assert_eq!(r.cycle(), c, "lane {lane}");
            }
            for node in 0..self.cfg.num_nodes() {
                assert_eq!(
                    self.batch.peek_regs(lane, node),
                    r.peek_regs(node),
                    "cycle {c} lane {lane} node {node}"
                );
                for dir in 0..4 {
                    if running {
                        assert_eq!(
                            self.batch.probe_link(lane, node, dir),
                            r.probe_link(node, dir),
                            "cycle {c} lane {lane} node {node} dir {dir}"
                        );
                    }
                }
            }
            for l in 0..links {
                assert_eq!(
                    self.batch.engine().link_value(lane, l),
                    r.engine().link_value(l),
                    "cycle {c} lane {lane} link {l}"
                );
            }
            assert_eq!(
                self.batch.delta_stats(lane),
                r.delta_stats().expect("compiled stats"),
                "cycle {c} lane {lane}"
            );
        }
    }

    /// Drain both sides' rings of every compared lane, assert them
    /// equal, return the delivered flits per lane.
    fn drain(&mut self) -> Vec<usize> {
        let mut delivered = vec![0; self.lanes()];
        for (lane, total) in delivered.iter_mut().enumerate() {
            if self.poisoned[lane] {
                continue;
            }
            for node in 0..self.cfg.num_nodes() {
                let out = self.batch.drain_delivered(lane, node);
                assert_eq!(
                    out,
                    self.refs[lane].drain_delivered(node),
                    "lane {lane}: delivered at {node}"
                );
                assert_eq!(
                    self.batch.drain_access(lane, node),
                    self.refs[lane].drain_access(node),
                    "lane {lane}: access log at {node}"
                );
                *total += out.len();
            }
        }
        delivered
    }

    /// Every compared lane's registers, for cross-batch equality.
    fn regs(&self) -> Vec<Vec<vc_router::RouterRegs>> {
        (0..self.lanes())
            .map(|lane| {
                (0..self.cfg.num_nodes())
                    .map(|node| self.batch.peek_regs(lane, node))
                    .collect()
            })
            .collect()
    }
}

fn coord(cfg: &NetworkConfig, node: usize) -> Coord {
    cfg.shape.coords().nth(node).expect("node in range")
}

/// One idle lane, one bursting lane and one lane with a fault plan and
/// random traffic. Returns the delivered totals and final registers.
fn divergent_lanes(threads: usize) -> (Vec<usize>, Vec<Vec<vc_router::RouterRegs>>) {
    let cfg = NetworkConfig::new(4, 4, Topology::Torus, 2);
    let n = cfg.num_nodes();
    let plan = random_plan(&cfg, 11, 300);
    let mut p = Lanes::new(cfg, vec![None, None, Some(Arc::new(plan))], threads);
    let mut delivered = vec![0; 3];
    let mut idle_while_busy = 0;
    let mut x = 2007u64;
    for cycle in 0..300u64 {
        if cycle % 40 == 5 && cycle < 200 {
            for src in (cycle as usize % 3..n).step_by(3) {
                let dest = coord(&cfg, (src * 7 + 5) % n);
                p.packet(1, src, src % NUM_VCS, dest, 2 + src % 3, cycle);
            }
        }
        if cycle % 7 == 0 && cycle < 200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = (x >> 33) as usize % n;
            let dest = coord(&cfg, (x >> 45) as usize % n);
            p.packet(2, src, (x >> 20) as usize % NUM_VCS, dest, 2, cycle);
        }
        p.advance(1);
        if p.awake(0) == 0 && p.awake(1) > 0 {
            idle_while_busy += 1;
        }
        if cycle % 16 == 15 {
            for (t, d) in delivered.iter_mut().zip(p.drain()) {
                *t += d;
            }
        }
    }
    assert!(
        idle_while_busy >= 30,
        "the idle lane slept for only {idle_while_busy} busy cycles"
    );
    for _ in 0..4 {
        p.advance(50);
        for (t, d) in delivered.iter_mut().zip(p.drain()) {
            *t += d;
        }
    }
    assert_eq!(delivered[0], 0);
    assert!(delivered[1] > 0 && delivered[2] > 0);
    assert_eq!(p.awake(1), 0, "the bursting lane is quiet again");
    (delivered, p.regs())
}

#[test]
fn divergent_lanes_match_their_scalar_runs_on_one_and_two_threads() {
    let one = divergent_lanes(1);
    let two = divergent_lanes(2);
    assert_eq!(one, two, "threads(2) must equal threads(1)");
}

#[test]
fn future_stimulus_and_halt_inside_a_quiet_stretch() {
    let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
    let mut p = Lanes::new(cfg, vec![None; 3], 2);
    p.advance(5);
    assert!(
        (0..3).all(|lane| p.awake(lane) == 0),
        "an idle batch goes quiet"
    );
    let ts = p.cycle() + 40;
    p.push(
        1,
        4,
        1,
        StimEntry {
            ts,
            flit: Flit::head_tail(Coord::new(0, 0), 9),
        },
    );
    // Lane 1's router 4 waits for the timestamp awake; the others sleep.
    p.advance(10);
    assert_eq!((p.awake(0), p.awake(1), p.awake(2)), (0, 1, 0));
    // Retire lane 2 while it is quiet, then send lane 0 a packet.
    p.batch.halt_lane(2);
    p.halted[2] = true;
    p.advance(7);
    let now = p.cycle();
    p.packet(0, 8, 2, Coord::new(1, 1), 3, now + 2);
    while p.cycle() < ts + 30 {
        p.advance(1);
    }
    assert_eq!(p.drain(), vec![3, 1, 0]);
    assert!(!p.batch.lane_active(2));
    p.advance(300);
    assert_eq!(p.drain(), vec![0, 0, 0]);
}

#[test]
fn poison_inside_a_quiet_stretch_fires_at_its_cycle() {
    for threads in [1usize, 2] {
        let cfg = NetworkConfig::new(4, 4, Topology::Torus, 2);
        let mut p = Lanes::new(cfg, vec![None; 3], threads);
        p.advance(5);
        assert!((0..3).all(|lane| p.awake(lane) == 0));
        let at = p.cycle() + 30;
        p.batch.poison_lane_at(1, at);
        // Lane 1's reference cannot follow it into quarantine.
        p.poisoned[1] = true;
        p.advance(20);
        assert!(p.batch.lane_poisoned(1).is_none(), "not before its cycle");
        // The whole batch is quiet: the run fast-forwards up to the
        // poison cycle, fires it, and fast-forwards on.
        p.advance(100);
        let (cycle, payload) = p.batch.lane_poisoned(1).expect("chaos fired");
        assert_eq!(cycle, at, "threads {threads}");
        assert!(payload.contains("chaos"), "{payload}");
        assert!(!p.batch.lane_active(1));
        let now = p.cycle();
        p.packet(2, 3, 0, Coord::new(2, 2), 2, now + 5);
        for _ in 0..40 {
            p.advance(1);
        }
        assert_eq!(p.drain(), vec![0, 0, 2]);
    }
}

#[test]
fn snapshot_restore_and_checkpoint_inside_a_quiet_stretch() {
    let cfg = NetworkConfig::new(4, 4, Topology::Torus, 4);
    let n = cfg.num_nodes();
    let mut p = Lanes::new(cfg, vec![None; 2], 1);
    p.packet(0, 1, 0, Coord::new(2, 3), 3, 0);
    for _ in 0..40 {
        p.advance(1);
    }
    assert_eq!(p.drain(), vec![3, 0]);
    assert_eq!((p.awake(0), p.awake(1)), (0, 0));
    p.advance(25);
    let snap = p.batch.snapshot();
    let ref_snaps: Vec<_> = p.refs.iter().map(CompiledNoc::snapshot).collect();
    let bytes = p.batch.save_state().expect("batched checkpoints");

    // Diverge, then roll both sides back into the quiet stretch.
    p.packet(1, 5, 1, Coord::new(0, 0), 4, p.cycle());
    p.packet(0, 6, 2, Coord::new(3, 3), 2, p.cycle());
    p.advance(30);
    p.batch.restore(&snap);
    for (r, s) in p.refs.iter_mut().zip(&ref_snaps) {
        r.restore(s);
    }
    assert_eq!(
        (p.awake(0), p.awake(1)),
        (n, n),
        "restore wakes every router"
    );
    p.compare();
    let replay = |p: &mut Lanes| {
        let now = p.cycle();
        p.packet(1, 9, 3, Coord::new(3, 1), 2, now + 3);
        for _ in 0..40 {
            p.advance(1);
        }
        assert_eq!(p.drain(), vec![0, 2]);
        p.advance(100);
    };
    replay(&mut p);

    // The durable checkpoint restores into a fresh batch just as well.
    for (r, s) in p.refs.iter_mut().zip(&ref_snaps) {
        r.restore(s);
    }
    p.batch = BatchedNoc::new(cfg, IfaceConfig::default(), 2, 1).expect("batch builds");
    p.batch.load_state(&bytes).expect("checkpoint loads");
    p.compare();
    replay(&mut p);
}

#[test]
fn packed_control_credit_back_pressure_wakes_single_lanes() {
    // Depth-2 queues under a hot load: credits run out and come back
    // through the packed `CreditStage` expression ops, whose writes
    // must wake the waiting router in exactly the lanes whose bit
    // changed. A mesh drains completely (XY routing cannot deadlock).
    let cfg = NetworkConfig::new(4, 4, Topology::Mesh, 2);
    let n = cfg.num_nodes();
    let mut p = Lanes::packed_control(cfg, 3);
    assert!(p.batch.engine().program().bitwise_ops() > 0);
    p.advance(3);
    for round in 0..3usize {
        let now = p.cycle();
        let mut expect = vec![0usize; 3];
        // Lane 0: every node floods one hot corner; lane 1: a light
        // permutation; lane 2 idles until the last round.
        for src in 0..n {
            p.packet(0, src, (src + round) % NUM_VCS, Coord::new(3, 3), 4, now);
            expect[0] += 4;
            if src % 4 == round {
                let dest = coord(&cfg, (src * 5 + 3) % n);
                p.packet(1, src, src % NUM_VCS, dest, 3, now + round as u64);
                expect[1] += 3;
            }
        }
        if round == 2 {
            p.packet(2, 0, 0, Coord::new(3, 0), 2, now);
            expect[2] += 2;
        }
        for _ in 0..400 {
            p.advance(1);
        }
        assert_eq!(p.drain(), expect, "round {round}");
        p.advance(20);
    }
}
