//! The lane-batched NoC front-end: N independent network simulations
//! (shared topology; per-lane fault plans, stimuli and seeds) advanced
//! in lockstep by [`seqsim::BatchedEngine`].
//!
//! [`BatchedNoc`] builds one [`seqsim::SystemSpec`] per lane through the
//! same constructor as every sequential backend
//! ([`SeqNoc`](crate::SeqNoc) / [`CompiledNoc`](crate::CompiledNoc)),
//! proves the lanes structurally identical
//! ([`speccheck::check_batch`], the `batch-divergent-topology` lint),
//! analyzes and compiles the schedule *once* (lane 0 stands in for all),
//! and then fans per-lane host traffic in and per-lane delivered
//! streams, metrics and snapshots out. Every lane is bit-identical to a
//! scalar [`CompiledNoc`] run of the same configuration — the batched
//! differential suites enforce it. Like the compiled kernel, each lane
//! skips its quiet routers, and an all-quiet batch fast-forwards
//! (DESIGN §12.6); `peek_regs` reuses decodes while a router's state
//! version has not moved.
//!
//! `BatchedNoc` is *not* a [`NocEngine`](crate::NocEngine): the trait
//! models one simulation per engine, while every host access here
//! carries a lane index. Use [`SimBuilder::session`] to drive it.
//!
//! [`SimBuilder::session`]: crate::SimBuilder::session

use crate::engine::{ring_pending, HostPtrs, PeekCache};
use crate::seq::{attributed_profiler, build_noc_spec};
use noc_types::fault::FaultPlan;
use noc_types::{NetworkConfig, NUM_VCS};
use seqsim::{BatchedEngine, BatchedSnapshot, CompileOptions, DeltaStats, SimError, SystemSpec};
use std::sync::Arc;
use vc_router::block::{RING_ACC, RING_OUT, RING_STIM0};
use vc_router::{AccEntry, IfaceConfig, OutEntry, RouterRegs, StimEntry};

/// Wire version of [`BatchedNoc`] checkpoints (engine-distinct so a
/// checkpoint can never be restored into the wrong backend).
const CKPT_VERSION: u32 = 0x4254_0001; // "BT" 1

/// A checkpoint of the whole batch: engine state of every lane plus the
/// per-lane host-side ring pointers.
#[derive(Debug, Clone)]
pub struct BatchedNocSnapshot {
    engine: BatchedSnapshot,
    host: Vec<HostPtrs>,
}

/// The lane-batched NoC backend.
#[derive(Debug)]
pub struct BatchedNoc {
    cfg: NetworkConfig,
    iface_cfg: IfaceConfig,
    engine: BatchedEngine,
    wr_links: Vec<[usize; NUM_VCS]>,
    fwd_links: Vec<[usize; 4]>,
    depths: Vec<usize>,
    /// `host[lane]` — per-lane ring pointers.
    host: Vec<HostPtrs>,
    lane_faults: Vec<Option<Arc<FaultPlan>>>,
    /// Per (lane, node), at `lane * nodes + node`: the registers last
    /// decoded by [`peek_regs`](Self::peek_regs).
    peeked: PeekCache,
}

impl BatchedNoc {
    /// Build a fault-free batch of `lanes` identical networks.
    pub fn new(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        lanes: usize,
        threads: usize,
    ) -> Result<Self, SimError> {
        Self::with_faults(cfg, iface_cfg, vec![None; lanes], threads)
    }

    /// Build a batch with one optional [`FaultPlan`] per lane — the
    /// lane-divergent *contents* the structural lint explicitly allows.
    /// `lane_faults.len()` is the lane count.
    pub fn with_faults(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        lane_faults: Vec<Option<Arc<FaultPlan>>>,
        threads: usize,
    ) -> Result<Self, SimError> {
        Self::build(cfg, iface_cfg, lane_faults, threads, false)
    }

    /// [`with_faults`](Self::with_faults) with the **packed control
    /// plane** enabled: the spec routes every inter-router credit link
    /// through a [`vc_router::CreditStage`] identity block, the bitflow
    /// pass proves those 4-bit links bit-independent, and the compiler
    /// slices them so the batched engine lowers the stages to packed
    /// 64-lanes-per-op bitwise expressions (ROADMAP item 1). Observable
    /// behaviour — registers, deliveries, accounting, forward-link
    /// values — is bit-identical to the unpacked build; only the
    /// delta-eval accounting differs (the stages are extra blocks).
    pub fn with_packed_control(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        lane_faults: Vec<Option<Arc<FaultPlan>>>,
        threads: usize,
    ) -> Result<Self, SimError> {
        Self::build(cfg, iface_cfg, lane_faults, threads, true)
    }

    fn build(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        lane_faults: Vec<Option<Arc<FaultPlan>>>,
        threads: usize,
        packed_control: bool,
    ) -> Result<Self, SimError> {
        if lane_faults.is_empty() {
            return Err(SimError::Config(
                "batched engine needs at least one lane".into(),
            ));
        }
        for (lane, plan) in lane_faults.iter().enumerate() {
            if let Some(p) = plan {
                if p.num_nodes() != cfg.num_nodes() {
                    return Err(SimError::Config(format!(
                        "lane {lane} fault plan covers {} nodes, network has {}",
                        p.num_nodes(),
                        cfg.num_nodes()
                    )));
                }
            }
        }
        let n = cfg.num_nodes();
        let depths = vec![cfg.router.queue_depth; n];
        let mut specs: Vec<SystemSpec> = Vec::with_capacity(lane_faults.len());
        let mut wr_links = Vec::new();
        let mut fwd_links = Vec::new();
        for faults in &lane_faults {
            let (spec, wl, fl) = build_noc_spec(&cfg, iface_cfg, &depths, faults, packed_control);
            wr_links = wl;
            fwd_links = fl;
            specs.push(spec);
        }
        // The structural lint at graph level: one diagnostic per
        // divergent site, folded into a Config error.
        let graphs: Vec<speccheck::SpecGraph> =
            specs.iter().map(speccheck::SpecGraph::from_spec).collect();
        let batch_ds = speccheck::check_batch(&graphs);
        if !batch_ds.is_empty() {
            return Err(SimError::Config(
                batch_ds
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
            ));
        }
        // Analyze once — lane 0 stands in for every lane (the lint just
        // proved they share one graph). This is half the build cost of
        // N scalar `CompiledNoc`s, which each analyze their own copy.
        let analysis = speccheck::analyze_spec(&specs[0]);
        if analysis.has_errors() {
            let msg = analysis
                .diagnostics
                .iter()
                .filter(|d| d.severity == speccheck::Severity::Error)
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            return Err(SimError::Config(msg));
        }
        // The slice plan is sound by construction (bitflow only nominates
        // links whose writer semantics are bit-independent), so applying
        // it can reshape the packed tables but never the simulated
        // values. It is gated on the opt-in anyway: the base spec has no
        // sliceable links, and an empty plan keeps the word layout
        // byte-identical with earlier checkpoints.
        let opts = CompileOptions {
            order: analysis.schedule.map(|h| h.order),
            slice: if packed_control {
                analysis.bitflow.slice.clone()
            } else {
                Default::default()
            },
            ..CompileOptions::default()
        };
        let lanes = lane_faults.len();
        let engine = BatchedEngine::new(specs, &opts, threads)?;
        Ok(BatchedNoc {
            cfg,
            iface_cfg,
            engine,
            wr_links,
            fwd_links,
            depths,
            host: vec![HostPtrs::new(n); lanes],
            lane_faults,
            peeked: PeekCache::new(lanes * n),
        })
    }

    /// Engine name (bench/report rows).
    pub fn name(&self) -> &'static str {
        "seqsim-batched"
    }

    /// The simulated network configuration (shared by every lane).
    pub fn config(&self) -> NetworkConfig {
        self.cfg
    }

    /// Number of lanes in the batch.
    pub fn lanes(&self) -> usize {
        self.engine.lanes()
    }

    /// Current system cycle (lanes advance in lockstep).
    pub fn cycle(&self) -> u64 {
        self.engine.cycle()
    }

    /// The fault plan of `lane`, if any.
    pub fn fault_plan(&self, lane: usize) -> Option<&Arc<FaultPlan>> {
        self.lane_faults[lane].as_ref()
    }

    /// The underlying batched engine (program inspection).
    pub fn engine(&self) -> &BatchedEngine {
        &self.engine
    }

    /// Advance every active lane by `n` system cycles.
    pub fn run(&mut self, n: u64) {
        self.engine.run(n);
    }

    /// Advance every active lane by `n` system cycles, surfacing
    /// engine errors (straight-line programs cannot diverge, so this
    /// currently always succeeds; the `Result` keeps the host loop
    /// shaped like the scalar engines').
    pub fn try_run(&mut self, n: u64) -> Result<(), SimError> {
        self.engine.run(n);
        Ok(())
    }

    /// Is `lane` still advancing?
    pub fn lane_active(&self, lane: usize) -> bool {
        self.engine.lane_active(lane)
    }

    /// Retire `lane`: its device state freezes bit-exactly; host
    /// pointers keep their values for final drains.
    pub fn halt_lane(&mut self, lane: usize) {
        self.engine.halt_lane(lane);
    }

    /// Checkpoint the whole batch including per-lane host pointers.
    pub fn snapshot(&self) -> BatchedNocSnapshot {
        BatchedNocSnapshot {
            engine: self.engine.snapshot(),
            host: self.host.clone(),
        }
    }

    /// Restore a checkpoint taken with [`snapshot`](Self::snapshot).
    pub fn restore(&mut self, snap: &BatchedNocSnapshot) {
        self.engine.restore(&snap.engine);
        self.host = snap.host.clone();
    }

    /// Serialize the whole batch (engine state of every lane plus the
    /// per-lane host ring pointers) as durable checkpoint bytes — the
    /// batched counterpart of [`NocEngine::save_state`].
    ///
    /// [`NocEngine::save_state`]: crate::NocEngine::save_state
    pub fn save_state(&self) -> Option<Vec<u8>> {
        let mut e = seqsim::Enc::new();
        self.engine.snapshot().encode(&mut e);
        e.usize(self.host.len());
        for h in &self.host {
            h.encode(&mut e);
        }
        Some(seqsim::wire::seal(CKPT_VERSION, &e.into_bytes()))
    }

    /// Restore state captured by [`save_state`](Self::save_state) on an
    /// identically built batch.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] when the bytes are corrupt, truncated, the
    /// wrong engine's, or carry a different lane count.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), SimError> {
        let ckpt =
            |e: seqsim::WireError| SimError::Config(format!("seqsim-batched checkpoint: {e}"));
        let payload = seqsim::wire::open(bytes, CKPT_VERSION).map_err(ckpt)?;
        let mut d = seqsim::Dec::new(payload);
        let engine = BatchedSnapshot::decode(&mut d).map_err(ckpt)?;
        let lanes = d.usize().map_err(ckpt)?;
        if lanes != self.host.len() {
            return Err(SimError::Config(format!(
                "seqsim-batched checkpoint carries {lanes} lanes, batch has {}",
                self.host.len()
            )));
        }
        let mut host = Vec::with_capacity(lanes);
        for _ in 0..lanes {
            host.push(HostPtrs::decode(&mut d).map_err(ckpt)?);
        }
        if !d.finished() {
            return Err(ckpt(seqsim::WireError::new("trailing bytes")));
        }
        self.engine.restore(&engine);
        self.host = host;
        Ok(())
    }

    /// Has `lane` been quarantined? Returns the cycle and panic payload
    /// recorded at quarantine time.
    pub fn lane_poisoned(&self, lane: usize) -> Option<(u64, &str)> {
        self.engine.lane_poisoned(lane)
    }

    /// Quarantine `lane` from the host side (invariant violation found
    /// during analysis): the lane stops advancing, its last consistent
    /// state stays readable, remaining lanes are untouched.
    pub fn quarantine_lane(&mut self, lane: usize, cycle: u64, payload: String) {
        self.engine.quarantine_lane(lane, cycle, payload);
    }

    /// Chaos knob: arm a deliberate panic inside `lane`'s per-lane exec
    /// at system cycle `cycle` (exercises the quarantine path in tests).
    pub fn poison_lane_at(&mut self, lane: usize, cycle: u64) {
        self.engine.poison_lane_at(lane, cycle);
    }

    /// Device-side register file of one router in one lane. Reuses the
    /// last decode while the block's state version has not moved, so
    /// peeking a quiet router costs no pack/unpack.
    pub fn peek_regs(&self, lane: usize, node: usize) -> RouterRegs {
        let slot = lane * self.depths.len() + node;
        self.peeked
            .get(slot, self.engine.state_version(lane, node), || {
                RouterRegs::unpack(self.depths[node], &self.engine.peek_state(lane, node))
            })
    }

    /// Stimuli ring capacity (shared by every lane).
    pub fn stim_capacity(&self) -> usize {
        self.iface_cfg.stim_cap
    }

    /// Free stimuli slots of `(lane, node, vc)`.
    pub fn stim_free(&self, lane: usize, node: usize, vc: usize) -> usize {
        let dev_rd = self.peek_regs(lane, node).iface.stim_rd[vc];
        let fill = self.host[lane].stim_wr[node][vc].wrapping_sub(dev_rd);
        self.iface_cfg.stim_cap - fill as usize
    }

    /// Push one stimuli entry into `(lane, node, vc)`; `false` when the
    /// ring is full.
    pub fn push_stim(&mut self, lane: usize, node: usize, vc: usize, entry: StimEntry) -> bool {
        if self.stim_free(lane, node, vc) == 0 {
            return false;
        }
        let wr = &mut self.host[lane].stim_wr[node][vc];
        self.engine
            .side_write(lane, node, RING_STIM0 + vc, *wr as usize, entry.to_bits());
        *wr = wr.wrapping_add(1);
        self.engine
            .set_external(lane, self.wr_links[node][vc], *wr as u64);
        true
    }

    /// Drain the delivered-output ring of `(lane, node)`.
    pub fn drain_delivered(&mut self, lane: usize, node: usize) -> Vec<OutEntry> {
        let dev = self.peek_regs(lane, node).iface.out_wr;
        let rd = &mut self.host[lane].out_rd[node];
        let pending = ring_pending(*rd, dev, self.iface_cfg.out_cap, "output");
        let mut out = Vec::with_capacity(pending);
        for _ in 0..pending {
            out.push(OutEntry::from_bits(self.engine.side(lane).read(
                node,
                RING_OUT,
                *rd as usize,
            )));
            *rd = rd.wrapping_add(1);
        }
        out
    }

    /// Drain the access-delay ring of `(lane, node)`.
    pub fn drain_access(&mut self, lane: usize, node: usize) -> Vec<AccEntry> {
        let dev = self.peek_regs(lane, node).iface.acc_wr;
        let rd = &mut self.host[lane].acc_rd[node];
        let pending = ring_pending(*rd, dev, self.iface_cfg.acc_cap, "access-delay");
        let mut out = Vec::with_capacity(pending);
        for _ in 0..pending {
            out.push(AccEntry::from_bits(self.engine.side(lane).read(
                node,
                RING_ACC,
                *rd as usize,
            )));
            *rd = rd.wrapping_add(1);
        }
        out
    }

    /// The most recent flit on the forward link `(node, dir)` of one
    /// lane, if valid.
    pub fn probe_link(&self, lane: usize, node: usize, dir: usize) -> Option<OutEntry> {
        if self.engine.cycle() == 0 {
            return None;
        }
        let w =
            noc_types::LinkFwd::from_bits(self.engine.link_value(lane, self.fwd_links[node][dir]));
        w.valid.then(|| OutEntry {
            cycle: self.engine.cycle() - 1,
            vc: w.vc,
            flit: w.flit,
        })
    }

    /// Per-VC queue occupancy of one router in one lane.
    pub fn vc_occupancy(&self, lane: usize, node: usize) -> [u32; NUM_VCS] {
        let regs = self.peek_regs(lane, node);
        let mut occ = [0u32; NUM_VCS];
        for p in 0..noc_types::NUM_PORTS {
            for (vc, o) in occ.iter_mut().enumerate() {
                *o += regs.queues[p * NUM_VCS + vc].occupancy() as u32;
            }
        }
        occ
    }

    /// Delta statistics of one lane (bit-identical to a scalar
    /// `CompiledNoc` run of the same configuration).
    pub fn delta_stats(&self, lane: usize) -> DeltaStats {
        self.engine.stats(lane).clone()
    }

    /// Reset every lane's delta statistics.
    pub fn reset_delta_stats(&mut self) {
        self.engine.reset_stats();
    }

    /// Attach a kernel profiler (group-0 lane-aggregated attribution).
    pub fn attach_profiler(&mut self, sample_every: u64) {
        self.engine
            .attach_profiler(attributed_profiler(self.engine.spec(0), sample_every, 0));
    }

    /// Detach the profiler and render its report.
    pub fn take_profile(&mut self, wall_s: f64) -> Option<simtrace::ProfileReport> {
        self.engine
            .take_profiler()
            .map(|p| p.report("seqsim-batched", wall_s, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompiledNoc;
    use crate::NocEngine as _;
    use noc_types::{Coord, Flit, Topology};

    #[test]
    fn every_lane_matches_a_scalar_compiled_run() {
        let cfg = NetworkConfig::new(3, 2, Topology::Mesh, 2);
        let lanes = 3usize;
        let mut b = BatchedNoc::new(cfg, IfaceConfig::default(), lanes, 1).expect("build");
        let mut scalars: Vec<CompiledNoc> = (0..lanes)
            .map(|_| CompiledNoc::new(cfg, IfaceConfig::default()))
            .collect();
        // Lane-distinct traffic.
        for lane in 0..lanes {
            let dest = Coord::new((lane as u8) % 3, 1);
            let entry = StimEntry {
                ts: 0,
                flit: Flit::head_tail(dest, lane as u8),
            };
            assert!(b.push_stim(lane, lane, 0, entry));
            assert!(scalars[lane].push_stim(lane, 0, entry));
        }
        b.run(15);
        for s in &mut scalars {
            s.run(15);
        }
        for lane in 0..lanes {
            for node in 0..cfg.num_nodes() {
                assert_eq!(
                    b.peek_regs(lane, node),
                    scalars[lane].peek_regs(node),
                    "lane {lane} node {node}"
                );
                assert_eq!(
                    b.drain_delivered(lane, node),
                    scalars[lane].drain_delivered(node)
                );
                assert_eq!(b.drain_access(lane, node), scalars[lane].drain_access(node));
            }
            assert_eq!(
                b.delta_stats(lane),
                scalars[lane].delta_stats().expect("stats"),
                "lane {lane} stats"
            );
        }
    }

    #[test]
    fn per_lane_fault_plans_diverge_lanes_not_structure() {
        use noc_types::fault::Window;
        let cfg = NetworkConfig::new(3, 2, Topology::Mesh, 2);
        // Lane 1 stalls node 1 for a window; lanes 0 and 2 run clean.
        let mut p = FaultPlan::new(cfg.num_nodes(), 7);
        p.add_stall(1, Window::new(2, 8));
        let plan = Arc::new(p);
        let mut b = BatchedNoc::with_faults(
            cfg,
            IfaceConfig::default(),
            vec![None, Some(plan.clone()), None],
            1,
        )
        .expect("build");
        let mut clean = CompiledNoc::new(cfg, IfaceConfig::default());
        let mut faulty = CompiledNoc::with_faults(cfg, IfaceConfig::default(), Some(plan));
        let entry = StimEntry {
            ts: 0,
            flit: Flit::head_tail(Coord::new(2, 1), 0),
        };
        for lane in 0..3 {
            assert!(b.push_stim(lane, 0, 0, entry));
        }
        assert!(clean.push_stim(0, 0, entry));
        assert!(faulty.push_stim(0, 0, entry));
        b.run(20);
        clean.run(20);
        faulty.run(20);
        for node in 0..cfg.num_nodes() {
            assert_eq!(b.peek_regs(0, node), clean.peek_regs(node), "clean lane");
            assert_eq!(b.peek_regs(1, node), faulty.peek_regs(node), "faulty lane");
            assert_eq!(b.peek_regs(2, node), clean.peek_regs(node), "clean lane 2");
        }
    }

    #[test]
    fn snapshot_restore_round_trips_the_whole_batch() {
        let cfg = NetworkConfig::new(3, 2, Topology::Mesh, 2);
        let mut b = BatchedNoc::new(cfg, IfaceConfig::default(), 2, 2).expect("build");
        for lane in 0..2 {
            b.push_stim(
                lane,
                0,
                0,
                StimEntry {
                    ts: 0,
                    flit: Flit::head_tail(Coord::new(2, 1), lane as u8),
                },
            );
        }
        b.run(5);
        let snap = b.snapshot();
        b.run(10);
        let after: Vec<Vec<RouterRegs>> = (0..2)
            .map(|lane| (0..6).map(|n| b.peek_regs(lane, n)).collect())
            .collect();
        b.restore(&snap);
        assert_eq!(b.cycle(), 5);
        b.run(10);
        for lane in 0..2 {
            for n in 0..6 {
                assert_eq!(b.peek_regs(lane, n), after[lane][n], "lane {lane} node {n}");
            }
        }
    }

    #[test]
    fn packed_control_matches_scalar_compiled_bit_for_bit() {
        // The packed-control build inserts CreditStage blocks and slices
        // the credit links; every observable (registers, deliveries,
        // accounting, forward-link probes) must still equal a scalar
        // compiled run of the *base* spec. Delta stats are exempt: the
        // stages are extra blocks, so eval accounting legitimately
        // differs.
        let cfg = NetworkConfig::new(3, 2, Topology::Mesh, 2);
        let lanes = 3usize;
        let mut b =
            BatchedNoc::with_packed_control(cfg, IfaceConfig::default(), vec![None; lanes], 1)
                .expect("build");
        assert!(
            b.engine().program().bitwise_ops() > 0,
            "credit stages should lower to packed bitwise ops"
        );
        assert!(b.engine().program().packed_links() > 0);
        let mut scalars: Vec<CompiledNoc> = (0..lanes)
            .map(|_| CompiledNoc::new(cfg, IfaceConfig::default()))
            .collect();
        for lane in 0..lanes {
            let dest = Coord::new((lane as u8) % 3, 1);
            let entry = StimEntry {
                ts: 0,
                flit: Flit::head_tail(dest, lane as u8),
            };
            assert!(b.push_stim(lane, lane, 0, entry));
            assert!(scalars[lane].push_stim(lane, 0, entry));
        }
        b.run(15);
        for s in &mut scalars {
            s.run(15);
        }
        for lane in 0..lanes {
            for node in 0..cfg.num_nodes() {
                assert_eq!(
                    b.peek_regs(lane, node),
                    scalars[lane].peek_regs(node),
                    "lane {lane} node {node}"
                );
                assert_eq!(
                    b.drain_delivered(lane, node),
                    scalars[lane].drain_delivered(node)
                );
                assert_eq!(b.drain_access(lane, node), scalars[lane].drain_access(node));
                for dir in 0..4 {
                    assert_eq!(
                        b.probe_link(lane, node, dir),
                        scalars[lane].probe_link(node, dir),
                        "lane {lane} node {node} dir {dir}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_control_fault_lanes_still_match_scalar() {
        use noc_types::fault::Window;
        let cfg = NetworkConfig::new(3, 2, Topology::Torus, 2);
        let mut p = FaultPlan::new(cfg.num_nodes(), 11);
        p.add_stall(1, Window::new(2, 8));
        let plan = Arc::new(p);
        let mut b = BatchedNoc::with_packed_control(
            cfg,
            IfaceConfig::default(),
            vec![None, Some(plan.clone())],
            1,
        )
        .expect("build");
        assert!(b.engine().program().bitwise_ops() > 0);
        let mut clean = CompiledNoc::new(cfg, IfaceConfig::default());
        let mut faulty = CompiledNoc::with_faults(cfg, IfaceConfig::default(), Some(plan));
        let entry = StimEntry {
            ts: 0,
            flit: Flit::head_tail(Coord::new(2, 1), 0),
        };
        for lane in 0..2 {
            assert!(b.push_stim(lane, 0, 0, entry));
        }
        assert!(clean.push_stim(0, 0, entry));
        assert!(faulty.push_stim(0, 0, entry));
        b.run(20);
        clean.run(20);
        faulty.run(20);
        for node in 0..cfg.num_nodes() {
            assert_eq!(b.peek_regs(0, node), clean.peek_regs(node), "clean lane");
            assert_eq!(b.peek_regs(1, node), faulty.peek_regs(node), "faulty lane");
        }
    }

    #[test]
    fn packed_control_snapshot_restore_round_trips() {
        let cfg = NetworkConfig::new(3, 2, Topology::Mesh, 2);
        let mut b = BatchedNoc::with_packed_control(cfg, IfaceConfig::default(), vec![None; 2], 2)
            .expect("build");
        for lane in 0..2 {
            b.push_stim(
                lane,
                0,
                0,
                StimEntry {
                    ts: 0,
                    flit: Flit::head_tail(Coord::new(2, 1), lane as u8),
                },
            );
        }
        b.run(5);
        let snap = b.snapshot();
        b.run(10);
        let after: Vec<Vec<RouterRegs>> = (0..2)
            .map(|lane| (0..6).map(|n| b.peek_regs(lane, n)).collect())
            .collect();
        b.restore(&snap);
        assert_eq!(b.cycle(), 5);
        b.run(10);
        for lane in 0..2 {
            for n in 0..6 {
                assert_eq!(b.peek_regs(lane, n), after[lane][n], "lane {lane} node {n}");
            }
        }
    }

    #[test]
    fn mismatched_fault_plan_size_is_rejected() {
        let cfg = NetworkConfig::new(3, 2, Topology::Mesh, 2);
        let plan = Arc::new(FaultPlan::new(4, 0));
        let err = BatchedNoc::with_faults(cfg, IfaceConfig::default(), vec![Some(plan)], 1)
            .expect_err("wrong node count");
        assert!(err.to_string().contains("fault plan"));
    }

    #[test]
    fn zero_lanes_is_rejected() {
        let cfg = NetworkConfig::new(3, 2, Topology::Mesh, 2);
        assert!(BatchedNoc::new(cfg, IfaceConfig::default(), 0, 1).is_err());
    }
}
