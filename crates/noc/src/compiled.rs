//! The compiled sequential backend — the hybrid schedule lowered to a
//! flat bytecode kernel.
//!
//! [`CompiledNoc`] builds the exact same [`seqsim::SystemSpec`] as
//! [`SeqNoc`](crate::SeqNoc) (shared constructor), then hands it to
//! [`seqsim::CompiledEngine`]: the SCC condensation and hybrid schedule
//! are lowered *once*, at build time, into a linear program over a
//! contiguous `u64` arena. The router's port-level comb structure
//! (room outputs depend on nothing, forward outputs only on incoming
//! room bits) is acyclic, so the whole NoC compiles to straight-line
//! code — two comb passes plus one update op per router per system
//! cycle, no HBR checks, no scheduler queue, no per-eval dispatch
//! hashing. The kernel skips quiet routers and fast-forwards all-quiet
//! stretches (DESIGN §11.5). Host access (stimuli rings, pointer peeks)
//! is unchanged: the side memory and external links behave exactly as
//! in the interpreting engine, so the two backends are bit-identical
//! and differ only in speed.

use crate::engine::{ring_pending, HostPtrs, NocEngine, PeekCache};
use crate::seq::{attributed_profiler, build_noc_spec};
use noc_types::fault::FaultPlan;
use noc_types::{NetworkConfig, NUM_VCS};
use seqsim::{CompileOptions, CompiledEngine, DeltaStats, SimError};
use std::sync::Arc;
use vc_router::block::{RING_ACC, RING_OUT, RING_STIM0};
use vc_router::{AccEntry, IfaceConfig, OutEntry, RouterRegs, StimEntry};

/// Wire version of [`CompiledNoc`] checkpoints (engine-distinct so a
/// checkpoint can never be restored into the wrong backend).
const CKPT_VERSION: u32 = 0x4350_0001; // "CP" 1

/// The compiled (bytecode-kernel) NoC engine.
pub struct CompiledNoc {
    cfg: NetworkConfig,
    iface_cfg: IfaceConfig,
    engine: CompiledEngine,
    /// External link ids of the stimuli write-pointer registers.
    wr_links: Vec<[usize; NUM_VCS]>,
    /// Link ids of each node's outgoing forward links.
    fwd_links: Vec<[usize; 4]>,
    /// Queue depth per node (homogeneous networks repeat one value).
    depths: Vec<usize>,
    host: HostPtrs,
    faults: Option<Arc<FaultPlan>>,
    /// Per node: the registers last decoded by
    /// [`peek_regs`](Self::peek_regs).
    peeked: PeekCache,
}

impl CompiledNoc {
    /// Compile the network into a bytecode kernel.
    pub fn new(cfg: NetworkConfig, iface_cfg: IfaceConfig) -> Self {
        Self::with_faults(cfg, iface_cfg, None)
    }

    /// Compile with a deterministic fault plan baked into the shared
    /// router kind, identically to the interpreting backends.
    pub fn with_faults(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let n = cfg.num_nodes();
        Self::with_depths_and_faults(cfg, iface_cfg, &vec![cfg.router.queue_depth; n], faults)
    }

    /// Compile a *heterogeneous* network: per-node queue depths, one
    /// shared kind per distinct depth (paper §7.1).
    pub fn with_depths(cfg: NetworkConfig, iface_cfg: IfaceConfig, depths: &[usize]) -> Self {
        Self::with_depths_and_faults(cfg, iface_cfg, depths, None)
    }

    /// The fully-general constructor: per-node depths plus an optional
    /// fault plan.
    pub fn with_depths_and_faults(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        depths: &[usize],
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        Self::build(cfg, iface_cfg, depths, faults, false)
    }

    /// [`with_faults`](Self::with_faults) over the packed control plane
    /// of [`crate::BatchedNoc::with_packed_control`]: every credit link
    /// runs through a [`vc_router::CreditStage`] and the compiler slices
    /// the credit links into per-bit arena words. Router registers,
    /// deliveries and forward links are bit-identical to the plain
    /// build; the stages add blocks to the delta accounting.
    pub fn with_packed_control(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let depths = vec![cfg.router.queue_depth; cfg.num_nodes()];
        Self::build(cfg, iface_cfg, &depths, faults, true)
    }

    fn build(
        cfg: NetworkConfig,
        iface_cfg: IfaceConfig,
        depths: &[usize],
        faults: Option<Arc<FaultPlan>>,
        packed_control: bool,
    ) -> Self {
        let (spec, wr_links, fwd_links) =
            build_noc_spec(&cfg, iface_cfg, depths, &faults, packed_control);
        // Lower the analyzer's hybrid-schedule order when one exists:
        // the compiled program visits blocks in the same condensation
        // order the interpreting engine would, so profiles and traces
        // line up row for row.
        let analysis = speccheck::analyze_spec(&spec);
        let opts = CompileOptions {
            order: analysis.schedule.map(|h| h.order),
            slice: if packed_control {
                analysis.bitflow.slice
            } else {
                Default::default()
            },
            ..CompileOptions::default()
        };
        let engine = CompiledEngine::with_options(spec, &opts);
        let n = cfg.num_nodes();
        CompiledNoc {
            cfg,
            iface_cfg,
            engine,
            wr_links,
            fwd_links,
            depths: depths.to_vec(),
            host: HostPtrs::new(n),
            faults,
            peeked: PeekCache::new(n),
        }
    }

    /// The underlying compiled engine (program inspection, disassembly).
    pub fn engine(&self) -> &CompiledEngine {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut CompiledEngine {
        &mut self.engine
    }

    /// Checkpoint the whole simulator including the host-side ring
    /// pointers (paper §5.1's full-address-map access).
    pub fn snapshot(&self) -> (seqsim::CompiledSnapshot, HostPtrs) {
        (self.engine.snapshot(), self.host.clone())
    }

    /// Restore a checkpoint taken with [`snapshot`](Self::snapshot).
    pub fn restore(&mut self, snap: &(seqsim::CompiledSnapshot, HostPtrs)) {
        self.engine.restore(&snap.0);
        self.host = snap.1.clone();
    }

    /// Device-side register file of one router (a host "memory peek").
    /// Reuses the last decode while the node's state version has not
    /// moved, so peeking a quiet router costs no pack/unpack.
    pub fn peek_regs(&self, node: usize) -> RouterRegs {
        self.peeked.get(node, self.engine.state_version(node), || {
            RouterRegs::unpack(self.depths[node], &self.engine.peek_state(node))
        })
    }
}

impl NocEngine for CompiledNoc {
    fn name(&self) -> &'static str {
        "seqsim-compiled"
    }

    fn config(&self) -> NetworkConfig {
        self.cfg
    }

    fn cycle(&self) -> u64 {
        self.engine.cycle()
    }

    fn step(&mut self) {
        self.engine.step();
    }

    fn try_step(&mut self) -> Result<(), SimError> {
        self.engine.try_step()
    }

    fn run(&mut self, n: u64) {
        self.engine.run(n);
    }

    fn try_run(&mut self, n: u64) -> Result<(), SimError> {
        self.engine.try_run(n)
    }

    fn attach_instrumentation(&mut self, registry: &simtrace::Registry, tracer: &simtrace::Tracer) {
        self.engine
            .set_instrumentation(seqsim::KernelInstr::with_registry(
                registry,
                tracer.clone(),
                "seqsim-compiled",
            ));
    }

    fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    fn probe_link(&self, node: usize, dir: usize) -> Option<vc_router::OutEntry> {
        if self.engine.cycle() == 0 {
            return None;
        }
        let w = noc_types::LinkFwd::from_bits(self.engine.link_value(self.fwd_links[node][dir]));
        w.valid.then(|| vc_router::OutEntry {
            cycle: self.engine.cycle() - 1,
            vc: w.vc,
            flit: w.flit,
        })
    }

    fn vc_occupancy(&self, node: usize) -> Option<[u32; NUM_VCS]> {
        let regs = self.peek_regs(node);
        let mut occ = [0u32; NUM_VCS];
        for p in 0..noc_types::NUM_PORTS {
            for (vc, o) in occ.iter_mut().enumerate() {
                *o += regs.queues[p * NUM_VCS + vc].occupancy() as u32;
            }
        }
        Some(occ)
    }

    fn attach_profiler(&mut self, sample_every: u64) -> bool {
        self.engine
            .attach_profiler(attributed_profiler(self.engine.spec(), sample_every, 0));
        true
    }

    fn take_profile(&mut self, wall_s: f64) -> Option<simtrace::ProfileReport> {
        self.engine
            .take_profiler()
            .map(|p| p.report("seqsim-compiled", wall_s, 0))
    }

    fn stim_capacity(&self) -> usize {
        self.iface_cfg.stim_cap
    }

    fn stim_free(&self, node: usize, vc: usize) -> usize {
        let dev_rd = self.peek_regs(node).iface.stim_rd[vc];
        let fill = self.host.stim_wr[node][vc].wrapping_sub(dev_rd);
        self.iface_cfg.stim_cap - fill as usize
    }

    fn push_stim(&mut self, node: usize, vc: usize, entry: StimEntry) -> bool {
        if self.stim_free(node, vc) == 0 {
            return false;
        }
        let wr = &mut self.host.stim_wr[node][vc];
        self.engine
            .side_write(node, RING_STIM0 + vc, *wr as usize, entry.to_bits());
        *wr = wr.wrapping_add(1);
        self.engine
            .set_external(self.wr_links[node][vc], *wr as u64);
        true
    }

    fn drain_delivered(&mut self, node: usize) -> Vec<OutEntry> {
        let dev = self.peek_regs(node).iface.out_wr;
        let rd = &mut self.host.out_rd[node];
        let pending = ring_pending(*rd, dev, self.iface_cfg.out_cap, "output");
        let mut out = Vec::with_capacity(pending);
        for _ in 0..pending {
            out.push(OutEntry::from_bits(self.engine.side().read(
                node,
                RING_OUT,
                *rd as usize,
            )));
            *rd = rd.wrapping_add(1);
        }
        out
    }

    fn drain_access(&mut self, node: usize) -> Vec<AccEntry> {
        let dev = self.peek_regs(node).iface.acc_wr;
        let rd = &mut self.host.acc_rd[node];
        let pending = ring_pending(*rd, dev, self.iface_cfg.acc_cap, "access-delay");
        let mut out = Vec::with_capacity(pending);
        for _ in 0..pending {
            out.push(AccEntry::from_bits(self.engine.side().read(
                node,
                RING_ACC,
                *rd as usize,
            )));
            *rd = rd.wrapping_add(1);
        }
        out
    }

    fn delta_stats(&self) -> Option<DeltaStats> {
        Some(self.engine.stats().clone())
    }

    fn reset_delta_stats(&mut self) {
        self.engine.reset_stats();
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut e = seqsim::Enc::new();
        self.engine.snapshot().encode(&mut e);
        self.host.encode(&mut e);
        Some(seqsim::wire::seal(CKPT_VERSION, &e.into_bytes()))
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), SimError> {
        let ckpt =
            |e: seqsim::WireError| SimError::Config(format!("seqsim-compiled checkpoint: {e}"));
        let payload = seqsim::wire::open(bytes, CKPT_VERSION).map_err(ckpt)?;
        let mut d = seqsim::Dec::new(payload);
        let snap = seqsim::CompiledSnapshot::decode(&mut d).map_err(ckpt)?;
        let host = HostPtrs::decode(&mut d).map_err(ckpt)?;
        if !d.finished() {
            return Err(ckpt(seqsim::WireError::new("trailing bytes")));
        }
        self.engine.restore(&snap);
        self.host = host;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeqNoc;
    use noc_types::{Coord, Flit, Topology};
    use seqsim::ProgramMode;

    #[test]
    fn noc_compiles_to_straight_line() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let e = CompiledNoc::new(cfg, IfaceConfig::default());
        // Room outputs are comb level 0, forward outputs level 1: the
        // whole mesh must lower to straight-line code, no fixed point.
        match e.engine().program().mode {
            ProgramMode::StraightLine { levels } => assert_eq!(levels, 2),
            ProgramMode::FixedPoint { .. } => panic!("NoC comb graph must be acyclic"),
        }
    }

    #[test]
    fn single_flit_packet_crosses_torus() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let mut e = CompiledNoc::new(cfg, IfaceConfig::default());
        let dest = Coord::new(2, 1);
        let entry = StimEntry {
            ts: 0,
            flit: Flit::head_tail(dest, 0),
        };
        assert!(e.push_stim(0, 0, entry));
        e.run(12);
        let dest_node = cfg.shape.node_id(dest).index();
        let got = e.drain_delivered(dest_node);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].flit, entry.flit);
        // Straight-line program: exactly one update per router per
        // cycle, zero re-evaluations, loaded or not.
        let stats = e.delta_stats().unwrap();
        assert_eq!(stats.system_cycles, 12);
        assert_eq!(stats.delta_cycles, 12 * 9);
        assert_eq!(stats.re_evaluations, 0);
    }

    #[test]
    fn matches_interpreting_backend_register_for_register() {
        let cfg = NetworkConfig::new(3, 2, Topology::Mesh, 2);
        let mut a = SeqNoc::new(cfg, IfaceConfig::default());
        let mut b = CompiledNoc::new(cfg, IfaceConfig::default());
        for (node, vc, dest) in [(0, 0, Coord::new(2, 1)), (3, 1, Coord::new(0, 0))] {
            let entry = StimEntry {
                ts: 1,
                flit: Flit::head_tail(dest, 0),
            };
            assert!(a.push_stim(node, vc, entry));
            assert!(b.push_stim(node, vc, entry));
        }
        for cycle in 0..20 {
            a.step();
            b.step();
            for node in 0..cfg.num_nodes() {
                assert_eq!(
                    a.peek_regs(node),
                    b.peek_regs(node),
                    "cycle {cycle} node {node}"
                );
            }
        }
        for node in 0..cfg.num_nodes() {
            assert_eq!(a.drain_delivered(node), b.drain_delivered(node));
            assert_eq!(a.drain_access(node), b.drain_access(node));
        }
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let cfg = NetworkConfig::new(3, 3, Topology::Torus, 4);
        let mut e = CompiledNoc::new(cfg, IfaceConfig::default());
        e.push_stim(
            0,
            0,
            StimEntry {
                ts: 0,
                flit: Flit::head_tail(Coord::new(2, 2), 0),
            },
        );
        e.run(5);
        let snap = e.snapshot();
        e.run(10);
        let after: Vec<RouterRegs> = (0..9).map(|n| e.peek_regs(n)).collect();
        e.restore(&snap);
        e.run(10);
        for n in 0..9 {
            assert_eq!(e.peek_regs(n), after[n], "node {n}");
        }
    }
}
