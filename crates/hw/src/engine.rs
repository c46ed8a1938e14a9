//! The phase-level timing and energy engine.
//!
//! An accelerator simulation is a sequence of [`PhaseWork`] items. Each
//! phase's latency is the maximum of its compute, DRAM, and NoC components
//! (the paper overlaps off-chip communication and processing, §VI-A);
//! phases in one list run back-to-back. Pipeline overlap *across* kernels
//! (GNN ∥ RNN-A) is orchestrated by the accelerator models on top
//! (`idgnn-core` / `idgnn-baselines`) using [`overlap_cycles`].

use idgnn_model::Phase;
use idgnn_sparse::OpStats;

use crate::config::AcceleratorConfig;
use crate::dram::{AccessPattern, DramModel};
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::noc::TrafficPattern;
use crate::pe::RECONFIG_CYCLES;

/// One unit of schedulable work on the accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseWork {
    /// Which pipeline phase this is.
    pub phase: Phase,
    /// Scalar multiply/add counts.
    pub ops: OpStats,
    /// DRAM read volume, bytes.
    pub dram_read_bytes: u64,
    /// DRAM write volume, bytes.
    pub dram_write_bytes: u64,
    /// DRAM locality of this phase.
    pub dram_pattern: AccessPattern,
    /// On-chip transfer volume, bytes.
    pub noc_bytes: u64,
    /// On-chip traffic pattern.
    pub noc_pattern: TrafficPattern,
    /// Fraction of each PE's MAC units allocated to this phase (the
    /// scheduler's α or β).
    pub mac_share: f64,
    /// Load-balance efficiency across PEs (1.0 = perfect).
    pub parallel_efficiency: f64,
    /// Whether entering this phase requires a datapath reconfiguration.
    pub reconfigure: bool,
}

impl PhaseWork {
    /// A compute-only phase with full MAC allocation and perfect balance.
    pub fn compute(phase: Phase, ops: OpStats) -> Self {
        Self {
            phase,
            ops,
            dram_read_bytes: 0,
            dram_write_bytes: 0,
            dram_pattern: AccessPattern::Streaming,
            noc_bytes: 0,
            noc_pattern: TrafficPattern::NeighborShift,
            mac_share: 1.0,
            parallel_efficiency: 1.0,
            reconfigure: false,
        }
    }

    /// Total DRAM bytes (reads + writes).
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }
}

/// What bounded a phase's latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// MAC throughput.
    Compute,
    /// Off-chip bandwidth/latency.
    Memory,
    /// On-chip interconnect.
    Noc,
}

/// Timing of one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTiming {
    /// The phase.
    pub phase: Phase,
    /// Compute component, cycles.
    pub compute_cycles: f64,
    /// DRAM component, cycles.
    pub dram_cycles: f64,
    /// NoC component, cycles.
    pub noc_cycles: f64,
    /// Reconfiguration overhead, cycles.
    pub reconfig_cycles: f64,
    /// The binding constraint.
    pub bound: Bound,
}

impl PhaseTiming {
    /// Phase latency: overlapped max of the three components plus
    /// reconfiguration.
    pub fn total_cycles(&self) -> f64 {
        self.compute_cycles.max(self.dram_cycles).max(self.noc_cycles) + self.reconfig_cycles
    }
}

/// The timing/energy engine for one accelerator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Engine {
    config: AcceleratorConfig,
    dram: DramModel,
    energy: EnergyModel,
}

impl Engine {
    /// Builds an engine, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::HwError::InvalidConfig`] for a malformed config.
    pub fn new(config: AcceleratorConfig) -> crate::Result<Self> {
        config.validate()?;
        Ok(Self { config, dram: DramModel::new(&config), energy: EnergyModel::tsmc45() })
    }

    /// The configuration this engine models.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The DRAM model in use.
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// The energy model in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Times one phase.
    pub fn phase_timing(&self, w: &PhaseWork) -> PhaseTiming {
        let share = w.mac_share.clamp(0.0, 1.0);
        let eff = w.parallel_efficiency.clamp(0.0, 1.0);
        let allocated = self.config.total_macs() as f64 * share;
        let compute = crate::pe::mac_cycles(w.ops.mults.max(w.ops.adds), allocated, eff);
        let dram = self.dram.access_cycles(w.dram_bytes(), w.dram_pattern);
        let noc = self.config.topology.transfer_cycles(w.noc_bytes, w.noc_pattern);
        let bound = if compute >= dram && compute >= noc {
            Bound::Compute
        } else if dram >= noc {
            Bound::Memory
        } else {
            Bound::Noc
        };
        PhaseTiming {
            phase: w.phase,
            compute_cycles: compute,
            dram_cycles: dram,
            noc_cycles: noc,
            reconfig_cycles: if w.reconfigure { RECONFIG_CYCLES as f64 } else { 0.0 },
            bound,
        }
    }

    /// Energy of one phase.
    pub fn phase_energy(&self, w: &PhaseWork) -> EnergyBreakdown {
        let compute = self.energy.compute_pj(w.ops);
        // Each MAC touches ~3 operands (two reads, one partial write) in the
        // PE-local buffers; everything off-chip is staged through the GLB.
        let pe_buffer_bytes = w.ops.mults as f64 * 12.0;
        let glb_bytes = w.dram_bytes() as f64;
        let byte_hops = self.config.topology.byte_hops(w.noc_bytes, w.noc_pattern);
        let onchip = self.energy.onchip_pj(pe_buffer_bytes, glb_bytes, byte_hops);
        let offchip = self.energy.offchip_pj(w.dram_bytes());
        EnergyBreakdown::new(&self.energy, compute, onchip, offchip)
    }
}

/// Pipeline-overlap helper: total cycles of stage pairs where `b[t]` may run
/// concurrently with `a[t+1]` (the paper's Fig. 8: RNN-A of snapshot `t`
/// overlaps the GNN of snapshot `t+1`). Takes per-snapshot `(front, back)`
/// latencies; the critical path is
/// `Σ_t max(front_t, back_{t-1}) + back_last`.
pub fn overlap_cycles(stages: &[(f64, f64)]) -> f64 {
    let mut total = 0.0;
    let mut prev_back = 0.0;
    for &(front, back) in stages {
        total += front.max(prev_back);
        prev_back = back;
    }
    total + prev_back
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(AcceleratorConfig::paper_default()).unwrap()
    }

    fn work(mults: u64, dram: u64) -> PhaseWork {
        let mut w = PhaseWork::compute(Phase::Aggregation, OpStats { mults, adds: mults });
        w.dram_read_bytes = dram;
        w
    }

    #[test]
    fn compute_bound_phase() {
        let e = engine();
        let t = e.phase_timing(&work(16_384 * 100, 0));
        assert_eq!(t.bound, Bound::Compute);
        assert!((t.compute_cycles - 100.0).abs() < 1e-9);
        assert_eq!(t.dram_cycles, 0.0);
    }

    #[test]
    fn memory_bound_phase() {
        let e = engine();
        let t = e.phase_timing(&work(16, 1 << 24));
        assert_eq!(t.bound, Bound::Memory);
        assert!(t.total_cycles() >= t.dram_cycles);
    }

    #[test]
    fn mac_share_scales_compute_time() {
        let e = engine();
        let mut w = work(16_384 * 100, 0);
        w.mac_share = 0.5;
        let t = e.phase_timing(&w);
        assert!((t.compute_cycles - 200.0).abs() < 1e-9);
    }

    #[test]
    fn reconfiguration_adds_fixed_cost() {
        let e = engine();
        let mut w = work(0, 0);
        w.reconfigure = true;
        assert!((e.phase_timing(&w).total_cycles() - RECONFIG_CYCLES as f64).abs() < 1e-9);
    }

    #[test]
    fn dram_heavy_phase_energy_is_offchip_dominated() {
        let e = engine();
        let en = e.phase_energy(&work(10, 1 << 20));
        assert!(en.offchip_pj > en.compute_pj);
        assert!(en.offchip_pj > en.onchip_pj);
    }

    #[test]
    fn overlap_hides_shorter_stage() {
        // front = 10, back = 4 per snapshot: back_t hides under front_{t+1}.
        let stages = vec![(10.0, 4.0); 3];
        assert!((overlap_cycles(&stages) - (30.0 + 4.0)).abs() < 1e-9);
        // back longer than front: back dominates.
        let stages = vec![(4.0, 10.0); 3];
        assert!((overlap_cycles(&stages) - (4.0 + 10.0 + 10.0 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn overlap_of_empty_is_zero() {
        assert_eq!(overlap_cycles(&[]), 0.0);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut c = AcceleratorConfig::paper_default();
        c.pe_rows = 0;
        assert!(Engine::new(c).is_err());
    }
}
