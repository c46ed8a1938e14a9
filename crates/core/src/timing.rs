//! The timing model shared by I-DGNN and the baseline accelerators.
//!
//! The paper scales every baseline to the same MACs, storage, frequency and
//! bandwidth as I-DGNN (§VI-A), so all four accelerators time a snapshot the
//! same way: each phase of the executor's exact [`SnapshotCost`] goes through
//! the `idgnn-hw` engine. Only the per-phase [`PhasePolicy`] (MAC partition,
//! efficiency, NoC traffic) and the cross-snapshot pipeline rule differ.

use idgnn_hw::utilization::{trace, PhaseUtilization, UtilizationTrace};
use idgnn_hw::{
    AccessPattern, EnergyBreakdown, Engine, PhaseWork, PipelineSchedule, TrafficPattern,
};
use idgnn_model::{Phase, PhaseCost, SnapshotCost};
use idgnn_sparse::OpStats;

/// Per-snapshot simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotSim {
    /// Frontend (DIU / WComb) latency, cycles.
    pub frontend_cycles: f64,
    /// GNN-kernel latency (AComb + AG + CB), cycles.
    pub gnn_cycles: f64,
    /// RNN-A latency, cycles.
    pub rnn_a_cycles: f64,
    /// RNN-B latency, cycles.
    pub rnn_b_cycles: f64,
    /// Energy of this snapshot.
    pub energy: EnergyBreakdown,
    /// DRAM bytes moved.
    pub dram_bytes: u64,
    /// The MAC partition used.
    pub schedule: PipelineSchedule,
}

impl SnapshotSim {
    /// Latency with no cross-kernel overlap.
    pub fn serial_cycles(&self) -> f64 {
        self.frontend_cycles + self.gnn_cycles + self.rnn_a_cycles + self.rnn_b_cycles
    }
}

/// Whole-run simulation report.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-snapshot breakdowns.
    pub snapshots: Vec<SnapshotSim>,
    /// End-to-end latency with the accelerator's pipeline, cycles.
    pub total_cycles: f64,
    /// End-to-end latency without cross-kernel overlap, cycles.
    pub serial_cycles: f64,
    /// Total energy.
    pub energy: EnergyBreakdown,
    /// Total DRAM traffic, bytes.
    pub dram_bytes: u64,
    /// Total arithmetic operations executed.
    pub ops: OpStats,
    /// MAC/buffer utilization trace (Fig. 18), 16-cycle buckets.
    pub utilization: UtilizationTrace,
}

impl SimReport {
    /// Assembles a report from the per-snapshot sims, the end-to-end latency
    /// under the accelerator's own pipeline rule, the executed op count and
    /// the per-phase utilization records.
    pub fn assemble(
        snapshots: Vec<SnapshotSim>,
        total_cycles: f64,
        ops: OpStats,
        util_phases: &[PhaseUtilization],
    ) -> Self {
        let serial_cycles = snapshots.iter().map(SnapshotSim::serial_cycles).sum();
        let energy = snapshots.iter().fold(EnergyBreakdown::default(), |a, s| a + s.energy);
        let dram_bytes = snapshots.iter().map(|s| s.dram_bytes).sum();
        Self {
            snapshots,
            total_cycles,
            serial_cycles,
            energy,
            dram_bytes,
            ops,
            utilization: trace(util_phases, 16),
        }
    }

    /// Wall-clock seconds at `frequency_hz`.
    pub fn seconds(&self, frequency_hz: u64) -> f64 {
        self.total_cycles / frequency_hz as f64
    }
}

/// How one phase runs on a given accelerator: everything the engine needs
/// besides the phase's own op counts and DRAM traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhasePolicy {
    /// Fraction of the MAC array granted to the phase.
    pub mac_share: f64,
    /// Parallel (load-balance) efficiency of the granted MACs.
    pub efficiency: f64,
    /// On-chip network bytes attributed to the phase.
    pub noc_bytes: u64,
    /// Traffic pattern of those bytes.
    pub noc_pattern: TrafficPattern,
    /// Whether the datapath reconfigures before the phase.
    pub reconfigure: bool,
    /// MAC utilization the Fig. 18 trace credits to the phase.
    pub mac_utilization: f64,
    /// Buffer-occupancy change the trace credits to the phase.
    pub buffer_delta: f64,
}

/// DRAM access pattern of a phase: the frontend and the adjacency fusion
/// gather scattered rows, the GNN and RNN kernels stream.
fn dram_pattern(phase: Phase) -> AccessPattern {
    match phase {
        Phase::Diu | Phase::WComb | Phase::AComb => AccessPattern::Scattered,
        _ => AccessPattern::Streaming,
    }
}

/// Times every phase of one snapshot on `engine` under the per-phase
/// `policy` (called with the phase index and its cost), appends one
/// utilization record per phase to `util`, and sums the phases into a
/// [`SnapshotSim`] that records `schedule`.
pub fn time_snapshot(
    engine: &Engine,
    cost: &SnapshotCost,
    schedule: PipelineSchedule,
    mut policy: impl FnMut(usize, &PhaseCost) -> PhasePolicy,
    util: &mut Vec<PhaseUtilization>,
) -> SnapshotSim {
    let mut sim = SnapshotSim {
        frontend_cycles: 0.0,
        gnn_cycles: 0.0,
        rnn_a_cycles: 0.0,
        rnn_b_cycles: 0.0,
        energy: EnergyBreakdown::default(),
        dram_bytes: 0,
        schedule,
    };
    for (i, pc) in cost.phases.iter().enumerate() {
        let p = policy(i, pc);
        let w = PhaseWork {
            phase: pc.phase,
            ops: pc.ops,
            dram_read_bytes: pc.dram.total_reads(),
            dram_write_bytes: pc.dram.total_writes(),
            dram_pattern: dram_pattern(pc.phase),
            noc_bytes: p.noc_bytes,
            noc_pattern: p.noc_pattern,
            mac_share: p.mac_share,
            parallel_efficiency: p.efficiency,
            reconfigure: p.reconfigure,
        };
        let timing = engine.phase_timing(&w);
        let cycles = timing.total_cycles();
        match pc.phase {
            Phase::AComb | Phase::Aggregation | Phase::Combination => sim.gnn_cycles += cycles,
            Phase::RnnA => sim.rnn_a_cycles += cycles,
            Phase::RnnB => sim.rnn_b_cycles += cycles,
            _ => sim.frontend_cycles += cycles,
        }
        sim.energy = sim.energy + engine.phase_energy(&w);
        sim.dram_bytes += w.dram_bytes();
        util.push(PhaseUtilization {
            timing,
            mac_utilization: p.mac_utilization,
            buffer_delta: p.buffer_delta,
        });
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use idgnn_hw::AcceleratorConfig;
    use idgnn_model::cost::Traffic;

    fn policy(mac_share: f64) -> PhasePolicy {
        PhasePolicy {
            mac_share,
            efficiency: 1.0,
            noc_bytes: 0,
            noc_pattern: TrafficPattern::Broadcast,
            reconfigure: false,
            mac_utilization: mac_share,
            buffer_delta: 0.0,
        }
    }

    #[test]
    fn time_snapshot_routes_phases_to_buckets() {
        let engine = Engine::new(AcceleratorConfig::paper_default().scaled_down(64)).unwrap();
        let mut cost = SnapshotCost::default();
        cost.push(Phase::Diu, OpStats { mults: 100, adds: 100 }, Traffic::none());
        cost.push(Phase::Aggregation, OpStats { mults: 1000, adds: 1000 }, Traffic::none());
        cost.push(Phase::RnnA, OpStats { mults: 500, adds: 500 }, Traffic::none());
        cost.push(Phase::RnnB, OpStats { mults: 700, adds: 700 }, Traffic::none());
        let mut util = Vec::new();
        let even = PipelineSchedule::even();
        let sim = time_snapshot(&engine, &cost, even, |_, _| policy(1.0), &mut util);
        assert!(sim.frontend_cycles > 0.0);
        assert!(sim.gnn_cycles > 0.0);
        assert!(sim.rnn_a_cycles > 0.0);
        assert!(sim.rnn_b_cycles > 0.0);
        assert_eq!(util.len(), 4);
        assert!(sim.serial_cycles() > 0.0);
    }

    #[test]
    fn assemble_sums_components() {
        let engine = Engine::new(AcceleratorConfig::paper_default().scaled_down(64)).unwrap();
        let mut cost = SnapshotCost::default();
        cost.push(Phase::Aggregation, OpStats { mults: 100, adds: 100 }, Traffic::none());
        let mut util = Vec::new();
        let even = PipelineSchedule::even();
        let sim = time_snapshot(&engine, &cost, even, |_, _| policy(0.5), &mut util);
        let sims = vec![sim.clone(), sim.clone()];
        let report = SimReport::assemble(sims, 123.0, OpStats::default(), &util);
        assert_eq!(report.total_cycles, 123.0);
        assert_eq!(report.snapshots.len(), 2);
        assert_eq!(report.serial_cycles, 2.0 * sim.serial_cycles());
        assert_eq!(report.energy, sim.energy + sim.energy);
    }
}
