//! The complete I-DGNN accelerator simulation.
//!
//! Orchestration follows the paper's Fig. 6/8: the functional executors of
//! `idgnn-model` supply exact per-phase operation counts and DRAM volumes
//! plus the structural facts of every snapshot's operator; this module adds
//! the architecture — MAC partitioning from the analytical scheduler
//! (Eqs. 16–22), torus-rotation NoC traffic from the dataflow (Fig. 9),
//! per-phase timing/energy from the shared [`time_snapshot`] model, and the
//! GNN(t) ∥ RNN-A(t−1) pipeline overlap (Fig. 8).

use idgnn_graph::DynamicGraph;
use idgnn_hw::utilization::PhaseUtilization;
use idgnn_hw::{overlap_cycles, AcceleratorConfig, Engine, TrafficPattern};
use idgnn_model::exec::{OnePassOptions, OperatorFacts};
use idgnn_model::{
    cost::dense_bytes, exec, Algorithm, DgnnModel, MemoryModel, Phase, PhaseCost, SnapshotCost,
};

use crate::dataflow::TorusDataflow;
use crate::error::Result;
use crate::timing::{time_snapshot, PhasePolicy, SimReport, SnapshotSim};
use idgnn_hw::PipelineSchedule;

/// Scheduler policy (ablation D2 in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerPolicy {
    /// The paper's analytical model, re-solved per snapshot.
    #[default]
    Analytical,
    /// A static 50/50 MAC split (RACE-style).
    Even,
}

/// Dataflow policy (ablation D3 in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataflowPolicy {
    /// Partition + neighbour rotation over the torus (Fig. 9).
    #[default]
    Rotation,
    /// Duplicate all operands to every PE via broadcast (no partitioning).
    Broadcast,
}

/// Options controlling one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimOptions {
    /// Which execution algorithm runs on this hardware (the paper's Fig. 13
    /// runs all three on the I-DGNN architecture).
    pub algorithm: Option<Algorithm>,
    /// One-pass kernel options (dissimilarity strategy ablation, D1).
    pub onepass: OnePassOptions,
    /// MAC partitioning policy (D2).
    pub scheduler: SchedulerPolicy,
    /// NoC dataflow policy (D3).
    pub dataflow: DataflowPolicy,
    /// Disable the GNN ∥ RNN-A pipeline overlap (D2 companion ablation).
    pub disable_pipeline: bool,
    /// Host worker threads for the functional kernels of this run
    /// (`None` inherits the ambient [`idgnn_sparse::parallel::current`]
    /// selection, `Some(1)` forces the legacy serial path). Purely a
    /// host-side execution knob: the simulated cycle counts and every other
    /// report field are bit-identical across settings.
    pub parallelism: Option<usize>,
}

/// The per-snapshot inputs of the I-DGNN phase policy; the MAC partition is
/// supplied per call so the scheduler can evaluate candidate splits.
struct SnapshotPolicy {
    /// MAC share of the DIU, a dedicated few-words-per-cycle frontend unit.
    diu_share: f64,
    /// Load-balance efficiency of the partitioned operator.
    balance: f64,
    /// NoC bytes of each aggregation phase.
    agg_noc_bytes: u64,
    noc_pattern: TrafficPattern,
    /// Whether the RNN lane of snapshot t−1 runs alongside this GNN (Fig. 8).
    overlapped: bool,
    /// Buffer-occupancy change credited to each phase.
    buffer_delta: f64,
}

impl SnapshotPolicy {
    fn phase(&self, schedule: PipelineSchedule, i: usize, pc: &PhaseCost) -> PhasePolicy {
        let (mac_share, efficiency) = match pc.phase {
            Phase::Diu => (self.diu_share, 1.0),
            Phase::AComb | Phase::Aggregation => (schedule.alpha, self.balance),
            Phase::Combination => (schedule.alpha, 0.98),
            Phase::RnnA | Phase::RnnB => (schedule.beta, 0.98),
            _ => (1.0, 1.0),
        };
        // The utilization trace credits the concurrent RNN lane to the GNN
        // phases it overlaps.
        let concurrent =
            if self.overlapped && pc.phase.is_gnn() { schedule.beta * 0.95 } else { 0.0 };
        PhasePolicy {
            mac_share,
            efficiency,
            noc_bytes: if pc.phase == Phase::Aggregation { self.agg_noc_bytes } else { 0 },
            noc_pattern: self.noc_pattern,
            // Datapath reconfiguration at the start of each kernel group.
            reconfigure: matches!(pc.phase, Phase::AComb | Phase::RnnA) && i > 0,
            mac_utilization: (mac_share * efficiency + concurrent).min(1.0),
            buffer_delta: self.buffer_delta,
        }
    }
}

/// The I-DGNN accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct IdgnnAccelerator {
    engine: Engine,
}

impl IdgnnAccelerator {
    /// Builds the accelerator, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::Hw`] for a malformed configuration.
    pub fn new(config: AcceleratorConfig) -> Result<Self> {
        Ok(Self { engine: Engine::new(config)? })
    }

    /// The paper's default instance (32×32 PEs, torus, 700 MHz).
    ///
    /// # Panics
    ///
    /// Never panics: the paper configuration is valid by construction.
    pub fn paper_default() -> Self {
        // lint: allow(panic-surface) -- invariant documented at the call site; grandfathered by the PR5 ratchet-to-zero
        Self::new(AcceleratorConfig::paper_default()).expect("paper config is valid")
    }

    /// The hardware configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        self.engine.config()
    }

    /// The timing engine (exposed for utilization studies).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Simulates the full dynamic-graph workload.
    ///
    /// # Errors
    ///
    /// Propagates functional execution errors (shape mismatches, conflicting
    /// deltas) and hardware-model errors.
    pub fn simulate(
        &self,
        model: &DgnnModel,
        dg: &DynamicGraph,
        opts: &SimOptions,
    ) -> Result<SimReport> {
        // Pin the host-kernel thread count for the whole run if requested;
        // the guard restores the previous selection on every exit path.
        let _kernel_scope = opts.parallelism.map(|n| {
            idgnn_sparse::parallel::kernel_scope(idgnn_sparse::Parallelism::new(n))
        });
        let config = self.engine.config();
        let mem = MemoryModel { onchip_bytes: config.total_onchip_bytes() };
        let result = match opts.algorithm.unwrap_or(Algorithm::OnePass) {
            Algorithm::OnePass => exec::run_onepass_with(model, dg, &mem, &opts.onepass)?,
            other => exec::run(other, model, dg, &mem)?,
        };

        let mut snapshots = Vec::with_capacity(result.costs.len());
        let mut util_phases = Vec::new();
        for (t, (cost, op)) in result.costs.iter().zip(&result.operators).enumerate() {
            let policy = self.snapshot_policy(model, opts, t, cost, op);
            let schedule = self.schedule_for(opts.scheduler, cost, &policy);
            snapshots.push(time_snapshot(
                &self.engine,
                cost,
                schedule,
                |i, pc| policy.phase(schedule, i, pc),
                &mut util_phases,
            ));
        }

        let total_cycles = if opts.disable_pipeline {
            snapshots.iter().map(SnapshotSim::serial_cycles).sum()
        } else {
            // Fig. 8: RNN-A(t) overlaps the front of snapshot t+1.
            let stages: Vec<(f64, f64)> = snapshots
                .iter()
                .map(|s| (s.frontend_cycles + s.gnn_cycles + s.rnn_b_cycles, s.rnn_a_cycles))
                .collect();
            overlap_cycles(&stages)
        };
        Ok(SimReport::assemble(snapshots, total_cycles, result.total_ops(), &util_phases))
    }

    /// The phase policy of snapshot `t` from its cost and operator facts.
    fn snapshot_policy(
        &self,
        model: &DgnnModel,
        opts: &SimOptions,
        t: usize,
        cost: &SnapshotCost,
        op: &OperatorFacts,
    ) -> SnapshotPolicy {
        let config = self.engine.config();
        let dataflow = TorusDataflow::new(config.num_pes());
        let dims = model.dims();
        let v = op.rows();
        // Rotation traffic: the distributed working set makes a full ring
        // pass per GNN kernel invocation. For the one-pass algorithm in
        // steady state (the executor recorded ΔÂ) the operator and dense
        // caches are resident at their home PEs — only the delta-receptive
        // working set (ΔA-anchored partial products and touched dense rows)
        // rotates; the other algorithms re-stream everything.
        let rotated_bytes = match op.delta {
            Some(delta) => {
                let mean_deg = (op.nnz() as f64 / v.max(1) as f64).max(1.0);
                let touched = ((delta.nonempty_rows as f64)
                    * mean_deg.powi(dims.gnn_layers.saturating_sub(1) as i32))
                .min(v as f64) as usize;
                dims.gnn_layers as u64 * delta.csr_bytes + dense_bytes(touched, dims.gnn_out_dim)
            }
            None => op.csr_bytes + dense_bytes(v, dims.input_dim),
        };
        let (noc_bytes, noc_pattern) = match opts.dataflow {
            DataflowPolicy::Rotation => {
                (dataflow.rotation_bytes(rotated_bytes), TrafficPattern::NeighborShift)
            }
            DataflowPolicy::Broadcast => (
                rotated_bytes.saturating_mul(config.num_pes() as u64),
                TrafficPattern::Broadcast,
            ),
        };
        // Attribute the rotation traffic to the aggregation phases.
        let agg_phases =
            cost.phases.iter().filter(|p| p.phase == Phase::Aggregation).count().max(1) as u64;

        // Buffer-occupancy bookkeeping for the Fig. 18 trace: the first
        // snapshot materializes the resident working set; later snapshots
        // only add their (small) delta structures.
        let resident_bytes = op.csr_bytes
            + dense_bytes(v, dims.input_dim)
            + 2 * dense_bytes(v, dims.gnn_out_dim)
            + 2 * dense_bytes(v, dims.rnn_hidden_dim)
            + model.weight_bytes();
        let occupancy_delta = if t == 0 {
            (resident_bytes as f64 / config.total_onchip_bytes() as f64).min(1.0)
        } else {
            (cost.total_dram().total() as f64 / config.total_onchip_bytes() as f64).min(0.05)
        };

        SnapshotPolicy {
            diu_share: (4.0 / config.total_macs() as f64).min(1.0),
            balance: dataflow.load_balance(&op.indptr),
            agg_noc_bytes: noc_bytes / agg_phases,
            noc_pattern,
            overlapped: !opts.disable_pipeline && t > 0,
            buffer_delta: occupancy_delta / cost.phases.len().max(1) as f64,
        }
    }

    /// Solves the scheduler's balancing objective for one snapshot. The
    /// published analytical model (Eqs. 16–22) yields the closed form
    /// `α* = W_G / (W_G + W_R)` when every phase is MAC-bound; real phases
    /// can be NoC- or DRAM-bound, so the scheduler evaluates the closed-form
    /// seed alongside a small grid of candidate splits against the actual
    /// timing model and keeps the best (the even split is always a
    /// candidate, so the dynamic schedule never loses to it).
    fn schedule_for(
        &self,
        scheduler: SchedulerPolicy,
        cost: &SnapshotCost,
        policy: &SnapshotPolicy,
    ) -> PipelineSchedule {
        match scheduler {
            SchedulerPolicy::Even => PipelineSchedule::even(),
            SchedulerPolicy::Analytical => {
                let g = cost.gnn_ops().mults.max(cost.gnn_ops().adds) as f64;
                let r = cost.rnn_ops().mults.max(cost.rnn_ops().adds) as f64;
                let seed = if g + r == 0.0 { 0.5 } else { g / (g + r) };
                let mut best = (f64::INFINITY, PipelineSchedule::even());
                let mut scratch: Vec<PhaseUtilization> = Vec::new();
                for alpha in [seed, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
                    let candidate = PipelineSchedule::from_alpha(alpha);
                    scratch.clear();
                    let sim = time_snapshot(
                        &self.engine,
                        cost,
                        candidate,
                        |i, pc| policy.phase(candidate, i, pc),
                        &mut scratch,
                    );
                    // Pipelined contribution of this snapshot (Fig. 8): the
                    // RNN-A leg hides under the next snapshot's front.
                    let objective = sim.frontend_cycles
                        + sim.gnn_cycles.max(sim.rnn_a_cycles)
                        + sim.rnn_b_cycles;
                    if objective < best.0 {
                        best = (objective, candidate);
                    }
                }
                best.1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idgnn_graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
    use idgnn_graph::Normalization;
    use idgnn_model::{Activation, ModelConfig};

    fn workload() -> (DgnnModel, DynamicGraph) {
        let dg = generate_dynamic_graph(
            &GraphConfig::power_law(300, 900, 16),
            &StreamConfig { deltas: 3, dissimilarity: 0.02, ..Default::default() },
            11,
        )
        .unwrap();
        let model = DgnnModel::from_config(&ModelConfig {
            input_dim: 16,
            gnn_hidden: 8,
            gnn_layers: 3,
            rnn_hidden: 8,
            activation: Activation::Relu,
            normalization: Normalization::SelfLoops,
            seed: 7,
            rnn_kernel: Default::default(),
        })
        .unwrap();
        (model, dg)
    }

    fn small_accel() -> IdgnnAccelerator {
        IdgnnAccelerator::new(AcceleratorConfig::paper_default().scaled_down(64)).unwrap()
    }

    #[test]
    fn simulation_produces_per_snapshot_reports() {
        let (model, dg) = workload();
        let r = small_accel().simulate(&model, &dg, &SimOptions::default()).unwrap();
        assert_eq!(r.snapshots.len(), 4);
        assert!(r.total_cycles > 0.0);
        assert!(r.energy.total_pj() > 0.0);
        assert!(r.ops.total() > 0);
        assert!(r.seconds(700_000_000) > 0.0);
    }

    #[test]
    fn pipeline_never_slower_than_serial() {
        let (model, dg) = workload();
        let r = small_accel().simulate(&model, &dg, &SimOptions::default()).unwrap();
        assert!(r.total_cycles <= r.serial_cycles + 1e-6);
        let no_pipe = small_accel()
            .simulate(&model, &dg, &SimOptions { disable_pipeline: true, ..Default::default() })
            .unwrap();
        assert!((no_pipe.total_cycles - no_pipe.serial_cycles).abs() < 1e-9);
    }

    #[test]
    fn analytical_scheduler_not_worse_than_even() {
        let (model, dg) = workload();
        let accel = small_accel();
        let analytic = accel.simulate(&model, &dg, &SimOptions::default()).unwrap();
        let even = accel
            .simulate(
                &model,
                &dg,
                &SimOptions { scheduler: SchedulerPolicy::Even, ..Default::default() },
            )
            .unwrap();
        assert!(
            analytic.total_cycles <= even.total_cycles * 1.02,
            "analytic {} vs even {}",
            analytic.total_cycles,
            even.total_cycles
        );
    }

    #[test]
    fn rotation_dataflow_beats_broadcast() {
        let (model, dg) = workload();
        let accel = small_accel();
        let rot = accel.simulate(&model, &dg, &SimOptions::default()).unwrap();
        let bcast = accel
            .simulate(
                &model,
                &dg,
                &SimOptions { dataflow: DataflowPolicy::Broadcast, ..Default::default() },
            )
            .unwrap();
        assert!(
            rot.total_cycles < bcast.total_cycles,
            "rotation {} !< broadcast {}",
            rot.total_cycles,
            bcast.total_cycles
        );
    }

    #[test]
    fn onepass_faster_than_baselines_on_same_hardware() {
        // The Fig. 13 experiment: same architecture, three algorithms.
        let (model, dg) = workload();
        let accel = small_accel();
        let run = |alg: Algorithm| {
            accel
                .simulate(&model, &dg, &SimOptions { algorithm: Some(alg), ..Default::default() })
                .unwrap()
                .total_cycles
        };
        let onepass = run(Algorithm::OnePass);
        let inc = run(Algorithm::Incremental);
        let rec = run(Algorithm::Recompute);
        assert!(onepass < rec, "one-pass {onepass} !< recompute {rec}");
        assert!(onepass < inc * 1.6, "one-pass {onepass} ≫ incremental {inc}");
    }

    #[test]
    fn more_pes_do_not_slow_down() {
        let (model, dg) = workload();
        let small = IdgnnAccelerator::new(
            AcceleratorConfig::paper_default().scaled_down(256),
        )
        .unwrap();
        let big = IdgnnAccelerator::new(AcceleratorConfig::paper_default().scaled_down(16))
            .unwrap();
        let a = small.simulate(&model, &dg, &SimOptions::default()).unwrap();
        let b = big.simulate(&model, &dg, &SimOptions::default()).unwrap();
        assert!(b.total_cycles <= a.total_cycles * 1.05, "big {} vs small {}", b.total_cycles, a.total_cycles);
    }

    #[test]
    fn utilization_trace_is_populated() {
        let (model, dg) = workload();
        let r = small_accel().simulate(&model, &dg, &SimOptions::default()).unwrap();
        assert!(!r.utilization.mac.is_empty());
        assert!(r.utilization.mean_mac() > 0.0);
        assert!(r.utilization.mean_mac() <= 1.0);
    }

    #[test]
    fn simulation_is_identical_across_host_parallelism() {
        // The host thread count is an execution knob, not a model parameter:
        // the full report (cycles, energy, DRAM, ops, trace) must match
        // exactly between the serial and parallel kernel paths.
        let (model, dg) = workload();
        let accel = small_accel();
        let serial = accel
            .simulate(&model, &dg, &SimOptions { parallelism: Some(1), ..Default::default() })
            .unwrap();
        let parallel = accel
            .simulate(&model, &dg, &SimOptions { parallelism: Some(4), ..Default::default() })
            .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn paper_default_constructs() {
        let a = IdgnnAccelerator::paper_default();
        assert_eq!(a.config().num_pes(), 1024);
    }
}
