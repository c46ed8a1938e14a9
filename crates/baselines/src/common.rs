//! Shared machinery for the baseline accelerator models.
//!
//! Per the paper's methodology (§VI-A "Baselines"), every baseline is scaled
//! to the same number of multipliers, on-chip storage, frequency, and
//! off-chip bandwidth as the I-DGNN instance it is compared against, and is
//! timed by the same [`time_snapshot`] model; the differences are the
//! execution algorithm, the interconnect, the resource partitioning, and the
//! pipeline granularity — exactly the fields of [`Baseline`].

use idgnn_core::{time_snapshot, PhasePolicy, PipelineSchedule, SimReport, SnapshotSim};
use idgnn_graph::DynamicGraph;
use idgnn_hw::{overlap_cycles, Engine, TrafficPattern};
use idgnn_model::{cost::dense_bytes, exec, Algorithm, DgnnModel, MemoryModel, Phase, PhaseCost};

use crate::error::Result;

/// What distinguishes one baseline accelerator on the shared timing model.
#[derive(Debug)]
pub(crate) struct Baseline {
    /// The execution algorithm the accelerator runs.
    pub algorithm: Algorithm,
    /// `true`: a static MAC split by the GNN/RNN workload ratio of the first
    /// snapshot; `false`: a fixed 50/50 split.
    pub workload_ratio_split: bool,
    /// Parallel efficiency of the GNN kernel.
    pub gnn_efficiency: f64,
    /// NoC pattern of the aggregation traffic.
    pub gnn_noc_pattern: TrafficPattern,
    /// `true`: the RNN of snapshot `t` overlaps the GNN of snapshot `t+1`;
    /// `false`: snapshots run back-to-back.
    pub pipelined: bool,
}

/// Runs `baseline`'s algorithm over the workload and times it on `engine`.
/// `parallelism` pins the host-kernel thread count (`None` inherits the
/// ambient selection; the report is bit-identical across settings).
pub(crate) fn simulate(
    engine: &Engine,
    baseline: &Baseline,
    model: &DgnnModel,
    dg: &DynamicGraph,
    parallelism: Option<usize>,
) -> Result<SimReport> {
    let _kernel_scope = parallelism
        .map(|n| idgnn_sparse::parallel::kernel_scope(idgnn_sparse::Parallelism::new(n)));
    let mem = MemoryModel { onchip_bytes: engine.config().total_onchip_bytes() };
    let result = exec::run(baseline.algorithm, model, dg, &mem)?;
    let schedule = match result.costs.first() {
        Some(first) if baseline.workload_ratio_split => {
            let g0 = first.gnn_ops().mults.max(1) as f64;
            let r0 = first.rnn_ops().mults.max(1) as f64;
            PipelineSchedule::from_alpha(g0 / (g0 + r0))
        }
        _ => PipelineSchedule::even(),
    };

    let input_dim = model.dims().input_dim;
    let glb_bytes = engine.config().glb_bytes as f64;
    let mut util = Vec::new();
    let mut snapshots = Vec::with_capacity(result.costs.len());
    for (cost, op) in result.costs.iter().zip(&result.operators) {
        // The operator plus the full input features: baseline dataflows lack
        // the rotation locality, so this volume crosses the NoC with a
        // non-local pattern during aggregation.
        let gnn_volume = op.csr_bytes + dense_bytes(op.rows(), input_dim);
        let policy = |_: usize, pc: &PhaseCost| {
            let (mac_share, efficiency, noc_bytes, noc_pattern) = match pc.phase {
                Phase::AComb | Phase::Aggregation | Phase::Combination | Phase::WComb => (
                    schedule.alpha,
                    baseline.gnn_efficiency,
                    if pc.phase == Phase::Aggregation { gnn_volume } else { 0 },
                    baseline.gnn_noc_pattern,
                ),
                Phase::RnnA | Phase::RnnB => (schedule.beta, 0.95, 0, TrafficPattern::GlobalBuffer),
                _ => (1.0, 1.0, 0, TrafficPattern::GlobalBuffer),
            };
            PhasePolicy {
                mac_share,
                efficiency,
                noc_bytes,
                noc_pattern,
                reconfigure: false,
                mac_utilization: mac_share * efficiency,
                buffer_delta: (pc.dram.total() as f64 / glb_bytes).min(0.35),
            }
        };
        snapshots.push(time_snapshot(engine, cost, schedule, policy, &mut util));
    }

    let total_cycles = if baseline.pipelined {
        let stages: Vec<(f64, f64)> = snapshots
            .iter()
            .map(|s| (s.frontend_cycles + s.gnn_cycles, s.rnn_a_cycles + s.rnn_b_cycles))
            .collect();
        overlap_cycles(&stages)
    } else {
        snapshots.iter().map(SnapshotSim::serial_cycles).sum()
    };
    Ok(SimReport::assemble(snapshots, total_cycles, result.total_ops(), &util))
}
