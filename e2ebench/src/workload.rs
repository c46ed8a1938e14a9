//! The three benchmark workloads: input generation, the timed closed loop,
//! the output checks, and the traced layer probe.

use std::error::Error;
use std::time::Instant;

use idgnn_baselines::{Booster, Race, Ready};
use idgnn_core::{CoreError, Diu, IdgnnAccelerator, SimOptions, SimReport};
use idgnn_graph::datasets::{DatasetSpec, ALL_DATASETS, MOBILE, REDDIT};
use idgnn_graph::generate::StreamConfig;
use idgnn_graph::{DynamicGraph, Normalization};
use idgnn_hw::AcceleratorConfig;
use idgnn_model::exec::{self, OnePassOptions};
use idgnn_model::onepass::fused_dissimilarity;
use idgnn_model::{
    Activation, Algorithm, DgnnModel, DissimilarityStrategy, ExecutionResult, MemoryModel,
    ModelConfig, Phase,
};
use idgnn_sparse::{ops, parallel, DenseMatrix, OpStats, Parallelism};

use crate::trace::{SpanId, Tracer};

/// Host threads the benchmark may use: kernel parallelism for the single-graph
/// workloads, driver workers for `paper-grid`.
pub const HOST_THREADS: usize = 2;

/// Largest accepted normwise relative error `‖one-pass − recompute‖_F /
/// ‖recompute‖_F` of the final embeddings and LSTM state.
pub const OUTPUT_TOLERANCE: f64 = 1e-3;

const GNN_LAYERS: usize = 3;
const HIDDEN: usize = 32;

/// Span names of the four accelerators, in the `paper-grid` cell order.
const ACCELERATOR_SPANS: [&str; 4] = [
    "core.simulate",
    "baselines.ready",
    "baselines.booster",
    "baselines.race",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SimLarge,
    StreamTrickle,
    PaperGrid,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::SimLarge, Kind::StreamTrickle, Kind::PaperGrid];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SimLarge => "sim-large",
            Kind::StreamTrickle => "stream-trickle",
            Kind::PaperGrid => "paper-grid",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn grid(self) -> bool {
        self == Kind::PaperGrid
    }

    /// Datasets, per-dataset edge budget and evolution stream.
    fn inputs(self) -> (Vec<DatasetSpec>, usize, StreamConfig) {
        let churn = |deltas, dissimilarity| StreamConfig {
            deltas,
            dissimilarity,
            addition_fraction: 0.75,
            feature_update_fraction: dissimilarity,
        };
        match self {
            Kind::SimLarge => (vec![REDDIT], REDDIT.edges, churn(4, 0.02)),
            Kind::StreamTrickle => (vec![MOBILE], 200_000, churn(48, 0.001)),
            Kind::PaperGrid => (ALL_DATASETS.to_vec(), 60_000, churn(4, 0.02)),
        }
    }
}

/// One simulated graph with its model and the four accelerators.
pub struct Instance {
    dg: DynamicGraph,
    model: DgnnModel,
    config: AcceleratorConfig,
    idgnn: IdgnnAccelerator,
    ready: Ready,
    booster: Booster,
    race: Race,
}

impl Instance {
    fn transitions(&self) -> usize {
        self.dg.num_snapshots().saturating_sub(1)
    }

    fn memory(&self) -> MemoryModel {
        MemoryModel {
            onchip_bytes: self.config.total_onchip_bytes(),
        }
    }

    /// The one-pass executor `IdgnnAccelerator::simulate` runs internally.
    fn exec_onepass(&self) -> Result<ExecutionResult, CoreError> {
        Ok(exec::run_onepass_with(
            &self.model,
            &self.dg,
            &self.memory(),
            &OnePassOptions::default(),
        )?)
    }

    /// Simulates accelerator `which` (index into [`ACCELERATOR_SPANS`]).
    fn simulate(&self, which: usize, parallelism: Option<usize>) -> Result<SimReport, CoreError> {
        match which {
            0 => self.idgnn.simulate(
                &self.model,
                &self.dg,
                &SimOptions {
                    parallelism,
                    ..SimOptions::default()
                },
            ),
            1 => self.ready.simulate_with(&self.model, &self.dg, parallelism),
            2 => self
                .booster
                .simulate_with(&self.model, &self.dg, parallelism),
            _ => self.race.simulate_with(&self.model, &self.dg, parallelism),
        }
    }
}

/// Generates the workload's inputs and builds models and accelerators.
pub fn setup(kind: Kind, seed: u64, tracer: &Tracer, rep: u32) -> Result<Vec<Instance>, CoreError> {
    let (specs, max_edges, stream) = kind.inputs();
    tracer.scope("bench.setup", None, rep, |root| {
        let mut graphs = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let dg = tracer.scope("graph.generate", root, rep, |_| {
                spec.generate_scaled(max_edges, &stream, seed.wrapping_add(i as u64))
            })?;
            graphs.push(dg);
        }
        // One accelerator for all datasets, scaled by the smallest dataset
        // factor (the rule of the figure harness's shared context).
        let scale = specs
            .iter()
            .map(|s| (s.edges / max_edges).max(1) as u64)
            .min()
            .unwrap_or(1);
        let config = AcceleratorConfig::paper_default().scaled_down(scale);
        graphs
            .into_iter()
            .enumerate()
            .map(|(i, dg)| {
                // A linear GCN: the one-pass kernel is then exact (Eq. 10), so
                // its outputs can be checked against full recomputation.
                let model = DgnnModel::from_config(&ModelConfig {
                    input_dim: dg.initial().feature_dim(),
                    gnn_hidden: HIDDEN,
                    gnn_layers: GNN_LAYERS,
                    rnn_hidden: HIDDEN,
                    activation: Activation::Linear,
                    normalization: Normalization::SelfLoops,
                    seed: seed.wrapping_add(i as u64).wrapping_add(77),
                    rnn_kernel: Default::default(),
                })?;
                Ok(Instance {
                    dg,
                    model,
                    config,
                    idgnn: IdgnnAccelerator::new(config)?,
                    ready: Ready::new(config)?,
                    booster: Booster::new(config)?,
                    race: Race::new(config)?,
                })
            })
            .collect()
    })
}

/// Snapshot transitions simulated by one repetition of the timed body.
pub fn transitions_per_rep(kind: Kind, instances: &[Instance]) -> usize {
    let per_accelerator = if kind.grid() {
        ACCELERATOR_SPANS.len()
    } else {
        1
    };
    per_accelerator * instances.iter().map(Instance::transitions).sum::<usize>()
}

/// One repetition of the timed body. Single-graph workloads simulate I-DGNN
/// with `threads` kernel threads; `paper-grid` fans the dataset × accelerator
/// grid over `threads` driver workers (inner kernels serial). Reports come
/// back in instance-major, accelerator-minor order.
pub fn run_rep(
    kind: Kind,
    instances: &[Instance],
    threads: usize,
    tracer: &Tracer,
    parent: SpanId,
    rep: u32,
) -> Result<Vec<SimReport>, CoreError> {
    if !kind.grid() {
        return instances
            .iter()
            .map(|inst| {
                tracer.scope("core.simulate", parent, rep, |_| {
                    inst.simulate(0, Some(threads))
                })
            })
            .collect();
    }
    let cells: Vec<(&Instance, usize, &'static str)> = instances
        .iter()
        .flat_map(|inst| {
            ACCELERATOR_SPANS
                .iter()
                .enumerate()
                .map(move |(a, &span)| (inst, a, span))
        })
        .collect();
    tracer.scope("bench.run_cells", parent, rep, |driver| {
        idgnn_bench::driver::run_cells(Parallelism::new(threads), &cells, |_, &(inst, a, span)| {
            tracer.scope(span, driver, rep, |_| inst.simulate(a, None))
        })
    })
}

/// Traced run only: runs the one-pass executor on the inputs the repetition
/// just simulated, under the same kernel parallelism, so `core.simulate_ms −
/// model.exec_ms` is the simulator's own orchestration time.
pub fn exec_probe(
    kind: Kind,
    instances: &[Instance],
    tracer: &Tracer,
    rep: u32,
) -> Result<(), CoreError> {
    let _grid_serial = kind
        .grid()
        .then(|| parallel::kernel_scope(Parallelism::serial()));
    for inst in instances {
        tracer.scope("model.exec", None, rep, |_| inst.exec_onepass())?;
    }
    Ok(())
}

/// The simulated statistics that must repeat bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    cycles: u64,
    energy: u64,
    mults: u64,
    adds: u64,
    dram_bytes: u64,
}

impl Fingerprint {
    pub fn of(r: &SimReport) -> Self {
        Self {
            cycles: r.total_cycles.to_bits(),
            energy: r.energy.total_pj().to_bits(),
            mults: r.ops.mults,
            adds: r.ops.adds,
            dram_bytes: r.dram_bytes,
        }
    }
}

/// One untimed verification job.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// Accelerator `which` (index into [`ACCELERATOR_SPANS`]).
    Simulate(usize),
    Recompute,
    OnePass,
}

enum JobOutput {
    Report(SimReport),
    Recompute(ExecutionResult),
    OnePass(ExecutionResult),
}

/// What the untimed verification phase established for one instance.
pub struct Verified {
    /// The four accelerators simulated at the thread count the timed body did
    /// not use, in [`ACCELERATOR_SPANS`] order.
    pub rerun: [SimReport; 4],
    /// Normwise relative error of the one-pass final embeddings and LSTM
    /// state against the recompute reference.
    pub rel_err: f64,
    /// The one-pass execution record (reused by the traced probe).
    pub onepass: ExecutionResult,
}

impl Verified {
    /// Baseline cycles (ReaDy, DGNN-Booster, RACE).
    pub fn baseline_cycles(&self) -> [f64; 3] {
        let [_, ready, booster, race] = &self.rerun;
        [ready, booster, race].map(|r| r.total_cycles)
    }
}

/// The untimed verification phase. Per instance it simulates the four
/// accelerators at the other thread count (single-graph workloads: 1 kernel
/// thread in each of 2 driver workers instead of 2 kernel threads;
/// `paper-grid`: 2 kernel threads in 1 worker instead of 2 workers with serial
/// kernels), which also gives the single-graph workloads their baseline cycles
/// without running the baselines in the timed loop, and computes the one-pass
/// outputs with their full-recomputation reference. Either way at most
/// [`HOST_THREADS`] threads are busy.
pub fn verify(kind: Kind, instances: &[Instance]) -> Result<Vec<Verified>, Box<dyn Error>> {
    let (workers, threads) = if kind.grid() {
        (1, HOST_THREADS)
    } else {
        (HOST_THREADS, 1)
    };
    let per_instance: Vec<Job> = (0..ACCELERATOR_SPANS.len())
        .map(Job::Simulate)
        .chain([Job::Recompute, Job::OnePass])
        .collect();
    let jobs: Vec<(&Instance, Job)> = instances
        .iter()
        .flat_map(|inst| per_instance.iter().map(move |&j| (inst, j)))
        .collect();
    let mut outputs =
        idgnn_bench::driver::run_cells(Parallelism::new(workers), &jobs, |_, &(inst, job)| {
            Ok(match job {
                Job::Simulate(a) => JobOutput::Report(inst.simulate(a, Some(threads))?),
                Job::Recompute => JobOutput::Recompute(exec::run(
                    Algorithm::Recompute,
                    &inst.model,
                    &inst.dg,
                    &inst.memory(),
                )?),
                Job::OnePass => JobOutput::OnePass(inst.exec_onepass()?),
            })
        })?
        .into_iter();
    let mut verified = Vec::with_capacity(instances.len());
    for _ in instances {
        let (mut rerun, mut reference, mut onepass) = (Vec::new(), None, None);
        for out in outputs.by_ref().take(per_instance.len()) {
            match out {
                JobOutput::Report(r) => rerun.push(r),
                JobOutput::Recompute(e) => reference = Some(e),
                JobOutput::OnePass(e) => onepass = Some(e),
            }
        }
        let (Ok(rerun), Some(reference), Some(onepass)) =
            (<[SimReport; 4]>::try_from(rerun), reference, onepass)
        else {
            return Err("a verification job of an instance is missing".into());
        };
        let rel_err = match (reference.outputs.last(), onepass.outputs.last()) {
            (Some(r), Some(o)) => [
                (&o.z, &r.z),
                (&o.state.h, &r.state.h),
                (&o.state.c, &r.state.c),
            ]
            .into_iter()
            .map(|(a, b)| normwise_error(a, b))
            .fold(0.0, f64::max),
            _ => f64::INFINITY,
        };
        verified.push(Verified {
            rerun,
            rel_err,
            onepass,
        });
    }
    Ok(verified)
}

/// `‖a − b‖_F / ‖b‖_F`, accumulated in f64; infinite on a shape mismatch or
/// a non-finite entry.
fn normwise_error(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
    if a.shape() != b.shape() {
        return f64::INFINITY;
    }
    let (mut diff, mut norm) = (0.0f64, 0.0f64);
    for (&x, &y) in a.as_slice().iter().zip(b.as_slice()) {
        diff += (f64::from(x) - f64::from(y)).powi(2);
        norm += f64::from(y).powi(2);
    }
    let err = diff.sqrt() / norm.sqrt().max(f64::MIN_POSITIVE);
    if err.is_finite() {
        err
    } else {
        f64::INFINITY
    }
}

/// Layer counts gathered by the traced probe, summed over instances.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeCounts {
    pub transitions: usize,
    pub delta_transitions: usize,
    pub diu_delta_nnz: u64,
    pub spmm_bytes: u64,
    pub ops: OpStats,
    pub saved: OpStats,
}

/// Whether transition `t` (snapshot `t ≥ 1`) took the one-pass delta path:
/// its AComb phase evaluated `ΔA_C` instead of a from-scratch refresh.
fn took_delta_path(onepass: &ExecutionResult, t: usize) -> bool {
    onepass
        .costs
        .get(t)
        .is_some_and(|c| c.ops_of(Phase::AComb).total() > 0)
}

/// Calls each crate's public layer functions on the instance's inputs, one
/// span per call, mirroring what the one-pass executor does inside
/// `IdgnnAccelerator::simulate`.
pub fn probe(
    inst: &Instance,
    onepass: &ExecutionResult,
    tracer: &Tracer,
    counts: &mut ProbeCounts,
) -> Result<(), CoreError> {
    let norm = inst.model.normalization();
    let layers = inst.model.dims().gnn_layers;
    counts.transitions += inst.transitions();
    counts.ops += onepass.total_ops();
    for c in &onepass.costs {
        counts.saved += c.saved;
    }
    tracer.scope("bench.probe", None, 0, |root| {
        let snaps = tracer.scope("graph.materialize", root, 0, |_| inst.dg.materialize())?;
        let operators: Vec<_> = snaps
            .iter()
            .map(|s| tracer.scope("graph.normalize", root, 0, |_| norm.apply(s.adjacency())))
            .collect();
        let (Some(s0), Some(a0)) = (snaps.first(), operators.first()) else {
            return Ok(());
        };
        // The initial Â·X chain, combination first (C < K): Y = X0·W_C, then
        // L SpMMs at width C.
        let (w_c, _) = idgnn_model::fusion::fuse_weights(inst.model.gcn())?;
        let (mut y, _) = tracer.scope("sparse.gemm", root, 0, |_| {
            ops::gemm_with_stats(s0.features(), &w_c)
        })?;
        for _ in 0..layers {
            let (next, _): (DenseMatrix, _) =
                tracer.scope("sparse.spmm", root, 0, |_| ops::spmm_with_stats(a0, &y))?;
            counts.spmm_bytes +=
                a0.csr_bytes() + 4 * (y.as_slice().len() + next.as_slice().len()) as u64;
            y = next;
        }
        let diu = Diu::new(norm);
        let transitions = operators.windows(2).zip(snaps.windows(2));
        for (t, pair) in (1..).zip(transitions) {
            let ([a_prev, a_next], [s_prev, s_next]) = pair else {
                continue;
            };
            let d_op = tracer.scope("sparse.sp_sub_pruned", root, 0, |_| {
                ops::sp_sub_pruned(a_next, a_prev)
            })?;
            let out = tracer.scope("core.diu", root, 0, |_| diu.identify(s_prev, s_next))?;
            counts.diu_delta_nnz += out.delta_operator.nnz() as u64;
            if took_delta_path(onepass, t) {
                counts.delta_transitions += 1;
                tracer.scope("model.fused_dissimilarity", root, 0, |_| {
                    fused_dissimilarity(
                        a_prev,
                        &d_op,
                        layers as u32,
                        DissimilarityStrategy::default(),
                    )
                })?;
            }
        }
        Ok(())
    })
}

/// Times `f` and returns its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
