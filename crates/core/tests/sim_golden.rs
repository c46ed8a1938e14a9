//! Golden simulated figures: the exact report statistics of I-DGNN (every
//! algorithm and ablation policy) and of the three baselines on one small
//! fixed-seed workload.
//!
//! Every simulator is a deterministic function of its inputs, and the
//! simulated figures are promised bit-identical at any host kernel
//! parallelism, so the floating-point results are pinned by their bit
//! patterns. A refactor of the timing loop or of how the simulators read the
//! executor's results must leave every constant below unchanged. On a
//! mismatch the panic message prints the full freshly computed table.

use idgnn_baselines::{Booster, Race, Ready};
use idgnn_core::{DataflowPolicy, IdgnnAccelerator, SchedulerPolicy, SimOptions, SimReport};
use idgnn_graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
use idgnn_graph::{DynamicGraph, Normalization};
use idgnn_hw::AcceleratorConfig;
use idgnn_model::{Activation, Algorithm, DgnnModel, ModelConfig};

/// The pinned statistics of one simulation report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    total_cycles: u64,
    serial_cycles: u64,
    energy_pj: u64,
    dram_bytes: u64,
    mults: u64,
    adds: u64,
    trace_len: usize,
}

impl Golden {
    fn of(r: &SimReport) -> Self {
        Self {
            total_cycles: r.total_cycles.to_bits(),
            serial_cycles: r.serial_cycles.to_bits(),
            energy_pj: r.energy.total_pj().to_bits(),
            dram_bytes: r.dram_bytes,
            mults: r.ops.mults,
            adds: r.ops.adds,
            trace_len: r.utilization.mac.len(),
        }
    }
}

fn workload(normalization: Normalization) -> (DgnnModel, DynamicGraph) {
    let dg = generate_dynamic_graph(
        &GraphConfig::power_law(400, 1_600, 16),
        &StreamConfig { deltas: 4, dissimilarity: 0.02, ..Default::default() },
        23,
    )
    .unwrap();
    let model = DgnnModel::from_config(&ModelConfig {
        input_dim: 16,
        gnn_hidden: 8,
        gnn_layers: 2,
        rnn_hidden: 8,
        activation: Activation::Relu,
        normalization,
        seed: 5,
        rnn_kernel: Default::default(),
    })
    .unwrap();
    (model, dg)
}

fn simulate_all() -> Vec<(&'static str, Golden)> {
    let config = AcceleratorConfig::paper_default().scaled_down(64);
    let accel = IdgnnAccelerator::new(config).unwrap();
    let (model, dg) = workload(Normalization::Symmetric);
    let idgnn = |opts: SimOptions| Golden::of(&accel.simulate(&model, &dg, &opts).unwrap());
    let with_algorithm = |a: Algorithm| SimOptions { algorithm: Some(a), ..Default::default() };
    let (rs_model, rs_dg) = workload(Normalization::RowStochastic);
    vec![
        ("idgnn/onepass", idgnn(with_algorithm(Algorithm::OnePass))),
        ("idgnn/incremental", idgnn(with_algorithm(Algorithm::Incremental))),
        ("idgnn/recompute", idgnn(with_algorithm(Algorithm::Recompute))),
        (
            "idgnn/even",
            idgnn(SimOptions { scheduler: SchedulerPolicy::Even, ..Default::default() }),
        ),
        (
            "idgnn/broadcast",
            idgnn(SimOptions { dataflow: DataflowPolicy::Broadcast, ..Default::default() }),
        ),
        ("idgnn/no-pipeline", idgnn(SimOptions { disable_pipeline: true, ..Default::default() })),
        (
            "idgnn/onepass-row-stochastic",
            Golden::of(&accel.simulate(&rs_model, &rs_dg, &SimOptions::default()).unwrap()),
        ),
        ("ready", Golden::of(&Ready::new(config).unwrap().simulate(&model, &dg).unwrap())),
        ("booster", Golden::of(&Booster::new(config).unwrap().simulate(&model, &dg).unwrap())),
        ("race", Golden::of(&Race::new(config).unwrap().simulate(&model, &dg).unwrap())),
    ]
}

fn render(rows: &[(&'static str, Golden)]) -> String {
    rows.iter()
        .map(|(name, g)| {
            format!(
                "    (\"{name}\", Golden {{ total_cycles: {:#018x}, serial_cycles: {:#018x}, \
                 energy_pj: {:#018x}, dram_bytes: {}, mults: {}, adds: {}, trace_len: {} }}),\n",
                g.total_cycles,
                g.serial_cycles,
                g.energy_pj,
                g.dram_bytes,
                g.mults,
                g.adds,
                g.trace_len
            )
        })
        .collect()
}

/// The pinned figures; identical at every host kernel parallelism.
#[rustfmt::skip]
const GOLDEN: &[(&str, Golden)] = &[
    ("idgnn/onepass", Golden { total_cycles: 0x40e0912824eb734a, serial_cycles: 0x40e1ed4af961df42, energy_pj: 0x41872ee2a32f1aa0, dram_bytes: 105356, mults: 1427680, adds: 1301991, trace_len: 2295 }),
    ("idgnn/incremental", Golden { total_cycles: 0x40ec443d3ea49175, serial_cycles: 0x40edb4aa5921127c, energy_pj: 0x41926ab1acb020c4, dram_bytes: 221420, mults: 1820392, adds: 1652208, trace_len: 3803 }),
    ("idgnn/recompute", Golden { total_cycles: 0x40f7b07c99fde903, serial_cycles: 0x40f880917fde9032, energy_pj: 0x419afe566ce978d5, dram_bytes: 424708, mults: 1895824, adds: 1719824, trace_len: 6273 }),
    ("idgnn/even", Golden { total_cycles: 0x40e0c382a9460217, serial_cycles: 0x40e263ac75075075, energy_pj: 0x41872ee2a32f1aa0, dram_bytes: 105356, mults: 1427680, adds: 1301991, trace_len: 2354 }),
    ("idgnn/broadcast", Golden { total_cycles: 0x4109ad315a7ff124, serial_cycles: 0x4109eef7e2562562, energy_pj: 0x418870af3e51eb85, dram_bytes: 105356, mults: 1427680, adds: 1301991, trace_len: 13278 }),
    ("idgnn/no-pipeline", Golden { total_cycles: 0x40e1ed4af961df42, serial_cycles: 0x40e1ed4af961df42, energy_pj: 0x41872ee2a32f1aa0, dram_bytes: 105356, mults: 1427680, adds: 1301991, trace_len: 2295 }),
    ("idgnn/onepass-row-stochastic", Golden { total_cycles: 0x40dd5558ecd7f211, serial_cycles: 0x40e039d4845a8ece, energy_pj: 0x4185e127f28b4395, dram_bytes: 91276, mults: 1427680, adds: 1300231, trace_len: 2077 }),
    ("ready", Golden { total_cycles: 0x40f71ca916798bc5, serial_cycles: 0x40f71ca916798bc5, energy_pj: 0x419a764486418938, dram_bytes: 424708, mults: 1895824, adds: 1719824, trace_len: 5917 }),
    ("booster", Golden { total_cycles: 0x40fab66213ecba83, serial_cycles: 0x40fc6f2c2edf413f, energy_pj: 0x419a764486418938, dram_bytes: 424708, mults: 1895824, adds: 1719824, trace_len: 7280 }),
    ("race", Golden { total_cycles: 0x40e73e4f79e5afcb, serial_cycles: 0x40eaafe3afcabd44, energy_pj: 0x4191b3b415645a1d, dram_bytes: 221420, mults: 1820392, adds: 1652208, trace_len: 3416 }),
];

#[test]
fn simulated_figures_match_golden() {
    let got = simulate_all();
    assert!(
        got.len() == GOLDEN.len() && got.iter().zip(GOLDEN).all(|(a, b)| a.0 == b.0 && a.1 == b.1),
        "simulated figures drifted from the golden table; fresh table:\n{}",
        render(&got)
    );
}
