//! Criterion microbenchmarks of the computational kernels underpinning the
//! simulator: SpGEMM, SpMM, the fused dissimilarity kernel (both
//! strategies), layer fusion, and the fused RNN cell step: an LSTM and a GRU
//! step at 1,000 rows plus an LSTM step at 30,975 rows (the Mobile vertex
//! count, where the RNN dominates a low-churn stream).

// criterion's macros generate undocumented items; docs live in the header above.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use idgnn_graph::generate::{GraphConfig, StreamConfig};
use idgnn_graph::{generate::generate_dynamic_graph, Normalization};
use idgnn_model::onepass::{fused_dissimilarity, DissimilarityStrategy};
use idgnn_model::{fusion, Activation, GcnStack, GruCell, LstmCell, LstmState};
use idgnn_sparse::{ops, CsrMatrix, DenseMatrix};

fn setup_graphs() -> (CsrMatrix, CsrMatrix, DenseMatrix) {
    let dg = generate_dynamic_graph(
        &GraphConfig::power_law(1_000, 4_000, 32),
        &StreamConfig { deltas: 1, dissimilarity: 0.02, ..Default::default() },
        7,
    )
    .expect("generation succeeds");
    let snaps = dg.materialize().expect("materialize succeeds");
    let a_prev = Normalization::SelfLoops.apply(snaps[0].adjacency());
    let a_next = Normalization::SelfLoops.apply(snaps[1].adjacency());
    let delta = ops::sp_sub(&a_next, &a_prev).expect("same shape").pruned(0.0);
    (a_prev, delta, snaps[0].features().clone())
}

fn bench_sparse_kernels(c: &mut Criterion) {
    let (a, delta, x) = setup_graphs();
    let mut g = c.benchmark_group("kernels");
    g.sample_size(20);

    g.bench_function("spgemm_a_x_a", |b| {
        b.iter(|| ops::spgemm(black_box(&a), black_box(&a)).expect("square"))
    });
    g.bench_function("spmm_a_x_features", |b| {
        b.iter(|| ops::spmm(black_box(&a), black_box(&x)).expect("shapes match"))
    });
    g.bench_function("transpose", |b| b.iter(|| black_box(&a).transpose()));
    for (name, strategy) in [
        ("dissimilarity_general", DissimilarityStrategy::General),
        ("dissimilarity_transpose_opt", DissimilarityStrategy::TransposeOptimized),
    ] {
        g.bench_with_input(BenchmarkId::new(name, "L3"), &strategy, |b, &s| {
            b.iter(|| fused_dissimilarity(black_box(&a), black_box(&delta), 3, s).expect("valid"))
        });
    }
    g.finish();
}

fn bench_model_kernels(c: &mut Criterion) {
    let (a, _delta, x) = setup_graphs();
    let stack = GcnStack::random(32, 16, 3, Activation::Relu, 3).expect("valid stack");
    let lstm = LstmCell::random(16, 16, 4);
    let gru = GruCell::random(16, 16, 4);
    let z = DenseMatrix::filled(1_000, 16, 0.3);
    let state = LstmState::zeros(1_000, 16);
    // Paper-sized cell (C = R = 32) over a Mobile-sized vertex set, stepped
    // from a non-zero state so the H·U_cat product does real work.
    let big_lstm = LstmCell::random(32, 32, 5);
    let big_z = DenseMatrix::filled(30_975, 32, 0.3);
    let (big_state, ..) =
        big_lstm.step(&big_z, &LstmState::zeros(30_975, 32)).expect("shapes match");

    let mut g = c.benchmark_group("model");
    g.sample_size(20);
    g.bench_function("gcn_forward_3layer", |b| {
        b.iter(|| stack.forward(black_box(&a), black_box(&x)).expect("shapes match"))
    });
    g.bench_function("weight_fusion", |b| {
        b.iter(|| fusion::fuse_weights(black_box(&stack)).expect("valid"))
    });
    g.bench_function("lstm_step", |b| {
        b.iter(|| lstm.step(black_box(&z), black_box(&state)).expect("shapes match"))
    });
    g.bench_function("gru_step", |b| {
        b.iter(|| gru.step(black_box(&z), black_box(&state)).expect("shapes match"))
    });
    g.bench_function("lstm_step_30975x32", |b| {
        b.iter(|| big_lstm.step(black_box(&big_z), black_box(&big_state)).expect("shapes match"))
    });
    g.finish();
}

criterion_group!(benches, bench_sparse_kernels, bench_model_kernels);
criterion_main!(benches);
