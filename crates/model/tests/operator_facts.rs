//! The executors' per-snapshot operator facts against a from-scratch
//! reference: materialize every snapshot, normalize it, and difference
//! consecutive operators. The accelerator simulators time an execution from
//! these facts alone, so this is the reference for what they read.

use idgnn_graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
use idgnn_graph::{DynamicGraph, Normalization};
use idgnn_model::exec::{self, CombinationOrder, OnePassOptions};
use idgnn_model::{Activation, Algorithm, DgnnModel, MemoryModel, ModelConfig, ALL_ALGORITHMS};
use idgnn_sparse::ops::sp_sub_pruned;

/// Edge churn at which every one-pass transition takes the `ΔA_C` delta path.
const LOW_CHURN: f64 = 0.01;
/// Edge churn at which every one-pass transition refreshes from scratch.
const HIGH_CHURN: f64 = 0.1;

fn workload(normalization: Normalization, dissimilarity: f64) -> (DgnnModel, DynamicGraph) {
    let dg = generate_dynamic_graph(
        &GraphConfig::power_law(400, 600, 8),
        &StreamConfig { deltas: 4, dissimilarity, ..Default::default() },
        17,
    )
    .unwrap();
    let model = DgnnModel::from_config(&ModelConfig {
        input_dim: 8,
        gnn_hidden: 6,
        gnn_layers: 2,
        rnn_hidden: 4,
        activation: Activation::Relu,
        normalization,
        seed: 3,
        rnn_kernel: Default::default(),
    })
    .unwrap();
    (model, dg)
}

fn check(
    algorithm: Algorithm,
    result: &exec::ExecutionResult,
    model: &DgnnModel,
    dg: &DynamicGraph,
) {
    let operators: Vec<_> = dg
        .materialize()
        .unwrap()
        .iter()
        .map(|s| model.normalization().apply(s.adjacency()))
        .collect();
    assert_eq!(result.operators.len(), operators.len(), "{algorithm}: one fact per snapshot");
    for (t, (facts, a)) in result.operators.iter().zip(&operators).enumerate() {
        assert_eq!(facts.csr_bytes, a.csr_bytes(), "{algorithm} t={t}: csr_bytes");
        assert_eq!(facts.indptr, a.indptr(), "{algorithm} t={t}: indptr");
        assert_eq!(facts.rows(), a.rows(), "{algorithm} t={t}: rows");
        assert_eq!(facts.nnz(), a.nnz(), "{algorithm} t={t}: nnz");
        match (algorithm, t) {
            (Algorithm::OnePass, t) if t > 0 => {
                let d = sp_sub_pruned(a, &operators[t - 1]).unwrap();
                let delta = facts.delta.expect("one-pass records ΔÂ for t > 0");
                assert_eq!(delta.csr_bytes, d.csr_bytes(), "{algorithm} t={t}: ΔÂ csr_bytes");
                let nonempty = (0..d.rows()).filter(|&r| d.row_nnz(r) > 0).count();
                assert_eq!(delta.nonempty_rows, nonempty, "{algorithm} t={t}: ΔÂ rows");
            }
            _ => assert_eq!(facts.delta, None, "{algorithm} t={t}: no ΔÂ recorded"),
        }
    }
}

#[test]
fn operator_facts_match_a_fresh_ingest() {
    let mem = MemoryModel::default();
    for normalization in [Normalization::Symmetric, Normalization::RowStochastic] {
        // Low churn takes the one-pass delta path; heavy churn makes the
        // dispatcher refresh from scratch, which must record the same facts.
        for dissimilarity in [LOW_CHURN, HIGH_CHURN] {
            let (model, dg) = workload(normalization, dissimilarity);
            for algorithm in ALL_ALGORITHMS {
                let result = exec::run(algorithm, &model, &dg, &mem).unwrap();
                check(algorithm, &result, &model, &dg);
            }
            let agg_first =
                OnePassOptions { order: CombinationOrder::AggregationFirst, ..Default::default() };
            let result = exec::run_onepass_with(&model, &dg, &mem, &agg_first).unwrap();
            check(Algorithm::OnePass, &result, &model, &dg);
        }
    }
}

#[test]
fn onepass_records_facts_on_both_dispatch_paths() {
    // Guard the premise of the test above: the two churn levels really
    // exercise the delta path and the refresh path respectively.
    let mem = MemoryModel::default();
    let took_delta = |dissimilarity: f64| -> Vec<bool> {
        let (model, dg) = workload(Normalization::Symmetric, dissimilarity);
        let r = exec::run(Algorithm::OnePass, &model, &dg, &mem).unwrap();
        r.costs[1..].iter().map(|c| c.ops_of(idgnn_model::Phase::AComb).total() > 0).collect()
    };
    assert!(took_delta(LOW_CHURN).iter().all(|&d| d), "low churn must take the delta path");
    assert!(took_delta(HIGH_CHURN).iter().all(|&d| !d), "heavy churn must refresh");
}
