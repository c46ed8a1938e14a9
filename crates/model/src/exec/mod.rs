//! The three DGNN execution algorithms and their common result types.
//!
//! * [`Algorithm::Recompute`] — every snapshot through the full pipeline
//!   (ReaDy / DGNN-Booster, paper Fig. 4a);
//! * [`Algorithm::Incremental`] — only affected vertices recomputed layer by
//!   layer, intermediates of both snapshots retained (RACE, Fig. 4b);
//! * [`Algorithm::OnePass`] — the I-DGNN one-pass kernel (Fig. 5): the
//!   multi-layer GNN collapses into the dissimilarity computation, and no
//!   intermediate features exist at all.
//!
//! All three produce the same hidden states under a linear GCN (asserted by
//! the integration tests); they differ in operation counts and DRAM traffic,
//! which is exactly what the paper's Figs. 10–13 measure.

mod incremental;
mod onepass;
mod recompute;

pub use onepass::{CombinationOrder, OnePassOptions};

use idgnn_graph::DynamicGraph;
use idgnn_sparse::{CsrMatrix, DenseMatrix};

use crate::cost::{dense_bytes, DataClass, MemoryModel, Phase, SnapshotCost, Traffic};
use crate::error::Result;
use crate::lstm::LstmState;
use crate::DgnnModel;

/// Which execution algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Algorithm {
    /// Full recomputation per snapshot (the ReaDy / DGNN-Booster paradigm).
    Recompute,
    /// Incremental computing over affected vertices (the RACE paradigm).
    Incremental,
    /// The proposed one-pass dissimilarity kernel (I-DGNN).
    OnePass,
}

/// All algorithms in the paper's comparison order.
pub const ALL_ALGORITHMS: [Algorithm; 3] =
    [Algorithm::Recompute, Algorithm::Incremental, Algorithm::OnePass];

impl Algorithm {
    /// Label used in harness output (matches the paper's figure legends).
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Recompute => "Re-Algorithm",
            Algorithm::Incremental => "Inc-Algorithm",
            Algorithm::OnePass => "P-Algorithm",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Functional output for one snapshot: the GNN output features and the LSTM
/// state.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotOutput {
    /// GNN output `Z^t` (`X_C^t` for the fused path).
    pub z: DenseMatrix,
    /// LSTM state after consuming `Z^t`.
    pub state: LstmState,
}

/// Structural facts about one snapshot's normalized operator `Â^t`,
/// recorded by the executor that built it. The accelerator simulators time
/// an execution from these facts and never re-ingest the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorFacts {
    /// `Â^t.csr_bytes()`.
    pub csr_bytes: u64,
    /// A copy of `Â^t.indptr()`: per-row populations and the load of any
    /// contiguous row split.
    pub indptr: Vec<usize>,
    /// The operator delta `ΔÂ^t = Â^t − Â^{t−1}` (zeros pruned). Recorded
    /// by the one-pass executor for `t > 0` only.
    pub delta: Option<DeltaFacts>,
}

/// Structural facts about one operator delta `ΔÂ^t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaFacts {
    /// `ΔÂ^t.csr_bytes()`.
    pub csr_bytes: u64,
    /// Rows of `ΔÂ^t` with at least one stored entry.
    pub nonempty_rows: usize,
}

impl OperatorFacts {
    /// The facts of `a`, without a delta.
    pub fn of(a: &CsrMatrix) -> Self {
        Self { csr_bytes: a.csr_bytes(), indptr: a.indptr().to_vec(), delta: None }
    }

    /// The facts of `a`, with `delta = a − (previous operator)`.
    pub fn with_delta(a: &CsrMatrix, delta: &CsrMatrix) -> Self {
        let nonempty_rows = (0..delta.rows()).filter(|&r| delta.row_nnz(r) > 0).count();
        Self {
            delta: Some(DeltaFacts { csr_bytes: delta.csr_bytes(), nonempty_rows }),
            ..Self::of(a)
        }
    }

    /// Rows (vertices) of the operator.
    pub fn rows(&self) -> usize {
        self.indptr.len().saturating_sub(1)
    }

    /// Stored entries of the operator.
    pub fn nnz(&self) -> usize {
        self.indptr.last().copied().unwrap_or(0)
    }
}

/// Full execution record over a dynamic graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionResult {
    /// Per-snapshot functional outputs, in time order.
    pub outputs: Vec<SnapshotOutput>,
    /// Per-snapshot costs, in time order.
    pub costs: Vec<SnapshotCost>,
    /// Per-snapshot facts about the normalized operator, in time order.
    pub operators: Vec<OperatorFacts>,
}

impl ExecutionResult {
    /// Total op count over all snapshots.
    pub fn total_ops(&self) -> idgnn_sparse::OpStats {
        self.costs.iter().fold(idgnn_sparse::OpStats::default(), |a, c| a + c.total_ops())
    }

    /// Total DRAM traffic over all snapshots.
    pub fn total_dram(&self) -> crate::cost::Traffic {
        self.costs.iter().fold(crate::cost::Traffic::none(), |a, c| a.merged(&c.total_dram()))
    }

    /// The final hidden state, if any snapshot was processed.
    pub fn final_state(&self) -> Option<&LstmState> {
        self.outputs.last().map(|o| &o.state)
    }
}

/// Runs `algorithm` over the whole dynamic graph.
///
/// # Errors
///
/// Propagates model/graph shape errors and delta conflicts.
pub fn run(
    algorithm: Algorithm,
    model: &DgnnModel,
    dg: &DynamicGraph,
    mem: &MemoryModel,
) -> Result<ExecutionResult> {
    match algorithm {
        Algorithm::Recompute => recompute::run(model, dg, mem),
        Algorithm::Incremental => incremental::run(model, dg, mem),
        Algorithm::OnePass => onepass::run(model, dg, mem, &OnePassOptions::default()),
    }
}

/// Runs the one-pass algorithm with explicit options (strategy ablations).
///
/// # Errors
///
/// Propagates model/graph shape errors and delta conflicts.
pub fn run_onepass_with(
    model: &DgnnModel,
    dg: &DynamicGraph,
    mem: &MemoryModel,
    options: &OnePassOptions,
) -> Result<ExecutionResult> {
    onepass::run(model, dg, mem, options)
}

/// Runs one RNN step over all `v` vertices on `z` (advancing `state` in
/// place) and charges it to `cost` as the paper's two phases: `Phase::RnnA`
/// with the `H·U_α` op counts and `Phase::RnnB` with the rest. When the
/// state does not fit on chip alongside `z`, RNN-A reads `H` from DRAM and
/// RNN-B reads it again and writes back both state matrices. Shared by all
/// three executors.
///
/// # Errors
///
/// Propagates RNN shape errors.
pub(crate) fn push_rnn(
    model: &DgnnModel,
    z: &DenseMatrix,
    state: &mut LstmState,
    v: usize,
    mem: &MemoryModel,
    cost: &mut SnapshotCost,
) -> Result<()> {
    let (next, ops_a, ops_b) = model.rnn_step(z, state)?;
    let r_dim = model.dims().rnn_hidden_dim;
    let state_bytes = 2 * dense_bytes(v, r_dim);
    let rnn_spilled = !mem.fits(state_bytes + dense_bytes(v, z.cols()));
    let mut ta = Traffic::none();
    if rnn_spilled {
        ta.read(DataClass::OutputFeature, dense_bytes(v, r_dim));
    }
    cost.push(Phase::RnnA, ops_a, ta);
    let mut tb = Traffic::none();
    if rnn_spilled {
        tb.read(DataClass::OutputFeature, dense_bytes(v, r_dim));
        tb.write(DataClass::OutputFeature, state_bytes);
    }
    cost.push(Phase::RnnB, ops_b, tb);
    *state = next;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Algorithm::Recompute.label(), "Re-Algorithm");
        assert_eq!(Algorithm::Incremental.label(), "Inc-Algorithm");
        assert_eq!(Algorithm::OnePass.to_string(), "P-Algorithm");
        assert_eq!(ALL_ALGORITHMS.len(), 3);
    }
}
