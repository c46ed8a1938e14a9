//! The complete DGNN model: a GCN stack feeding an RNN kernel — LSTM by
//! default, GRU as the paper's named alternative (paper Fig. 2, Eq. 2,
//! §II-B).

use idgnn_graph::Normalization;
use idgnn_sparse::{DenseMatrix, OpStats};

use crate::error::{ModelError, Result};
use crate::gcn::GcnStack;
use crate::gru::GruCell;
use crate::lstm::{LstmCell, LstmState};
use crate::Activation;

/// Which RNN kernel a model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum RnnKernelKind {
    /// Long short-term memory (the paper's primary kernel, Eq. 4).
    #[default]
    Lstm,
    /// Gated recurrent unit (the paper's named variant).
    Gru,
}

/// A concrete RNN kernel.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RnnKernel {
    /// An LSTM cell.
    Lstm(LstmCell),
    /// A GRU cell.
    Gru(GruCell),
}

impl RnnKernel {
    /// Input dimensionality `C`.
    pub fn input_dim(&self) -> usize {
        match self {
            RnnKernel::Lstm(c) => c.input_dim(),
            RnnKernel::Gru(c) => c.input_dim(),
        }
    }

    /// Hidden dimensionality `R`.
    pub fn hidden_dim(&self) -> usize {
        match self {
            RnnKernel::Lstm(c) => c.hidden_dim(),
            RnnKernel::Gru(c) => c.hidden_dim(),
        }
    }

    /// Number of `(input, hidden)` weight-matrix pairs (4 for LSTM, 3 for GRU).
    pub fn gate_count(&self) -> usize {
        match self {
            RnnKernel::Lstm(_) => 4,
            RnnKernel::Gru(_) => 3,
        }
    }
}

/// Dimension summary of a DGNN model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelDims {
    /// Input feature width `K`.
    pub input_dim: usize,
    /// GNN output width `C` (also the GCN hidden width here).
    pub gnn_out_dim: usize,
    /// Number of GCN layers `L`.
    pub gnn_layers: usize,
    /// LSTM hidden width `R`.
    pub rnn_hidden_dim: usize,
}

/// Configuration for building a random-weight DGNN model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Input feature width `K`.
    pub input_dim: usize,
    /// GCN hidden/output width `C`.
    pub gnn_hidden: usize,
    /// Number of GCN layers `L` (the paper evaluates `L = 3`).
    pub gnn_layers: usize,
    /// LSTM hidden width `R`.
    pub rnn_hidden: usize,
    /// GCN activation.
    pub activation: Activation,
    /// Adjacency normalization.
    pub normalization: Normalization,
    /// Weight-initialization seed.
    pub seed: u64,
    /// RNN kernel family.
    pub rnn_kernel: RnnKernelKind,
}

impl ModelConfig {
    /// The evaluation default: 3-layer GCN, ReLU, symmetric normalization.
    pub fn paper_default(input_dim: usize) -> Self {
        Self {
            input_dim,
            gnn_hidden: 32,
            gnn_layers: 3,
            rnn_hidden: 32,
            activation: Activation::Relu,
            normalization: Normalization::Symmetric,
            seed: 0xD61,
            rnn_kernel: RnnKernelKind::Lstm,
        }
    }

    /// Same configuration with the GRU kernel.
    pub fn with_gru(mut self) -> Self {
        self.rnn_kernel = RnnKernelKind::Gru;
        self
    }

    /// Same dimensions but with a linear GCN — the configuration under which
    /// all three algorithms are bit-for-bit equivalent.
    pub fn linear(mut self) -> Self {
        self.activation = Activation::Linear;
        self
    }
}

/// A typical discrete-time DGNN: `Z^t = GNN(G^t)`, `H^t = RNN(H^{t-1}, Z^t)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DgnnModel {
    gcn: GcnStack,
    rnn: RnnKernel,
    normalization: Normalization,
}

impl DgnnModel {
    /// Assembles a model from a GCN stack and an LSTM cell (the common case).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LayerDimensionMismatch`] if the GNN output width
    /// does not match the RNN input width.
    pub fn new(gcn: GcnStack, lstm: LstmCell, normalization: Normalization) -> Result<Self> {
        Self::with_rnn(gcn, RnnKernel::Lstm(lstm), normalization)
    }

    /// Assembles a model from a GCN stack and any RNN kernel.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LayerDimensionMismatch`] if the GNN output width
    /// does not match the RNN input width.
    pub fn with_rnn(gcn: GcnStack, rnn: RnnKernel, normalization: Normalization) -> Result<Self> {
        if gcn.out_dim() != rnn.input_dim() {
            return Err(ModelError::LayerDimensionMismatch {
                layer: gcn.num_layers(),
                expected: gcn.out_dim(),
                got: rnn.input_dim(),
            });
        }
        Ok(Self { gcn, rnn, normalization })
    }

    /// Builds a model with random weights from a [`ModelConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyModel`] if `gnn_layers == 0`.
    pub fn from_config(cfg: &ModelConfig) -> Result<Self> {
        let gcn =
            GcnStack::random(cfg.input_dim, cfg.gnn_hidden, cfg.gnn_layers, cfg.activation, cfg.seed)?;
        let rnn = match cfg.rnn_kernel {
            RnnKernelKind::Lstm => RnnKernel::Lstm(LstmCell::random(
                cfg.gnn_hidden,
                cfg.rnn_hidden,
                cfg.seed.wrapping_add(101),
            )),
            RnnKernelKind::Gru => RnnKernel::Gru(GruCell::random(
                cfg.gnn_hidden,
                cfg.rnn_hidden,
                cfg.seed.wrapping_add(101),
            )),
        };
        Self::with_rnn(gcn, rnn, cfg.normalization)
    }

    /// The GCN stack.
    pub fn gcn(&self) -> &GcnStack {
        &self.gcn
    }

    /// The RNN kernel.
    pub fn rnn(&self) -> &RnnKernel {
        &self.rnn
    }

    /// The LSTM cell, if this model uses one (the common case).
    pub fn lstm(&self) -> Option<&LstmCell> {
        match &self.rnn {
            RnnKernel::Lstm(c) => Some(c),
            _ => None,
        }
    }

    /// One RNN step over all vertices through the kernel's fused row pass
    /// (DESIGN.md §17), returning the next state and the op counts of the
    /// paper's two RNN phases — RNN-A (Eq. 16, the GNN-independent
    /// `H^{t-1}·U_α` products) and RNN-B (Eq. 17, everything that consumes
    /// `z`) — so executors can still charge them separately.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `z` is not `V × C` or `prev` is not `V × R`.
    pub fn rnn_step(
        &self,
        z: &DenseMatrix,
        prev: &LstmState,
    ) -> Result<(LstmState, OpStats, OpStats)> {
        match &self.rnn {
            RnnKernel::Lstm(c) => c.step(z, prev),
            RnnKernel::Gru(c) => c.step(z, prev),
        }
    }

    /// The adjacency normalization applied before GCN propagation.
    pub fn normalization(&self) -> Normalization {
        self.normalization
    }

    /// The model's activation (taken from the first GCN layer; all layers
    /// built by [`DgnnModel::from_config`] share it).
    pub fn activation(&self) -> Activation {
        // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
        self.gcn.layers()[0].activation()
    }

    /// Dimension summary.
    pub fn dims(&self) -> ModelDims {
        ModelDims {
            input_dim: self.gcn.in_dim(),
            gnn_out_dim: self.gcn.out_dim(),
            gnn_layers: self.gcn.num_layers(),
            rnn_hidden_dim: self.rnn.hidden_dim(),
        }
    }

    /// Total bytes of all weight matrices (GCN layers + the RNN gate pairs:
    /// 8 matrices for an LSTM, 6 for a GRU) — the per-snapshot weight
    /// traffic of the recompute/incremental algorithms.
    pub fn weight_bytes(&self) -> u64 {
        let gcn: u64 = self
            .gcn
            .layers()
            .iter()
            .map(|l| 4 * (l.in_dim() as u64) * (l.out_dim() as u64))
            .sum();
        let gates = self.rnn.gate_count() as u64;
        let c = self.rnn.input_dim() as u64;
        let r = self.rnn.hidden_dim() as u64;
        gcn + 4 * gates * c * r + 4 * gates * r * r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_config_builds_consistent_model() {
        let m = DgnnModel::from_config(&ModelConfig::paper_default(16)).unwrap();
        let d = m.dims();
        assert_eq!(d.input_dim, 16);
        assert_eq!(d.gnn_layers, 3);
        assert_eq!(d.gnn_out_dim, 32);
        assert_eq!(d.rnn_hidden_dim, 32);
        assert_eq!(m.activation(), Activation::Relu);
    }

    #[test]
    fn mismatched_lstm_rejected() {
        let gcn = GcnStack::random(4, 8, 2, Activation::Linear, 0).unwrap();
        let lstm = LstmCell::random(9, 4, 0); // expects GNN width 9, got 8
        assert!(matches!(
            DgnnModel::new(gcn, lstm, Normalization::Symmetric),
            Err(ModelError::LayerDimensionMismatch { .. })
        ));
    }

    #[test]
    fn linear_builder_flips_activation() {
        let cfg = ModelConfig::paper_default(8).linear();
        let m = DgnnModel::from_config(&cfg).unwrap();
        assert_eq!(m.activation(), Activation::Linear);
    }

    #[test]
    fn weight_bytes_counts_all_matrices() {
        let cfg = ModelConfig {
            input_dim: 4,
            gnn_hidden: 2,
            gnn_layers: 2,
            rnn_hidden: 3,
            activation: Activation::Linear,
            normalization: Normalization::Raw,
            seed: 1,
            rnn_kernel: Default::default(),
        };
        let m = DgnnModel::from_config(&cfg).unwrap();
        // GCN: 4×2 + 2×2 = 12 floats; LSTM: 4·(2×3) + 4·(3×3) = 60 floats.
        assert_eq!(m.weight_bytes(), 4 * (12 + 60));
    }

    #[test]
    fn config_is_deterministic() {
        let cfg = ModelConfig::paper_default(8);
        assert_eq!(DgnnModel::from_config(&cfg).unwrap(), DgnnModel::from_config(&cfg).unwrap());
    }
}
