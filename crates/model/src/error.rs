//! Error types for DGNN model construction and execution.

use std::error::Error;
use std::fmt;

use idgnn_graph::GraphError;
use idgnn_sparse::SparseError;

/// Error raised by model construction or execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A model with zero layers was requested.
    EmptyModel,
    /// Consecutive GCN layer dimensions do not chain.
    LayerDimensionMismatch {
        /// Index of the offending layer.
        layer: usize,
        /// Output width of the previous layer.
        expected: usize,
        /// Input width of the offending layer.
        got: usize,
    },
    /// An RNN cell gate weight has the wrong shape.
    RnnWeightShape {
        /// Index of the offending gate (cell-specific order, e.g. LSTM
        /// input/forget/output/cell).
        gate: usize,
        /// Which weight of the gate: `"W"` (input, `C × R`) or `"U"`
        /// (hidden, `R × R`).
        weight: &'static str,
        /// The shape the cell requires, `(rows, cols)`.
        expected: (usize, usize),
        /// The shape supplied, `(rows, cols)`.
        got: (usize, usize),
    },
    /// The input feature width does not match the model.
    InputDimensionMismatch {
        /// Model input width `K`.
        expected: usize,
        /// Provided feature width.
        got: usize,
    },
    /// An underlying sparse/dense kernel failed.
    Sparse(SparseError),
    /// An underlying graph operation failed.
    Graph(GraphError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyModel => f.write_str("model must have at least one GCN layer"),
            ModelError::LayerDimensionMismatch { layer, expected, got } => write!(
                f,
                "GCN layer {layer} expects input width {expected} but the previous layer outputs {got}"
            ),
            ModelError::RnnWeightShape { gate, weight, expected, got } => write!(
                f,
                "RNN gate {gate} weight {weight} is {}×{} but the cell requires {}×{}",
                got.0, got.1, expected.0, expected.1
            ),
            ModelError::InputDimensionMismatch { expected, got } => {
                write!(f, "input features have width {got}, model expects {expected}")
            }
            ModelError::Sparse(e) => write!(f, "kernel failure: {e}"),
            ModelError::Graph(e) => write!(f, "graph failure: {e}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Sparse(e) => Some(e),
            ModelError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for ModelError {
    fn from(e: SparseError) -> Self {
        ModelError::Sparse(e)
    }
}

impl From<GraphError> for ModelError {
    fn from(e: GraphError) -> Self {
        ModelError::Graph(e)
    }
}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ModelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ModelError::EmptyModel.to_string().contains("at least one"));
        let e = ModelError::LayerDimensionMismatch { layer: 2, expected: 8, got: 4 };
        assert!(e.to_string().contains("layer 2"));
        let e = ModelError::RnnWeightShape { gate: 3, weight: "U", expected: (4, 4), got: (5, 4) };
        assert_eq!(e.to_string(), "RNN gate 3 weight U is 5×4 but the cell requires 4×4");
        let e = ModelError::InputDimensionMismatch { expected: 3, got: 5 };
        assert!(e.to_string().contains("width 5"));
    }

    #[test]
    fn error_sources_chain() {
        let e: ModelError = SparseError::NotSquare { shape: (1, 2) }.into();
        assert!(e.source().is_some());
        let e: ModelError =
            GraphError::VertexOutOfRange { vertex: 1, vertices: 1 }.into();
        assert!(e.source().is_some());
        assert!(ModelError::EmptyModel.source().is_none());
    }
}
