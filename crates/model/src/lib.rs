//! # idgnn-model
//!
//! The DGNN model zoo and execution algorithms of the I-DGNN reproduction
//! (HPCA 2025):
//!
//! * [`GcnLayer`] / [`GcnStack`] — the GNN kernel (paper Eq. 3/5);
//! * [`LstmCell`] / [`GruCell`] — the RNN kernels, each step one fused
//!   row-blocked pass whose op counts keep the RNN-A/RNN-B phase split
//!   (Eqs. 4, 16–17);
//! * [`fusion`] — layer fusion `W_C = Π W_l`, `A_C = Â^L` (Eqs. 6–9);
//! * [`onepass`] — the fused dissimilarity kernel `ΔA_C` with the
//!   transpose optimization (Eqs. 10–15);
//! * [`exec`] — the three execution algorithms (Recompute / Incremental /
//!   OnePass) producing both functional outputs and exact per-phase costs
//!   ([`cost`]): operation counts and DRAM traffic by data class.
//!
//! ## Example
//!
//! Run all three algorithms on a small synthetic dynamic graph and verify
//! that one-pass does strictly less work:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use idgnn_graph::generate::{generate_dynamic_graph, GraphConfig, StreamConfig};
//! use idgnn_model::{exec, Algorithm, DgnnModel, MemoryModel, ModelConfig};
//!
//! let dg = generate_dynamic_graph(
//!     &GraphConfig::power_law(30, 90, 8),
//!     &StreamConfig::default(),
//!     1,
//! )?;
//! let model = DgnnModel::from_config(&ModelConfig::paper_default(8))?;
//! let mem = MemoryModel::paper_default();
//!
//! let onepass = exec::run(Algorithm::OnePass, &model, &dg, &mem)?;
//! let recompute = exec::run(Algorithm::Recompute, &model, &dg, &mem)?;
//! assert!(onepass.total_ops().total() < recompute.total_ops().total());
//! # Ok(())
//! # }
//! ```

mod activation;
mod cell;
mod dgnn;
mod error;
mod gcn;
mod gru;
mod lstm;

pub mod cost;
pub mod estimate;
pub mod exec;
pub mod fusion;
pub mod onepass;

pub use activation::Activation;
pub use cost::{DataClass, MemoryModel, Phase, PhaseCost, SnapshotCost, Traffic, DATA_CLASSES};
pub use dgnn::{DgnnModel, ModelConfig, ModelDims, RnnKernel, RnnKernelKind};
pub use error::{ModelError, Result};
pub use exec::{Algorithm, ExecutionResult, SnapshotOutput, ALL_ALGORITHMS};
pub use gcn::{GcnLayer, GcnStack};
pub use gru::GruCell;
pub use lstm::{Gate, LstmCell, LstmState, GATES};
pub use onepass::{advance_power_chains, ChainAdvance, DissimilarityStrategy, PowerCache};
