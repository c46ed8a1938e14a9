//! LSTM cell — the RNN kernel of the DGNN (paper Eq. 4).
//!
//! Row convention: a batch of `V` vertices is a `V × C` matrix `Z` (GNN
//! outputs) and a `V × R` matrix `H` (hidden state), so gates compute as
//! `Z·W_α + H·U_α` with `W_α : C × R` and `U_α : R × R`.
//!
//! The four gate pairs are stored concatenated (`W_cat : C × 4R`,
//! `U_cat : R × 4R`) and a step runs as one fused row-blocked pass
//! ([`crate::cell`], DESIGN.md §17): per row, both products, the
//! sigmoid/tanh nonlinearities and the state update happen in L1-resident
//! scratch, bit-identical to the unfused GEMM + element-wise formulation.
//! The paper's RNN-A / RNN-B phase split of §V-C (Eqs. 16–17) survives as
//! the two op counts [`LstmCell::step`] returns, which the executors charge
//! to `Phase::RnnA` and `Phase::RnnB`.

use idgnn_sparse::{DenseMatrix, OpStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cell;
use crate::error::Result;

/// The four LSTM gates, in the paper's order (input, forget, output, cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Input gate `i`.
    Input,
    /// Forget gate `f`.
    Forget,
    /// Output gate `o`.
    Output,
    /// Cell candidate `c̃`.
    Cell,
}

/// All four gates in canonical order.
pub const GATES: [Gate; 4] = [Gate::Input, Gate::Forget, Gate::Output, Gate::Cell];

/// An LSTM cell with input weights `W_{i,f,o,c}` and hidden weights
/// `U_{i,f,o,c}` (no biases, matching the paper's Eq. 4), stored
/// concatenated gate-major as `W_cat : C × 4R` and `U_cat : R × 4R`.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmCell {
    w_cat: DenseMatrix,
    u_cat: DenseMatrix,
}

impl LstmCell {
    /// Creates a cell from explicit weights (`w[g]: C × R`, `u[g]: R × R`,
    /// gates in [`GATES`] order), with `C × R` taken from `w[0]`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::RnnWeightShape`](crate::ModelError::RnnWeightShape)
    /// naming the first weight whose shape is inconsistent.
    pub fn new(w: [DenseMatrix; 4], u: [DenseMatrix; 4]) -> Result<Self> {
        let (w_cat, u_cat) = cell::validated_concat(&w, &u)?;
        Ok(Self { w_cat, u_cat })
    }

    /// Creates a cell with small random weights, deterministic in `seed`.
    pub fn random(input_dim: usize, hidden_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mk = |rows: usize, cols: usize| cell::random_matrix(&mut rng, rows, cols);
        let w = [
            mk(input_dim, hidden_dim),
            mk(input_dim, hidden_dim),
            mk(input_dim, hidden_dim),
            mk(input_dim, hidden_dim),
        ];
        let u = [
            mk(hidden_dim, hidden_dim),
            mk(hidden_dim, hidden_dim),
            mk(hidden_dim, hidden_dim),
            mk(hidden_dim, hidden_dim),
        ];
        Self { w_cat: cell::concat_gates(&w), u_cat: cell::concat_gates(&u) }
    }

    /// Input dimensionality `C` (GNN output width).
    pub fn input_dim(&self) -> usize {
        self.w_cat.rows()
    }

    /// Hidden dimensionality `R`.
    pub fn hidden_dim(&self) -> usize {
        self.u_cat.rows()
    }

    /// The concatenated input weights `W_cat = [W_i | W_f | W_o | W_c]`
    /// (`C × 4R`).
    pub fn w_cat(&self) -> &DenseMatrix {
        &self.w_cat
    }

    /// The concatenated hidden weights `U_cat = [U_i | U_f | U_o | U_c]`
    /// (`R × 4R`).
    pub fn u_cat(&self) -> &DenseMatrix {
        &self.u_cat
    }

    /// A copy of the input weight of `gate` (`C × R`).
    pub fn w(&self, gate: Gate) -> DenseMatrix {
        cell::gate_block(&self.w_cat, gate_index(gate), self.hidden_dim())
    }

    /// A copy of the hidden weight of `gate` (`R × R`).
    pub fn u(&self, gate: Gate) -> DenseMatrix {
        cell::gate_block(&self.u_cat, gate_index(gate), self.hidden_dim())
    }

    /// One LSTM step (paper Eq. 4) through the fused row kernel, returning
    /// the next state and the op counts of the paper's two phases:
    /// **RNN-A** (Eq. 16, the GNN-independent `H^{t-1}·U_α` products: 4
    /// GEMMs) and **RNN-B** (Eq. 17, the `Z·W_α` products, the 4 gate adds
    /// and the `f∘c + i∘c̃`, `o∘tanh(c)` epilogue: 3 mults + 1 add per
    /// element). The split exists only in the accounting; the kernel
    /// computes both halves in one pass per row.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `z` is not `V × C` or `prev` is not `V × R`.
    pub fn step(
        &self,
        z: &DenseMatrix,
        prev: &LstmState,
    ) -> Result<(LstmState, OpStats, OpStats)> {
        let (v, c, r) = (z.rows(), self.input_dim(), self.hidden_dim());
        cell::check_shape("lstm_step z", z, (v, c))?;
        cell::check_shape("lstm_step h", &prev.h, (v, r))?;
        cell::check_shape("lstm_step c", &prev.c, (v, r))?;
        let mut next = LstmState::zeros(v, r);
        let inputs = cell::StepInputs {
            z,
            h: &prev.h,
            carried: &prev.c,
            w_cat: &self.w_cat,
            u_cat: &self.u_cat,
        };
        let LstmState { h, c: c_next } = &mut next;
        cell::fused_rows(
            &inputs,
            [h.as_mut_slice(), c_next.as_mut_slice()],
            |pre, h_part, c_prev, [h_out, c_out]| {
                lstm_epilogue(pre, h_part, c_prev, h_out, c_out, r);
            },
        );
        let elems = (v * r) as u64;
        let ops_a = cell::gemm_ops(4, v, r, r);
        // RNN-B: the Z·W_α GEMMs, 4 gate adds, then 3 mults + 1 add.
        let ops_b = cell::gemm_ops(4, v, c, r) + OpStats::counted(3 * elems, 4 * elems + elems);
        Ok((next, ops_a, ops_b))
    }
}

/// The LSTM epilogue for one row: `pre` holds `z·W_cat` and becomes the
/// pre-activations `z-part + h-part`; then `c' = σ(f)∘c + σ(i)∘tanh(c̃)` and
/// `h' = σ(o)∘tanh(c')`, in the unfused element-wise order. Each
/// nonlinearity runs as its own tight pass over the L1-resident row, like
/// the unfused whole-matrix passes did.
#[inline]
fn lstm_epilogue(
    pre: &mut [f32],
    h_part: &[f32],
    c_prev: &[f32],
    h_out: &mut [f32],
    c_out: &mut [f32],
    r: usize,
) {
    for (p, &hp) in pre.iter_mut().zip(h_part) {
        *p += hp;
    }
    let (ifo, cand) = pre.split_at_mut(3 * r);
    for p in ifo.iter_mut() {
        *p = DenseMatrix::sigmoid_scalar(*p);
    }
    for p in cand.iter_mut() {
        *p = p.tanh();
    }
    let [i, f, o] = cell::gates::<3>(ifo, r);
    for (((c, &c_prev), &f), (&i, &cand)) in
        c_out.iter_mut().zip(c_prev).zip(f).zip(i.iter().zip(cand.iter()))
    {
        *c = f * c_prev + i * cand;
    }
    for ((h, &c), &o) in h_out.iter_mut().zip(c_out.iter()).zip(o) {
        *h = o * c.tanh();
    }
}

fn gate_index(g: Gate) -> usize {
    match g {
        Gate::Input => 0,
        Gate::Forget => 1,
        Gate::Output => 2,
        Gate::Cell => 3,
    }
}

/// Per-vertex LSTM state: hidden `H` and cell `c`, both `V × R`.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden state `H^t`.
    pub h: DenseMatrix,
    /// Cell state `c^t`.
    pub c: DenseMatrix,
}

impl LstmState {
    /// The all-zero initial state for `vertices` rows of width `hidden_dim`.
    pub fn zeros(vertices: usize, hidden_dim: usize) -> Self {
        Self { h: DenseMatrix::zeros(vertices, hidden_dim), c: DenseMatrix::zeros(vertices, hidden_dim) }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.h.rows()
    }

    /// Hidden width `R`.
    pub fn hidden_dim(&self) -> usize {
        self.h.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelError;

    fn cell() -> LstmCell {
        LstmCell::random(3, 2, 42)
    }

    #[test]
    fn dims() {
        let c = cell();
        assert_eq!(c.input_dim(), 3);
        assert_eq!(c.hidden_dim(), 2);
        assert_eq!(c.w(Gate::Input).shape(), (3, 2));
        assert_eq!(c.u(Gate::Cell).shape(), (2, 2));
        assert_eq!(c.w_cat().shape(), (3, 8));
        assert_eq!(c.u_cat().shape(), (2, 8));
    }

    #[test]
    fn random_is_deterministic() {
        assert_eq!(LstmCell::random(3, 2, 7), LstmCell::random(3, 2, 7));
        assert_ne!(LstmCell::random(3, 2, 7), LstmCell::random(3, 2, 8));
    }

    #[test]
    fn new_round_trips_gate_weights() {
        let c = cell();
        let w = GATES.map(|g| c.w(g));
        let u = GATES.map(|g| c.u(g));
        assert_eq!(LstmCell::new(w, u).unwrap(), c);
    }

    #[test]
    fn step_reports_closed_form_phase_ops() {
        // RNN-A: 4 GEMMs V×R·R×R. RNN-B: 4 GEMMs V×C·C×R, 4·V·R gate adds,
        // 3·V·R mults + V·R adds of the epilogue.
        let c = cell();
        let (v, cc, r) = (5u64, 3u64, 2u64);
        let z = DenseMatrix::filled(5, 3, 0.3);
        let (_, a, b) = c.step(&z, &LstmState::zeros(5, 2)).unwrap();
        assert_eq!(a, OpStats::counted(4 * v * r * r, 4 * v * r * (r - 1)));
        assert_eq!(
            b,
            OpStats::counted(4 * v * r * cc + 3 * v * r, 4 * v * r * (cc - 1) + 4 * v * r + v * r)
        );
    }

    #[test]
    fn zero_state_zero_input_gives_zero_hidden() {
        // With z = 0 and h = c = 0: all gate pre-activations are 0, so
        // c' = σ(0)·tanh(0) = 0 and h' = σ(0)·tanh(0) = 0.
        let c = cell();
        let z = DenseMatrix::zeros(4, 3);
        let (s, ..) = c.step(&z, &LstmState::zeros(4, 2)).unwrap();
        assert!(s.h.approx_eq(&DenseMatrix::zeros(4, 2), 1e-6));
        assert!(s.c.approx_eq(&DenseMatrix::zeros(4, 2), 1e-6));
    }

    #[test]
    fn hidden_state_is_bounded() {
        // h = σ(·)·tanh(·) ∈ (-1, 1) always.
        let c = cell();
        let z = DenseMatrix::filled(4, 3, 100.0);
        let mut state = LstmState::zeros(4, 2);
        for _ in 0..5 {
            state = c.step(&z, &state).unwrap().0;
        }
        assert!(state.h.as_slice().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn state_depends_on_history() {
        let c = cell();
        let z = DenseMatrix::filled(4, 3, 0.5);
        let (s1, ..) = c.step(&z, &LstmState::zeros(4, 2)).unwrap();
        let (s2, ..) = c.step(&z, &s1).unwrap();
        assert!(!s1.h.approx_eq(&s2.h, 1e-6));
    }

    #[test]
    fn shape_mismatch_is_error() {
        let c = cell();
        let z = DenseMatrix::zeros(4, 7); // wrong width
        assert!(c.step(&z, &LstmState::zeros(4, 2)).is_err());
        let short = LstmState::zeros(3, 2); // wrong row count
        assert!(c.step(&DenseMatrix::zeros(4, 3), &short).is_err());
    }

    #[test]
    fn empty_batch_steps_to_empty_state() {
        let (s, a, b) = cell().step(&DenseMatrix::zeros(0, 3), &LstmState::zeros(0, 2)).unwrap();
        assert_eq!(s.num_vertices(), 0);
        assert_eq!(a.total() + b.total(), 0);
    }

    #[test]
    fn new_validates_shapes() {
        let good = DenseMatrix::zeros(3, 2);
        let u = DenseMatrix::zeros(2, 2);
        assert!(LstmCell::new(
            [good.clone(), good.clone(), good.clone(), good.clone()],
            [u.clone(), u.clone(), u.clone(), u.clone()],
        )
        .is_ok());
        let bad = DenseMatrix::zeros(3, 9);
        assert!(LstmCell::new(
            [good.clone(), bad, good.clone(), good.clone()],
            [u.clone(), u.clone(), u.clone(), u],
        )
        .is_err());
    }

    #[test]
    fn row_mismatch_names_gate_and_shapes() {
        // A (C+1)×R input weight: same column count, wrong row count.
        let good = DenseMatrix::zeros(32, 32);
        let tall = DenseMatrix::zeros(33, 32);
        let err = LstmCell::new(
            [good.clone(), good.clone(), tall, good.clone()],
            [good.clone(), good.clone(), good.clone(), good],
        )
        .unwrap_err();
        assert_eq!(
            err,
            ModelError::RnnWeightShape { gate: 2, weight: "W", expected: (32, 32), got: (33, 32) }
        );
        let msg = err.to_string();
        assert!(msg.contains("gate 2") && msg.contains("33×32"), "{msg}");
        assert!(msg.contains("32×32"), "{msg}");
        assert!(!msg.contains("GCN"), "{msg}");
    }

    #[test]
    fn column_mismatch_names_gate_and_shapes() {
        let w = DenseMatrix::zeros(3, 2);
        let u = DenseMatrix::zeros(2, 2);
        let wide = DenseMatrix::zeros(2, 5);
        let err = LstmCell::new(
            [w.clone(), w.clone(), w.clone(), w],
            [u.clone(), wide, u.clone(), u],
        )
        .unwrap_err();
        assert_eq!(
            err,
            ModelError::RnnWeightShape { gate: 1, weight: "U", expected: (2, 2), got: (2, 5) }
        );
    }

    #[test]
    fn rnn_ops_match_paper_scaling() {
        // RNN op counts scale with V — double V, double ops.
        let c = cell();
        let (_, a1, b1) = c.step(&DenseMatrix::zeros(4, 3), &LstmState::zeros(4, 2)).unwrap();
        let (_, a2, b2) = c.step(&DenseMatrix::zeros(8, 3), &LstmState::zeros(8, 2)).unwrap();
        assert_eq!(a2.mults, 2 * a1.mults);
        assert_eq!(b2.mults, 2 * b1.mults);
    }

    #[test]
    fn lstm_state_accessors() {
        let s = LstmState::zeros(6, 3);
        assert_eq!(s.num_vertices(), 6);
        assert_eq!(s.hidden_dim(), 3);
    }
}
