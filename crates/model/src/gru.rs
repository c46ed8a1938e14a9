//! GRU cell — the alternate RNN kernel the paper calls out ("this work can
//! also be efficiently applied to other RNN variants, such as gated
//! recurrent units", §II-B).
//!
//! Gates (no biases, matching the paper's LSTM formulation):
//!
//! ```text
//! r = σ(Z·W_r + H·U_r)          (reset)
//! u = σ(Z·W_u + H·U_u)          (update)
//! n = tanh(Z·W_n + r ∘ (H·U_n)) (candidate)
//! H' = (1 − u) ∘ n + u ∘ H
//! ```
//!
//! Like the LSTM, the three gate pairs are stored concatenated
//! (`W_cat : C × 3R`, `U_cat : R × 3R`) and a step is one fused row-blocked
//! pass ([`crate::cell`], DESIGN.md §17), bit-identical to the unfused
//! formulation. The RNN-A (`H·U_α`, GNN-independent) / RNN-B (`Z·W_α` plus
//! the epilogue) split lives on only in the two op counts
//! [`GruCell::step`] returns.

use idgnn_sparse::{DenseMatrix, OpStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cell;
use crate::error::Result;
use crate::lstm::LstmState;

/// A GRU cell with input weights `W_{r,u,n}` and hidden weights `U_{r,u,n}`,
/// stored concatenated gate-major.
#[derive(Debug, Clone, PartialEq)]
pub struct GruCell {
    w_cat: DenseMatrix,
    u_cat: DenseMatrix,
}

impl GruCell {
    /// Creates a cell from explicit weights (`w[g]: C × R`, `u[g]: R × R`,
    /// gates ordered reset, update, candidate), with `C × R` taken from
    /// `w[0]`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::RnnWeightShape`](crate::ModelError::RnnWeightShape)
    /// naming the first weight whose shape is inconsistent.
    pub fn new(w: [DenseMatrix; 3], u: [DenseMatrix; 3]) -> Result<Self> {
        let (w_cat, u_cat) = cell::validated_concat(&w, &u)?;
        Ok(Self { w_cat, u_cat })
    }

    /// Creates a cell with small random weights, deterministic in `seed`.
    pub fn random(input_dim: usize, hidden_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mk = |rows: usize, cols: usize| cell::random_matrix(&mut rng, rows, cols);
        let w = [mk(input_dim, hidden_dim), mk(input_dim, hidden_dim), mk(input_dim, hidden_dim)];
        let u = [mk(hidden_dim, hidden_dim), mk(hidden_dim, hidden_dim), mk(hidden_dim, hidden_dim)];
        Self { w_cat: cell::concat_gates(&w), u_cat: cell::concat_gates(&u) }
    }

    /// Input dimensionality `C`.
    pub fn input_dim(&self) -> usize {
        self.w_cat.rows()
    }

    /// Hidden dimensionality `R`.
    pub fn hidden_dim(&self) -> usize {
        self.u_cat.rows()
    }

    /// The concatenated input weights `W_cat = [W_r | W_u | W_n]` (`C × 3R`).
    pub fn w_cat(&self) -> &DenseMatrix {
        &self.w_cat
    }

    /// The concatenated hidden weights `U_cat = [U_r | U_u | U_n]` (`R × 3R`).
    pub fn u_cat(&self) -> &DenseMatrix {
        &self.u_cat
    }

    /// A copy of the input weight of gate `g` (0 = reset, 1 = update,
    /// 2 = candidate; `C × R`, empty columns for `g >= 3`).
    pub fn w(&self, g: usize) -> DenseMatrix {
        cell::gate_block(&self.w_cat, g, self.hidden_dim())
    }

    /// A copy of the hidden weight of gate `g` (`R × R`, empty columns for
    /// `g >= 3`).
    pub fn u(&self, g: usize) -> DenseMatrix {
        cell::gate_block(&self.u_cat, g, self.hidden_dim())
    }

    /// One GRU step through the fused row kernel, returning the next state
    /// and the op counts of the two phases: **RNN-A** (3 GEMMs `H·U_α`) and
    /// **RNN-B** (3 GEMMs `Z·W_α` plus the element-wise epilogue: 3 gate adds,
    /// `r∘(H·U_n)`, `1 − u`, two products and one add ≈ 3 mults + 5 adds per
    /// element). The returned state reuses [`LstmState`] with an all-zero
    /// cell vector (GRUs carry no cell state).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `z` is not `V × C` or `prev.h` is not `V × R`.
    pub fn step(
        &self,
        z: &DenseMatrix,
        prev: &LstmState,
    ) -> Result<(LstmState, OpStats, OpStats)> {
        let (v, c, r) = (z.rows(), self.input_dim(), self.hidden_dim());
        cell::check_shape("gru_step z", z, (v, c))?;
        cell::check_shape("gru_step h", &prev.h, (v, r))?;
        let mut h = DenseMatrix::zeros(v, r);
        let inputs = cell::StepInputs {
            z,
            h: &prev.h,
            carried: &prev.h,
            w_cat: &self.w_cat,
            u_cat: &self.u_cat,
        };
        cell::fused_rows(&inputs, [h.as_mut_slice()], |pre, h_part, h_prev, [h_out]| {
            gru_epilogue(pre, h_part, h_prev, h_out, r);
        });
        let elems = (v * r) as u64;
        let ops_a = cell::gemm_ops(3, v, r, r);
        // RNN-B: the Z·W_α GEMMs, then 3 mults + 5 adds per element.
        let ops_b = cell::gemm_ops(3, v, c, r) + OpStats::counted(3 * elems, 5 * elems);
        Ok((LstmState { h, c: DenseMatrix::zeros(prev.c.rows(), prev.c.cols()) }, ops_a, ops_b))
    }
}

/// The GRU epilogue for one row, in the unfused element-wise order:
/// `r = σ(z_r + h_r)`, `u = σ(z_u + h_u)`, `n = tanh(z_n + r∘h_n)`,
/// `h' = (1 − u)∘n + u∘h`. `pre` holds `z·W_cat` and is overwritten with
/// the gate values; each nonlinearity runs as its own tight pass over the
/// L1-resident row, like the unfused whole-matrix passes did.
#[inline]
fn gru_epilogue(pre: &mut [f32], h_part: &[f32], h_prev: &[f32], h_out: &mut [f32], r: usize) {
    let (ru, n) = pre.split_at_mut(2 * r);
    for (p, &hp) in ru.iter_mut().zip(h_part) {
        *p = DenseMatrix::sigmoid_scalar(*p + hp);
    }
    let [reset, update] = cell::gates::<2>(ru, r);
    let [_, _, h_n] = cell::gates::<3>(h_part, r);
    for ((p, &reset), &hn) in n.iter_mut().zip(reset).zip(h_n) {
        *p = (*p + reset * hn).tanh();
    }
    for (((out, &h), &update), &n) in h_out.iter_mut().zip(h_prev).zip(update).zip(n.iter()) {
        *out = (1.0 - update) * n + update * h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelError;

    fn cell() -> GruCell {
        GruCell::random(3, 2, 42)
    }

    #[test]
    fn dims_and_determinism() {
        let c = cell();
        assert_eq!(c.input_dim(), 3);
        assert_eq!(c.hidden_dim(), 2);
        assert_eq!(c.w_cat().shape(), (3, 6));
        assert_eq!(c.u_cat().shape(), (2, 6));
        assert_eq!(c.w(1).shape(), (3, 2));
        assert_eq!(GruCell::random(3, 2, 42), cell());
        assert_ne!(GruCell::random(3, 2, 43), cell());
    }

    #[test]
    fn new_round_trips_gate_weights() {
        let c = cell();
        let w = [0, 1, 2].map(|g| c.w(g));
        let u = [0, 1, 2].map(|g| c.u(g));
        assert_eq!(GruCell::new(w, u).unwrap(), c);
    }

    #[test]
    fn step_reports_closed_form_phase_ops() {
        let c = cell();
        let (v, cc, r) = (4u64, 3u64, 2u64);
        let (_, a, b) = c.step(&DenseMatrix::filled(4, 3, 0.4), &LstmState::zeros(4, 2)).unwrap();
        assert_eq!(a, OpStats::counted(3 * v * r * r, 3 * v * r * (r - 1)));
        assert_eq!(
            b,
            OpStats::counted(3 * v * r * cc + 3 * v * r, 3 * v * r * (cc - 1) + 5 * v * r)
        );
    }

    #[test]
    fn hidden_state_is_bounded() {
        // H' is a convex combination of tanh(·) ∈ (−1,1) and the previous H,
        // so it stays in (−1, 1) starting from zero.
        let c = cell();
        let z = DenseMatrix::filled(4, 3, 50.0);
        let mut state = LstmState::zeros(4, 2);
        for _ in 0..6 {
            state = c.step(&z, &state).unwrap().0;
        }
        // tanh saturates to exactly ±1.0 in f32 under extreme inputs.
        assert!(state.h.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn zero_input_zero_state_stays_zero() {
        // r = u = σ(0) = ½; n = tanh(0) = 0; H' = ½·0 + ½·0 = 0.
        let c = cell();
        let (s, ..) = c.step(&DenseMatrix::zeros(3, 3), &LstmState::zeros(3, 2)).unwrap();
        assert!(s.h.approx_eq(&DenseMatrix::zeros(3, 2), 1e-6));
    }

    #[test]
    fn gru_cell_has_no_cell_state() {
        let c = cell();
        let (s, ..) = c.step(&DenseMatrix::filled(4, 3, 1.0), &LstmState::zeros(4, 2)).unwrap();
        assert!(s.c.approx_eq(&DenseMatrix::zeros(4, 2), 0.0));
    }

    #[test]
    fn update_gate_interpolates_toward_previous_state() {
        // With a saturated update gate (huge positive pre-activation via huge
        // H·U_u) the state barely moves. Construct weights to force u → 1.
        let w = [DenseMatrix::zeros(2, 2), DenseMatrix::zeros(2, 2), DenseMatrix::zeros(2, 2)];
        let big = DenseMatrix::from_rows(&[&[50.0, 0.0], &[0.0, 50.0]]).unwrap();
        let u = [DenseMatrix::zeros(2, 2), big, DenseMatrix::zeros(2, 2)];
        let c = GruCell::new(w, u).unwrap();
        let prev = LstmState {
            h: DenseMatrix::filled(3, 2, 0.8),
            c: DenseMatrix::zeros(3, 2),
        };
        let (s, ..) = c.step(&DenseMatrix::filled(3, 2, 1.0), &prev).unwrap();
        assert!(s.h.approx_eq(&prev.h, 1e-6), "u≈1 should hold the state");
    }

    #[test]
    fn new_validates_shapes() {
        let good = DenseMatrix::zeros(3, 2);
        let u = DenseMatrix::zeros(2, 2);
        assert!(GruCell::new(
            [good.clone(), good.clone(), good.clone()],
            [u.clone(), u.clone(), u.clone()]
        )
        .is_ok());
        assert_eq!(
            GruCell::new(
                [good.clone(), DenseMatrix::zeros(3, 5), good.clone()],
                [u.clone(), u.clone(), u.clone()]
            ),
            Err(ModelError::RnnWeightShape { gate: 1, weight: "W", expected: (3, 2), got: (3, 5) })
        );
        // A row mismatch in a hidden weight is reported as such.
        assert_eq!(
            GruCell::new(
                [good.clone(), good.clone(), good],
                [u.clone(), u, DenseMatrix::zeros(3, 2)]
            ),
            Err(ModelError::RnnWeightShape { gate: 2, weight: "U", expected: (2, 2), got: (3, 2) })
        );
    }

    #[test]
    fn rnn_ops_scale_with_vertices() {
        let c = cell();
        let (_, a4, b4) = c.step(&DenseMatrix::zeros(4, 3), &LstmState::zeros(4, 2)).unwrap();
        let (_, a8, b8) = c.step(&DenseMatrix::zeros(8, 3), &LstmState::zeros(8, 2)).unwrap();
        assert_eq!(a8.mults, 2 * a4.mults);
        assert_eq!(b8.mults, 2 * b4.mults);
    }
}
