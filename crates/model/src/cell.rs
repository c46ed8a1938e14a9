//! The fused, row-blocked RNN cell kernel shared by [`LstmCell`] and
//! [`GruCell`] (DESIGN.md §17).
//!
//! A cell with `G` gates stores its weights once, concatenated gate-major:
//! `W_cat = [W_0 | … | W_{G-1}] : C × G·R` and `U_cat = [U_0 | … | U_{G-1}]
//! : R × G·R`. One step walks the vertex rows in contiguous blocks on the
//! [`idgnn_sparse::parallel`] pool; per row it accumulates `z·W_cat` and
//! `h·U_cat` into two `G·R` scratch rows that stay in L1, hands both to the
//! cell's epilogue (gate nonlinearities and state update), and the epilogue
//! writes `h'` (and `c'`) straight into the output state. No `V × R` or
//! `V × G·R` temporary exists.
//!
//! **Bit-identity with the unfused formulation.** Each scratch element is
//! accumulated exactly like [`DenseMatrix::matmul`] accumulates one output
//! element: it starts at `0.0`, visits `k` in ascending order, skips
//! `x[k] == 0.0`, and adds `x[k] * w[k][j]` with a separate multiply and add
//! (Rust never contracts to FMA). The epilogues form `pre = z-part + h-part`
//! and call the same [`DenseMatrix::sigmoid_scalar`] and `f32::tanh` as
//! [`DenseMatrix::sigmoid`] / [`DenseMatrix::tanh`], in the same operation
//! order as the element-wise `add`/`hadamard` chain they replace. Rows are
//! independent, so the result is also identical at every worker count.
//!
//! [`LstmCell`]: crate::LstmCell
//! [`GruCell`]: crate::GruCell

use std::ops::Range;

use idgnn_sparse::{ops, parallel, DenseMatrix, OpStats, Parallelism, SparseError};
use rand::rngs::StdRng;
use rand::Rng;

use crate::error::{ModelError, Result};

/// Concatenates `G` same-shape gate matrices column-wise, gate-major:
/// row `k` of the result is `[g_0[k] | … | g_{G-1}[k]]`.
pub(crate) fn concat_gates<const G: usize>(gates: &[DenseMatrix; G]) -> DenseMatrix {
    let (rows, cols) = gates.first().map_or((0, 0), DenseMatrix::shape);
    let mut data = Vec::with_capacity(rows * cols * G);
    for k in 0..rows {
        for g in gates {
            data.extend_from_slice(g.row(k));
        }
    }
    DenseMatrix::from_vec(rows, cols * G, data)
        .unwrap_or_else(|_| DenseMatrix::zeros(rows, cols * G))
}

/// Validates `G` gate pairs (`w[g]: C × R` from `w[0]`, `u[g]: R × R`) and
/// concatenates them.
pub(crate) fn validated_concat<const G: usize>(
    w: &[DenseMatrix; G],
    u: &[DenseMatrix; G],
) -> Result<(DenseMatrix, DenseMatrix)> {
    let (c, r) = w.first().map_or((0, 0), DenseMatrix::shape);
    for (weight, mats, expected) in [("W", w, (c, r)), ("U", u, (r, r))] {
        if let Some((gate, m)) = mats.iter().enumerate().find(|(_, m)| m.shape() != expected) {
            return Err(ModelError::RnnWeightShape { gate, weight, expected, got: m.shape() });
        }
    }
    Ok((concat_gates(w), concat_gates(u)))
}

/// A `rows × cols` matrix of uniform draws in `±1/√rows`, row-major in draw
/// order.
pub(crate) fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> DenseMatrix {
    let scale = 1.0 / (rows.max(1) as f32).sqrt();
    let data = (0..rows * cols).map(|_| rng.gen_range(-scale..scale)).collect();
    DenseMatrix::from_vec(rows, cols, data).unwrap_or_else(|_| DenseMatrix::zeros(rows, cols))
}

/// Copies gate `g`'s column block (`width` columns) out of a concatenated
/// weight matrix.
pub(crate) fn gate_block(cat: &DenseMatrix, g: usize, width: usize) -> DenseMatrix {
    let cols = g * width..(g + 1) * width;
    let data = cat.iter_rows().flat_map(|row| row.get(cols.clone()).unwrap_or(&[])).copied();
    DenseMatrix::from_vec(cat.rows(), width, data.collect())
        .unwrap_or_else(|_| DenseMatrix::zeros(cat.rows(), width))
}

/// The op counts of `count` dense products `m × k` by `k × n` (one per gate).
pub(crate) fn gemm_ops(count: u64, m: usize, k: usize, n: usize) -> OpStats {
    let s = ops::gemm_stats(m, k, n);
    OpStats::counted(count * s.mults, count * s.adds)
}

/// Checks that `m` has `expected` shape, naming the step operation on error.
pub(crate) fn check_shape(
    op: &'static str,
    m: &DenseMatrix,
    expected: (usize, usize),
) -> Result<()> {
    if m.shape() == expected {
        Ok(())
    } else {
        Err(ModelError::Sparse(SparseError::DimensionMismatch {
            op,
            lhs: expected,
            rhs: m.shape(),
        }))
    }
}

/// Columns per register tile of [`accumulate_row`]: 32 `f32` accumulators
/// fit the vector register file even at SSE2 width (8 × 4 lanes).
const TILE: usize = 32;

/// `acc = x · w_cat` for one row, in [`DenseMatrix::matmul`]'s per-element
/// order: from `0.0`, ascending `k`, zero `x[k]` skipped, no contraction.
///
/// The columns are walked in register tiles of [`TILE`]: each tile's
/// accumulators stay in registers across the whole `k` loop instead of
/// round-tripping through memory once per `k`. Tiling only reorders work
/// *between* elements; every element still sees the same additions in the
/// same order, so the bits are unchanged.
#[inline]
fn accumulate_row(x: &[f32], w_cat: &[f32], acc: &mut [f32]) {
    let width = acc.len();
    for (t, out) in acc.chunks_mut(TILE).enumerate() {
        let cols = t * TILE..t * TILE + out.len();
        let mut regs = [0.0f32; TILE];
        for (&a, w_row) in x.iter().zip(w_cat.chunks_exact(width)) {
            if a == 0.0 {
                continue;
            }
            let w_tile = w_row.get(cols.clone()).unwrap_or(&[]);
            match <&[f32; TILE]>::try_from(w_tile) {
                Ok(full) => {
                    for (o, &b) in regs.iter_mut().zip(full) {
                        *o += a * b;
                    }
                }
                // The last tile when `G·R` is not a multiple of `TILE`.
                Err(_) => {
                    for (o, &b) in regs.iter_mut().zip(w_tile) {
                        *o += a * b;
                    }
                }
            }
        }
        out.copy_from_slice(regs.get(..out.len()).unwrap_or(&[]));
    }
}

/// Rows `range` of a row-major matrix, one slice per row (empty slices for
/// a zero-width matrix).
fn rows_of(m: &DenseMatrix, range: Range<usize>) -> impl Iterator<Item = &[f32]> {
    let w = m.cols();
    range.map(move |i| m.as_slice().get(i * w..(i + 1) * w).unwrap_or(&[]))
}

/// The per-row inputs of one fused step: the GNN output `z`, the previous
/// hidden state `h` (the `U_cat` operand), and the row-aligned `carried`
/// operand the epilogue also reads (`c^{t-1}` for the LSTM, `h^{t-1}` for
/// the GRU's interpolation).
pub(crate) struct StepInputs<'a> {
    pub z: &'a DenseMatrix,
    pub h: &'a DenseMatrix,
    pub carried: &'a DenseMatrix,
    pub w_cat: &'a DenseMatrix,
    pub u_cat: &'a DenseMatrix,
}

/// Runs the fused step over every row: `epilogue(pre, h_part, carried_row,
/// out_rows)` receives the row's `z·W_cat` (mutable, so pre-activations can
/// be formed in place), its `h·U_cat`, its `carried` row, and its rows of
/// the `N` output buffers (each `V × R`, row-major).
///
/// Callers validate shapes first; rows past a short operand see empty
/// slices instead of panicking.
pub(crate) fn fused_rows<const N: usize, E>(
    inputs: &StepInputs<'_>,
    outs: [&mut [f32]; N],
    epilogue: E,
) where
    E: Fn(&mut [f32], &[f32], &[f32], [&mut [f32]; N]) + Sync,
{
    let rows = inputs.z.rows();
    let gate_width = inputs.w_cat.cols();
    if rows == 0 || gate_width == 0 {
        return;
    }
    let par = if rows < parallel::PARALLEL_MIN_ROWS {
        Parallelism::serial()
    } else {
        parallel::current()
    };
    parallel::for_each_row_block_mut(rows, par, outs, |range, block| {
        row_block(inputs, range, block, &epilogue);
    });
}

/// One row block of [`fused_rows`]: the whole gate computation for each row
/// happens in two `G·R` scratch rows, then the epilogue writes the outputs.
// lint: hot-path
fn row_block<const N: usize, E>(
    inputs: &StepInputs<'_>,
    range: Range<usize>,
    outs: [&mut [f32]; N],
    epilogue: &E,
) where
    E: Fn(&mut [f32], &[f32], &[f32], [&mut [f32]; N]),
{
    let gate_width = inputs.w_cat.cols();
    let n_rows = range.len().max(1);
    // lint: allow(hot-path-alloc) -- O(blocks) scratch: one z-part and one h-part gate row per row block (2·G·R floats, L1-resident), reused for every row
    let mut scratch = vec![0.0f32; 2 * gate_width];
    let (pre, h_part) = scratch.split_at_mut(gate_width);
    let mut out_rows = outs.map(|o| {
        let width = (o.len() / n_rows).max(1);
        o.chunks_exact_mut(width)
    });
    let (w_cat, u_cat) = (inputs.w_cat.as_slice(), inputs.u_cat.as_slice());
    let z_rows = rows_of(inputs.z, range.clone());
    let h_rows = rows_of(inputs.h, range.clone());
    let carried_rows = rows_of(inputs.carried, range);
    for ((z, h), carried) in z_rows.zip(h_rows).zip(carried_rows) {
        accumulate_row(z, w_cat, pre);
        accumulate_row(h, u_cat, h_part);
        let row_outs = out_rows.each_mut().map(|it| it.next().unwrap_or_default());
        epilogue(pre, h_part, carried, row_outs);
    }
}

/// Splits a `G·R` scratch row into its `G` gate slices of width `r`.
#[inline]
pub(crate) fn gates<const G: usize>(row: &[f32], r: usize) -> [&[f32]; G] {
    std::array::from_fn(|g| row.get(g * r..(g + 1) * r).unwrap_or(&[]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_and_block_round_trip() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let b = a.scale(10.0);
        let cat = concat_gates(&[a.clone(), b.clone()]);
        assert_eq!(cat.shape(), (3, 4));
        assert_eq!(cat.row(1), &[3.0, 4.0, 30.0, 40.0]);
        assert_eq!(gate_block(&cat, 0, 2), a);
        assert_eq!(gate_block(&cat, 1, 2), b);
    }

    #[test]
    fn accumulate_row_matches_matmul_bits() {
        let x = DenseMatrix::from_rows(&[&[0.0, -1.5, 3.25e-39, 7.0e3]]).unwrap();
        let w = DenseMatrix::from_vec(4, 3, (0..12).map(|i| (i as f32 - 5.5) * 0.37).collect())
            .unwrap();
        let want = x.matmul(&w).unwrap();
        let mut acc = [9.0f32; 3];
        accumulate_row(x.row(0), w.as_slice(), &mut acc);
        for (a, b) in acc.iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn gates_split_a_row() {
        let row = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let [a, b, c] = gates::<3>(&row, 2);
        assert_eq!((a, b, c), (&[1.0, 2.0][..], &[3.0, 4.0][..], &[5.0, 6.0][..]));
    }
}
