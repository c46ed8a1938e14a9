//! Bit-identity of the fused RNN cell kernel against an unfused oracle.
//!
//! The oracle is built here from the public unfused operations — one
//! `ops::gemm_with_stats` per gate and operand, then `DenseMatrix::add`,
//! `hadamard`, `sigmoid` and `tanh` — exactly the formulation the fused
//! row kernel replaced. Every `h` and `c` element must match with
//! `f32::to_bits` equality:
//!
//! * at V ∈ {1, 127, 128, 129, 4097} (around the 128-row parallel
//!   threshold and a multi-block size);
//! * at kernel parallelism 1, 2, 3 and 8;
//! * on inputs with exact zeros (the GEMM zero-skip), subnormals, and
//!   pre-activations far beyond ±1e3 (the saturating regime long snapshot
//!   streams reach, where `z` grows to ~7e3);
//! * over a chain of five steps feeding each state into the next;
//!
//! and the per-phase `OpStats` must equal the closed-form counts.

use idgnn_model::{DgnnModel, Gate, GruCell, LstmCell, LstmState, ModelConfig, RnnKernel, GATES};
use idgnn_sparse::{ops, parallel, DenseMatrix, OpStats, Parallelism};

const SIZES: [usize; 5] = [1, 127, 128, 129, 4097];
const PARALLELISM: [usize; 4] = [1, 2, 3, 8];
const STEPS: usize = 5;

/// Deterministic value stream (MMIX LCG) mixing the regimes under test.
struct Values(u64);

impl Values {
    fn next_unit(&mut self) -> f32 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }

    /// One input element: exact zeros, signed zeros, subnormals, huge
    /// magnitudes, and ordinary values.
    fn next_input(&mut self) -> f32 {
        let u = self.next_unit();
        match self.0 >> 61 {
            0 => 0.0,
            1 => -0.0,
            2 => u * 1.0e-39, // subnormal
            3 => u * 7.0e3,   // drives |pre| far past 1e3
            _ => u,
        }
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> DenseMatrix {
        let data = (0..rows * cols).map(|_| self.next_input()).collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }
}

/// Random weights with some exact zeros and subnormals spliced in.
fn perturbed(m: &DenseMatrix, vals: &mut Values) -> DenseMatrix {
    let data = m
        .as_slice()
        .iter()
        .map(|&w| match vals.next_unit() {
            u if u < -0.9 => 0.0,
            u if u > 0.95 => u * 1.0e-40,
            _ => w,
        })
        .collect();
    DenseMatrix::from_vec(m.rows(), m.cols(), data).unwrap()
}

fn lstm_cell(c: usize, r: usize, seed: u64) -> LstmCell {
    let base = LstmCell::random(c, r, seed);
    let mut vals = Values(seed ^ 0xA5A5);
    let w = GATES.map(|g| perturbed(&base.w(g), &mut vals));
    let u = GATES.map(|g| perturbed(&base.u(g), &mut vals));
    LstmCell::new(w, u).unwrap()
}

fn gru_cell(c: usize, r: usize, seed: u64) -> GruCell {
    let base = GruCell::random(c, r, seed);
    let mut vals = Values(seed ^ 0x5A5A);
    let w = [0, 1, 2].map(|g| perturbed(&base.w(g), &mut vals));
    let u = [0, 1, 2].map(|g| perturbed(&base.u(g), &mut vals));
    GruCell::new(w, u).unwrap()
}

fn gemm(a: &DenseMatrix, b: &DenseMatrix, ops_acc: &mut OpStats) -> DenseMatrix {
    let (m, s) = ops::gemm_with_stats(a, b).unwrap();
    *ops_acc += s;
    m
}

/// One step's result: the next state and the RNN-A / RNN-B op counts.
type Step = (LstmState, OpStats, OpStats);

/// The unfused LSTM step: 8 GEMMs and whole-matrix element-wise ops.
fn lstm_oracle(cell: &LstmCell, z: &DenseMatrix, prev: &LstmState) -> Step {
    let (mut ops_a, mut ops_b) = (OpStats::default(), OpStats::default());
    let h_part = GATES.map(|g| gemm(&prev.h, &cell.u(g), &mut ops_a));
    let pre: Vec<DenseMatrix> = GATES
        .iter()
        .zip(&h_part)
        .map(|(&g, hp)| {
            let sum = gemm(z, &cell.w(g), &mut ops_b).add(hp).unwrap();
            ops_b += OpStats::counted(0, sum.as_slice().len() as u64);
            sum
        })
        .collect();
    let (i, f, o, cand) = (pre[0].sigmoid(), pre[1].sigmoid(), pre[2].sigmoid(), pre[3].tanh());
    let c = f.hadamard(&prev.c).unwrap().add(&i.hadamard(&cand).unwrap()).unwrap();
    let h = o.hadamard(&c.tanh()).unwrap();
    let elems = h.as_slice().len() as u64;
    ops_b += OpStats::counted(3 * elems, elems);
    (LstmState { h, c }, ops_a, ops_b)
}

/// The unfused GRU step.
fn gru_oracle(cell: &GruCell, z: &DenseMatrix, prev: &LstmState) -> Step {
    let (mut ops_a, mut ops_b) = (OpStats::default(), OpStats::default());
    let h_part = [0, 1, 2].map(|g| gemm(&prev.h, &cell.u(g), &mut ops_a));
    let z_part = [0, 1, 2].map(|g| gemm(z, &cell.w(g), &mut ops_b));
    let r = z_part[0].add(&h_part[0]).unwrap().sigmoid();
    let u = z_part[1].add(&h_part[1]).unwrap().sigmoid();
    let n = z_part[2].add(&r.hadamard(&h_part[2]).unwrap()).unwrap().tanh();
    let h = u
        .map(|x| 1.0 - x)
        .hadamard(&n)
        .unwrap()
        .add(&u.hadamard(&prev.h).unwrap())
        .unwrap();
    let elems = h.as_slice().len() as u64;
    ops_b += OpStats::counted(3 * elems, 5 * elems);
    (LstmState { h, c: DenseMatrix::zeros(prev.c.rows(), prev.c.cols()) }, ops_a, ops_b)
}

fn assert_bits(label: &str, got: &DenseMatrix, want: &DenseMatrix) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: element {i}: fused {g:e} vs oracle {w:e}");
    }
}

/// The five `z` inputs of a chain plus a non-zero starting state.
fn chain_inputs(v: usize, c: usize, r: usize, seed: u64) -> (Vec<DenseMatrix>, LstmState) {
    let mut vals = Values(seed);
    let zs = (0..STEPS).map(|_| vals.matrix(v, c)).collect();
    let start = LstmState { h: vals.matrix(v, r), c: vals.matrix(v, r) };
    (zs, start)
}

/// Runs `fused` and `oracle` along the same five-step chain at every tested
/// parallelism and compares state bits and phase op counts step by step.
fn check_chain<F, O>(name: &str, v: usize, c: usize, r: usize, fused: F, oracle: O)
where
    F: Fn(&DenseMatrix, &LstmState) -> Step,
    O: Fn(&DenseMatrix, &LstmState) -> Step,
{
    let (zs, start) = chain_inputs(v, c, r, 0xC0FFEE ^ v as u64);
    let expected: Vec<_> = {
        let _serial = parallel::kernel_scope(Parallelism::serial());
        let mut state = start.clone();
        zs.iter()
            .map(|z| {
                let out = oracle(z, &state);
                state = out.0.clone();
                out
            })
            .collect()
    };
    for p in PARALLELISM {
        let _scope = parallel::kernel_scope(Parallelism::new(p));
        let mut state = start.clone();
        for (t, (z, (want, want_a, want_b))) in zs.iter().zip(&expected).enumerate() {
            let (next, ops_a, ops_b) = fused(z, &state);
            let label = format!("{name} V={v} C={c} R={r} parallelism={p} step={t}");
            assert_bits(&format!("{label} h"), &next.h, &want.h);
            assert_bits(&format!("{label} c"), &next.c, &want.c);
            assert_eq!(ops_a, *want_a, "{label}: RNN-A ops");
            assert_eq!(ops_b, *want_b, "{label}: RNN-B ops");
            state = next;
        }
    }
}

#[test]
fn fused_lstm_is_bit_identical_to_the_unfused_oracle() {
    for (c, r) in [(32, 32), (5, 3)] {
        let cell = lstm_cell(c, r, 17);
        for v in SIZES {
            check_chain(
                "lstm",
                v,
                c,
                r,
                |z, s| cell.step(z, s).unwrap(),
                |z, s| lstm_oracle(&cell, z, s),
            );
        }
    }
}

#[test]
fn fused_gru_is_bit_identical_to_the_unfused_oracle() {
    for (c, r) in [(32, 32), (5, 3)] {
        let cell = gru_cell(c, r, 29);
        for v in SIZES {
            check_chain(
                "gru",
                v,
                c,
                r,
                |z, s| cell.step(z, s).unwrap(),
                |z, s| gru_oracle(&cell, z, s),
            );
        }
    }
}

#[test]
fn phase_ops_equal_the_closed_form_counts() {
    let (v, c, r) = (129u64, 32u64, 32u64);
    let z = DenseMatrix::filled(129, 32, 0.5);
    let prev = LstmState::zeros(129, 32);
    let vr = v * r;

    let (_, a, b) = LstmCell::random(32, 32, 1).step(&z, &prev).unwrap();
    // RNN-A: 4 GEMMs. RNN-B: 4 GEMMs + 4·V·R gate adds + 3·V·R mults + V·R adds.
    assert_eq!(a, OpStats::counted(4 * vr * r, 4 * vr * (r - 1)));
    assert_eq!(b, OpStats::counted(4 * vr * c + 3 * vr, 4 * vr * (c - 1) + 4 * vr + vr));

    let (_, a, b) = GruCell::random(32, 32, 1).step(&z, &prev).unwrap();
    // RNN-A: 3 GEMMs. RNN-B: 3 GEMMs + 3·V·R mults + 5·V·R adds.
    assert_eq!(a, OpStats::counted(3 * vr * r, 3 * vr * (r - 1)));
    assert_eq!(b, OpStats::counted(3 * vr * c + 3 * vr, 3 * vr * (c - 1) + 5 * vr));
}

#[test]
fn model_rnn_step_dispatches_to_the_fused_cell() {
    let cfg = ModelConfig::paper_default(8);
    for model in [
        DgnnModel::from_config(&cfg).unwrap(),
        DgnnModel::from_config(&cfg.with_gru()).unwrap(),
    ] {
        let (zs, start) = chain_inputs(200, 32, 32, 99);
        let z = &zs[0];
        let got = model.rnn_step(z, &start).unwrap();
        let want = match model.rnn() {
            RnnKernel::Lstm(cell) => lstm_oracle(cell, z, &start),
            RnnKernel::Gru(cell) => gru_oracle(cell, z, &start),
            _ => unreachable!("only two kernel families exist"),
        };
        assert_bits("rnn_step h", &got.0.h, &want.0.h);
        assert_bits("rnn_step c", &got.0.c, &want.0.c);
        assert_eq!((got.1, got.2), (want.1, want.2));
    }
}

#[test]
fn gate_accessors_expose_the_concatenated_layout() {
    let cell = LstmCell::random(6, 4, 3);
    for (g, gate) in GATES.iter().enumerate() {
        let w = cell.w(*gate);
        for k in 0..6 {
            assert_eq!(w.row(k), &cell.w_cat().row(k)[g * 4..(g + 1) * 4]);
        }
    }
    assert_eq!(cell.u(Gate::Forget).shape(), (4, 4));
}
