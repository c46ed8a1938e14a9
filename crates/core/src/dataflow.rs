//! The I-DGNN dataflow and mapping (paper §V-D, Fig. 9).
//!
//! Small data (fused weights, RNN weights, `ΔA`) is **duplicated** at every
//! PE; the large adjacency matrix and feature columns are **partitioned**
//! across the PE ring and **rotated** neighbour-to-neighbour each timestep,
//! so every partition visits every PE with single-hop transfers only. The
//! RNN consumes GNN outputs in place — zero inter-kernel NoC traffic.

/// The torus rotation dataflow for the GNN kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TorusDataflow {
    pes: usize,
}

impl TorusDataflow {
    /// A dataflow over `pes` processing elements (≥ 1).
    pub fn new(pes: usize) -> Self {
        Self { pes: pes.max(1) }
    }

    /// Number of PEs in the ring.
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// Row ranges assigned to each PE: `v` rows split as evenly as possible
    /// into `pes` contiguous chunks (empty chunks allowed when `v < pes`).
    pub fn partitions(&self, v: usize) -> Vec<std::ops::Range<usize>> {
        let base = v / self.pes;
        let extra = v % self.pes;
        let mut out = Vec::with_capacity(self.pes);
        let mut start = 0;
        for i in 0..self.pes {
            let len = base + usize::from(i < extra);
            out.push(start..start + len);
            start += len;
        }
        out
    }

    /// Number of rotation steps for every partition to visit every PE.
    pub fn rotation_steps(&self) -> usize {
        self.pes
    }

    /// Total bytes put on the NoC to rotate `data_bytes` of partitioned data
    /// through the full ring: each of the `pes − 1` shifts moves the whole
    /// distributed set one hop.
    pub fn rotation_bytes(&self, data_bytes: u64) -> u64 {
        data_bytes.saturating_mul(self.pes as u64 - 1)
    }

    /// Load-balance efficiency of a partitioned sparse matrix given its CSR
    /// row offsets (`indptr`, `rows + 1` entries): the mean per-PE non-zero
    /// load divided by the maximum (1.0 = perfectly even). With rotation
    /// every partition visits every PE, so the imbalance is bounded by the
    /// per-step skew. Costs O(PEs): each contiguous partition's load is one
    /// offset difference.
    pub fn load_balance(&self, indptr: &[usize]) -> f64 {
        let offset = |row: usize| indptr.get(row).copied().unwrap_or(0) as u64;
        let parts = self.partitions(indptr.len().saturating_sub(1));
        let loads = parts.iter().map(|r| offset(r.end) - offset(r.start));
        let max = loads.clone().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean = loads.sum::<u64>() as f64 / parts.len() as f64;
        mean / max as f64
    }
}

/// The RNN mapping: weights duplicated per PE, outputs consumed in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RnnMapping;

impl RnnMapping {
    /// Bytes broadcast once to duplicate the RNN weights at every PE.
    pub fn weight_broadcast_bytes(&self, weight_bytes: u64, pes: usize) -> u64 {
        weight_bytes.saturating_mul(pes as u64)
    }

    /// Inter-PE traffic for consuming GNN outputs: zero, by construction —
    /// each PE's RNN lane reads the `ΔX_L` slice its GNN lane produced
    /// (paper: "without incurring additional cross-PE data transfer").
    pub fn inter_kernel_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idgnn_sparse::{CooMatrix, CsrMatrix};

    #[test]
    fn partitions_cover_all_rows_evenly() {
        let df = TorusDataflow::new(4);
        let parts = df.partitions(10);
        assert_eq!(parts.len(), 4);
        let sizes: Vec<usize> = parts.iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts[3].end, 10);
    }

    #[test]
    fn partitions_handle_fewer_rows_than_pes() {
        let df = TorusDataflow::new(8);
        let parts = df.partitions(3);
        let nonempty = parts.iter().filter(|r| !r.is_empty()).count();
        assert_eq!(nonempty, 3);
        assert_eq!(parts.iter().map(|r| r.len()).sum::<usize>(), 3);
    }

    #[test]
    fn rotation_accounting() {
        let df = TorusDataflow::new(16);
        assert_eq!(df.rotation_steps(), 16);
        assert_eq!(df.rotation_bytes(1000), 15_000);
        assert_eq!(TorusDataflow::new(1).rotation_bytes(1000), 0);
    }

    #[test]
    fn load_balance_perfect_for_uniform_matrix() {
        let df = TorusDataflow::new(4);
        let i = CsrMatrix::identity(16);
        assert!((df.load_balance(i.indptr()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn load_balance_penalizes_hub_partitions() {
        // All mass in the first partition.
        let mut coo = CooMatrix::new(16, 16);
        for c in 0..16 {
            coo.push(0, c, 1.0).unwrap();
        }
        let df = TorusDataflow::new(4);
        let lb = df.load_balance(coo.to_csr().indptr());
        assert!((lb - 0.25).abs() < 1e-12, "lb {lb}");
    }

    #[test]
    fn load_balance_of_empty_matrix_is_one() {
        let df = TorusDataflow::new(4);
        assert_eq!(df.load_balance(CsrMatrix::zeros(8, 8).indptr()), 1.0);
    }

    #[test]
    fn rnn_mapping_has_zero_inter_kernel_traffic() {
        let m = RnnMapping;
        assert_eq!(m.inter_kernel_bytes(), 0);
        assert_eq!(m.weight_broadcast_bytes(100, 8), 800);
    }

    #[test]
    fn zero_pes_clamped() {
        assert_eq!(TorusDataflow::new(0).pes(), 1);
    }
}
