//! Analytic performance model of the α-β routine — Table 1 of the paper.
//!
//! | | MOC | DGEMM |
//! |---|---|---|
//! | kernel | DAXPY / indexed multiply-add | DGEMM (+ gather/scatter) |
//! | operations | `Nci·(n−Nα)·Nα·(n−Nβ)·Nβ` | `~Nci·n²·Nα·Nβ` |
//! | communication | `Nci·Nα·(n−Nα)` words | `3·Nci·Nα` words |
//!
//! `fcix-repro table1` prints these next to the *measured*
//! counters from instrumented runs.

/// Problem parameters for the model.
#[derive(Clone, Copy, Debug)]
pub struct PerfModel {
    /// CI dimension `Nci`.
    pub nci: f64,
    /// Number of orbitals.
    pub n: usize,
    /// α electrons.
    pub na: usize,
    /// β electrons.
    pub nb: usize,
}

impl PerfModel {
    /// Bundle the problem parameters.
    pub fn new(nci: f64, n: usize, na: usize, nb: usize) -> Self {
        PerfModel { nci, n, na, nb }
    }

    /// MOC α-β operation count (multiply+add pairs counted as 2 flops).
    pub fn moc_ops(&self) -> f64 {
        2.0 * self.nci
            * (self.n - self.na) as f64
            * self.na as f64
            * (self.n - self.nb) as f64
            * self.nb as f64
    }

    /// DGEMM α-β operation count `~2·Nci·n²·Nα·Nβ`.
    pub fn dgemm_ops(&self) -> f64 {
        2.0 * self.nci * (self.n * self.n) as f64 * self.na as f64 * self.nb as f64
    }

    /// MOC α-β communication volume in 8-byte words.
    pub fn moc_comm_words(&self) -> f64 {
        self.nci * self.na as f64 * (self.n - self.na) as f64
    }

    /// DGEMM α-β communication volume in words (1× gather + 2× acc).
    pub fn dgemm_comm_words(&self) -> f64 {
        3.0 * self.nci * self.na as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_close_for_small_filling() {
        // The paper: with a large basis (n ≫ Nα, Nβ) "the difference
        // between the operation counts of the two algorithms is
        // insignificant".
        let m = PerfModel::new(1e9, 80, 5, 3);
        let ratio = m.dgemm_ops() / m.moc_ops();
        assert!(ratio > 1.0 && ratio < 1.2, "ratio {ratio}");
    }

    #[test]
    fn oxygen_like_ratio_near_paper_value() {
        // aug-cc-pVQZ O: n ≈ 80, 5 α / 3 β valence-ish electrons → the
        // ~25× communication saving quoted in §4.
        let m = PerfModel::new(1e9, 80, 5, 3);
        let ratio = m.moc_comm_words() / m.dgemm_comm_words();
        assert!(ratio > 20.0 && ratio < 30.0, "{ratio}");
    }
}
