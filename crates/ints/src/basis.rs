//! Contracted Cartesian Gaussian shells and embedded basis sets.
//!
//! A shell is a set of primitives sharing a center and angular momentum l;
//! it expands into `(l+1)(l+2)/2` Cartesian components (x^i y^j z^k with
//! i+j+k = l). Two basis sets are embedded:
//!
//! * `sto-3g` — the classic minimal set (exponents for H–F, with the
//!   universal STO-3G contraction coefficients);
//! * `svp` — a split-valence + polarization set **derived
//!   programmatically** from the STO-3G exponents (outermost valence
//!   primitive decontracted into its own shell, plus a single polarization
//!   shell). This avoids transcribing large literature tables while giving
//!   the FCI benchmarks a second, genuinely larger one-electron space; see
//!   DESIGN.md ("hardware / data substitutions").
//!
//! Even-tempered helper constructors support the hydrogen-atom variational
//! convergence tests.

use crate::molecule::Molecule;

/// Double factorial (2n−1)!! with the (−1)!! = 1 convention.
pub(crate) fn double_factorial_odd(n: i64) -> f64 {
    // computes n!! for odd n (or n = -1 / 0 -> 1)
    if n <= 0 {
        return 1.0;
    }
    let mut acc = 1.0;
    let mut k = n;
    while k > 1 {
        acc *= k as f64;
        k -= 2;
    }
    acc
}

/// Normalization constant of a primitive Cartesian Gaussian
/// `x^i y^j z^k exp(−α r²)`.
pub fn primitive_norm(alpha: f64, i: usize, j: usize, k: usize) -> f64 {
    let l = (i + j + k) as i32;
    let dfs = double_factorial_odd(2 * i as i64 - 1)
        * double_factorial_odd(2 * j as i64 - 1)
        * double_factorial_odd(2 * k as i64 - 1);
    (2.0 * alpha / std::f64::consts::PI).powf(0.75) * (4.0 * alpha).powi(l).sqrt() / dfs.sqrt()
}

/// One contracted shell.
#[derive(Clone, Debug)]
pub struct Shell {
    /// Angular momentum (0 = s, 1 = p, 2 = d, …).
    pub l: usize,
    /// Primitive exponents.
    pub exps: Vec<f64>,
    /// Contraction coefficients *including* the primitive norm of the
    /// (l,0,0) component and the overall contraction normalization.
    pub coefs: Vec<f64>,
    /// Center in Bohr.
    pub center: [f64; 3],
    /// Index of the parent atom in the molecule (usize::MAX if free).
    pub atom: usize,
}

impl Shell {
    /// Build a shell from raw contraction data, normalizing as described
    /// on the struct.
    pub fn new(
        l: usize,
        exps: Vec<f64>,
        raw_coefs: Vec<f64>,
        center: [f64; 3],
        atom: usize,
    ) -> Self {
        assert_eq!(
            exps.len(),
            raw_coefs.len(),
            "exponent/coefficient length mismatch"
        );
        assert!(!exps.is_empty(), "empty shell");
        assert!(exps.iter().all(|&a| a > 0.0), "exponents must be positive");
        // Fold the (l,0,0) primitive norms into the coefficients …
        let mut coefs: Vec<f64> = exps
            .iter()
            .zip(&raw_coefs)
            .map(|(&a, &c)| c * primitive_norm(a, l, 0, 0))
            .collect();
        // … then normalize the contracted (l,0,0) function.
        let mut s = 0.0;
        for (a, &ca) in exps.iter().zip(&coefs) {
            for (b, &cb) in exps.iter().zip(&coefs) {
                let p = a + b;
                // ⟨x^l e^{−αx²} | x^l e^{−βx²}⟩ over 3D with y,z s-type:
                s += ca
                    * cb
                    * (std::f64::consts::PI / p).powf(1.5)
                    * double_factorial_odd(2 * l as i64 - 1)
                    / (2.0 * p).powi(l as i32);
            }
        }
        let scale = 1.0 / s.sqrt();
        for c in &mut coefs {
            *c *= scale;
        }
        Shell {
            l,
            exps,
            coefs,
            center,
            atom,
        }
    }

    /// Number of Cartesian components.
    pub fn n_cart(&self) -> usize {
        (self.l + 1) * (self.l + 2) / 2
    }

    /// Cartesian powers (i, j, k) of each component, in canonical order
    /// (l,0,0), (l−1,1,0), (l−1,0,1), …, (0,0,l).
    pub fn components(&self) -> Vec<(usize, usize, usize)> {
        cartesian_components(self.l)
    }

    /// α-independent norm ratio of component (i,j,k) to (l,0,0).
    pub fn component_factor(&self, i: usize, j: usize, k: usize) -> f64 {
        let num = double_factorial_odd(2 * self.l as i64 - 1);
        let den = double_factorial_odd(2 * i as i64 - 1)
            * double_factorial_odd(2 * j as i64 - 1)
            * double_factorial_odd(2 * k as i64 - 1);
        (num / den).sqrt()
    }
}

/// Cartesian powers of angular momentum `l` in canonical order.
pub(crate) fn cartesian_components(l: usize) -> Vec<(usize, usize, usize)> {
    let mut v = Vec::with_capacity((l + 1) * (l + 2) / 2);
    for i in (0..=l).rev() {
        for j in (0..=(l - i)).rev() {
            v.push((i, j, l - i - j));
        }
    }
    v
}

/// A molecular basis: shells plus AO indexing.
#[derive(Clone, Debug)]
pub struct BasisSet {
    shells: Vec<Shell>,
    /// First AO index of each shell (len = nshell + 1).
    offsets: Vec<usize>,
}

impl BasisSet {
    /// Assemble a basis from explicit shells.
    pub fn from_shells(shells: Vec<Shell>) -> Self {
        let mut offsets = Vec::with_capacity(shells.len() + 1);
        let mut acc = 0;
        offsets.push(0);
        for s in &shells {
            acc += s.n_cart();
            offsets.push(acc);
        }
        BasisSet { shells, offsets }
    }

    /// Build the named basis (`"sto-3g"` or `"svp"`) for a molecule.
    pub fn build(molecule: &Molecule, name: &str) -> Self {
        let mut shells = Vec::new();
        for (ai, atom) in molecule.atoms.iter().enumerate() {
            for (l, exps, coefs) in element_shells(atom.z, name) {
                shells.push(Shell::new(l, exps, coefs, atom.pos, ai));
            }
        }
        Self::from_shells(shells)
    }

    /// Even-tempered s-type basis on a single center:
    /// exponents `alpha0 · beta^k`, k = 0..n, each its own shell.
    // lint: allow(dead) — builds the large-basis atoms of fci-scf's RHF tests
    pub fn even_tempered_s(center: [f64; 3], n: usize, alpha0: f64, beta: f64) -> Self {
        let shells = (0..n)
            .map(|k| Shell::new(0, vec![alpha0 * beta.powi(k as i32)], vec![1.0], center, 0))
            .collect();
        Self::from_shells(shells)
    }

    /// The shell list.
    pub fn shells(&self) -> &[Shell] {
        &self.shells
    }

    /// Number of shells.
    pub fn n_shells(&self) -> usize {
        self.shells.len()
    }

    /// Total number of (Cartesian) basis functions.
    pub fn n_basis(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// First AO index of shell `s`.
    pub fn shell_offset(&self, s: usize) -> usize {
        self.offsets[s]
    }
}

/// Universal STO-3G contraction coefficients.
const STO3G_1S: [f64; 3] = [0.154_328_97, 0.535_328_14, 0.444_634_54];
const STO3G_2S: [f64; 3] = [-0.099_967_23, 0.399_512_83, 0.700_115_47];
const STO3G_2P: [f64; 3] = [0.155_916_27, 0.607_683_72, 0.391_957_39];

/// STO-3G exponents: (1s set, optional valence SP set) per element H..F.
fn sto3g_exponents(z: u32) -> (&'static [f64; 3], Option<&'static [f64; 3]>) {
    match z {
        1 => (&[3.425_250_91, 0.623_913_73, 0.168_855_40], None),
        2 => (&[6.362_421_39, 1.158_923_00, 0.313_649_79], None),
        3 => (
            &[16.119_574_75, 2.936_200_663, 0.794_650_487],
            Some(&[0.636_289_746_9, 0.147_860_053_3, 0.048_088_678_4]),
        ),
        4 => (
            &[30.167_870_69, 5.495_115_306, 1.487_192_653],
            Some(&[1.314_833_110, 0.305_538_938_3, 0.099_370_745_6]),
        ),
        5 => (
            &[48.791_113_18, 8.887_362_172, 2.405_267_040],
            Some(&[2.236_956_142, 0.519_820_499_9, 0.169_061_760_0]),
        ),
        6 => (
            &[71.616_837_35, 13.045_096_32, 3.530_512_160],
            Some(&[2.941_249_355, 0.683_483_096_4, 0.222_289_915_9]),
        ),
        7 => (
            &[99.106_168_96, 18.052_312_39, 4.885_660_238],
            Some(&[3.780_455_879, 0.878_496_644_9, 0.285_714_374_4]),
        ),
        8 => (
            &[130.709_321_4, 23.808_866_05, 6.443_608_313],
            Some(&[5.033_151_319, 1.169_596_125, 0.380_388_960_0]),
        ),
        9 => (
            &[166.679_134_0, 30.360_812_33, 8.216_820_672],
            Some(&[6.464_803_249, 1.502_281_245, 0.488_588_486_4]),
        ),
        _ => panic!("element Z={z} not in the embedded basis data (H..F supported)"),
    }
}

/// Shell list `(l, exponents, raw coefficients)` for an element in a basis.
fn element_shells(z: u32, name: &str) -> Vec<(usize, Vec<f64>, Vec<f64>)> {
    let (core, valence) = sto3g_exponents(z);
    match name.to_ascii_lowercase().as_str() {
        "sto-3g" => {
            let mut v = vec![(0usize, core.to_vec(), STO3G_1S.to_vec())];
            if let Some(sp) = valence {
                v.push((0, sp.to_vec(), STO3G_2S.to_vec()));
                v.push((1, sp.to_vec(), STO3G_2P.to_vec()));
            }
            v
        }
        "svp" => {
            // Split-valence + polarization, derived from the STO-3G data:
            // the most diffuse valence primitive becomes its own shell.
            let mut v = Vec::new();
            if let Some(sp) = valence {
                v.push((0usize, core.to_vec(), STO3G_1S.to_vec()));
                v.push((0, sp[..2].to_vec(), STO3G_2S[..2].to_vec()));
                v.push((0, vec![sp[2]], vec![1.0]));
                v.push((1, sp[..2].to_vec(), STO3G_2P[..2].to_vec()));
                v.push((1, vec![sp[2]], vec![1.0]));
                // Single polarization d shell (common exponent choice).
                v.push((2, vec![0.8], vec![1.0]));
            } else {
                // H / He: split the s contraction, add a p shell.
                v.push((0usize, core[..2].to_vec(), STO3G_1S[..2].to_vec()));
                v.push((0, vec![core[2]], vec![1.0]));
                v.push((1, vec![1.1], vec![1.0]));
            }
            v
        }
        other => panic!("unknown basis set {other:?} (embedded: sto-3g, svp)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molecule::Molecule;

    #[test]
    fn double_factorials() {
        assert_eq!(double_factorial_odd(-1), 1.0);
        assert_eq!(double_factorial_odd(1), 1.0);
        assert_eq!(double_factorial_odd(3), 3.0);
        assert_eq!(double_factorial_odd(5), 15.0);
        assert_eq!(double_factorial_odd(7), 105.0);
    }

    #[test]
    fn cartesian_component_counts() {
        assert_eq!(cartesian_components(0), vec![(0, 0, 0)]);
        assert_eq!(
            cartesian_components(1),
            vec![(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        );
        assert_eq!(cartesian_components(2).len(), 6);
        assert_eq!(cartesian_components(2)[0], (2, 0, 0));
        assert_eq!(cartesian_components(2)[5], (0, 0, 2));
        assert_eq!(cartesian_components(3).len(), 10);
    }

    #[test]
    fn shell_counts_sto3g() {
        let m = Molecule::from_symbols_bohr(&[("O", [0.0; 3]), ("H", [0.0, 0.0, 1.8])], 0);
        let b = BasisSet::build(&m, "sto-3g");
        // O: 1s + 2s + 2p (5 AOs), H: 1s -> 6 AOs.
        assert_eq!(b.n_basis(), 6);
        assert_eq!(b.n_shells(), 4);
        assert_eq!(b.shell_offset(0), 0);
        assert_eq!(b.shell_offset(3), 5);
    }

    #[test]
    fn shell_counts_svp() {
        let m = Molecule::from_symbols_bohr(&[("C", [0.0; 3])], 0);
        let b = BasisSet::build(&m, "svp");
        // C svp: 1s + 2×s + 2×p(3) + d(6) = 1+1+1+3+3+6 = 15 cartesian AOs
        assert_eq!(b.n_basis(), 15);
        let mh = Molecule::from_symbols_bohr(&[("H", [0.0; 3])], 0);
        let bh = BasisSet::build(&mh, "svp");
        // H svp: s + s + p = 5
        assert_eq!(bh.n_basis(), 5);
    }

    #[test]
    fn component_factor_d_shell() {
        let sh = Shell::new(2, vec![1.0], vec![1.0], [0.0; 3], 0);
        // (2,0,0): factor 1; (1,1,0): sqrt(3!!/1) = sqrt(3)
        assert!((sh.component_factor(2, 0, 0) - 1.0).abs() < 1e-15);
        assert!((sh.component_factor(1, 1, 0) - 3.0_f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn primitive_norm_value() {
        // s function: N = (2α/π)^{3/4}
        let a = 0.7;
        assert!(
            (primitive_norm(a, 0, 0, 0) - (2.0 * a / std::f64::consts::PI).powf(0.75)).abs()
                < 1e-15
        );
        // p function gains sqrt(4α)
        assert!(
            (primitive_norm(a, 1, 0, 0)
                - (2.0 * a / std::f64::consts::PI).powf(0.75) * (4.0 * a).sqrt())
            .abs()
                < 1e-15
        );
    }

    #[test]
    fn even_tempered_builder() {
        let b = BasisSet::even_tempered_s([0.0; 3], 5, 0.05, 3.0);
        assert_eq!(b.n_basis(), 5);
        assert_eq!(b.shells()[4].exps[0], 0.05 * 81.0);
    }

    #[test]
    #[should_panic]
    fn unknown_basis_panics() {
        let m = Molecule::from_symbols_bohr(&[("H", [0.0; 3])], 0);
        let _ = BasisSet::build(&m, "cc-pvqz");
    }
}
