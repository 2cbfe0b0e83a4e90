//! Molecular geometry and nuclear data.

/// Conversion factor from Ångström to Bohr (atomic units).
pub const ANGSTROM_TO_BOHR: f64 = 1.8897259886;

/// Chemical elements supported by the embedded basis sets.
const SYMBOLS: [&str; 10] = ["H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne"];

/// Atomic number for an element symbol (case-insensitive), if supported.
pub(crate) fn atomic_number(symbol: &str) -> Option<u32> {
    let s = symbol.trim();
    SYMBOLS
        .iter()
        .position(|&e| e.eq_ignore_ascii_case(s))
        .map(|i| (i + 1) as u32)
}

/// One atom: nuclear charge and position in Bohr.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Atom {
    /// Atomic number (= nuclear charge for all-electron calculations).
    pub z: u32,
    /// Cartesian position in Bohr.
    pub pos: [f64; 3],
}

/// A molecule: a set of atoms and a total charge.
#[derive(Clone, Debug, PartialEq)]
pub struct Molecule {
    /// The atoms, positions in Bohr.
    pub atoms: Vec<Atom>,
    /// Net molecular charge (electrons = Σ Z − charge).
    pub charge: i32,
}

impl Molecule {
    /// Build from `(symbol, [x, y, z])` pairs with coordinates in Bohr.
    pub fn from_symbols_bohr(atoms: &[(&str, [f64; 3])], charge: i32) -> Self {
        let atoms = atoms
            .iter()
            .map(|(s, pos)| Atom {
                z: atomic_number(s).unwrap_or_else(|| panic!("unknown element {s}")),
                pos: *pos,
            })
            .collect();
        Molecule { atoms, charge }
    }

    /// Build from `(symbol, [x, y, z])` pairs with coordinates in Ångström.
    pub fn from_symbols_angstrom(atoms: &[(&str, [f64; 3])], charge: i32) -> Self {
        let scaled: Vec<(&str, [f64; 3])> = atoms
            .iter()
            .map(|(s, p)| {
                (
                    *s,
                    [
                        p[0] * ANGSTROM_TO_BOHR,
                        p[1] * ANGSTROM_TO_BOHR,
                        p[2] * ANGSTROM_TO_BOHR,
                    ],
                )
            })
            .collect();
        Self::from_symbols_bohr(&scaled, charge)
    }

    /// Number of electrons.
    pub fn n_electrons(&self) -> usize {
        let zsum: i64 = self.atoms.iter().map(|a| a.z as i64).sum();
        let n = zsum - self.charge as i64;
        assert!(n >= 0, "charge exceeds total nuclear charge");
        n as usize
    }

    /// Nuclear repulsion energy `Σ_{A<B} Z_A Z_B / R_AB` in hartree.
    pub fn nuclear_repulsion(&self) -> f64 {
        let mut e = 0.0;
        for i in 0..self.atoms.len() {
            for j in 0..i {
                let a = &self.atoms[i];
                let b = &self.atoms[j];
                let r = dist(a.pos, b.pos);
                assert!(r > 1e-10, "coincident nuclei");
                e += (a.z * b.z) as f64 / r;
            }
        }
        e
    }

    /// Translate every atom by `d` (Bohr). Physics must be invariant.
    #[cfg(test)]
    pub(crate) fn translated(&self, d: [f64; 3]) -> Molecule {
        let atoms = self
            .atoms
            .iter()
            .map(|a| Atom {
                z: a.z,
                pos: [a.pos[0] + d[0], a.pos[1] + d[1], a.pos[2] + d[2]],
            })
            .collect();
        Molecule {
            atoms,
            charge: self.charge,
        }
    }
}

pub(crate) fn dist(a: [f64; 3], b: [f64; 3]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    (dx * dx + dy * dy + dz * dz).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_lookup() {
        assert_eq!(atomic_number("H"), Some(1));
        assert_eq!(atomic_number("o"), Some(8));
        assert_eq!(atomic_number("Ne"), Some(10));
        assert_eq!(atomic_number("Xx"), None);
    }

    #[test]
    fn h2_repulsion() {
        let m = Molecule::from_symbols_bohr(&[("H", [0.0, 0.0, 0.0]), ("H", [0.0, 0.0, 1.4])], 0);
        assert!((m.nuclear_repulsion() - 1.0 / 1.4).abs() < 1e-15);
        assert_eq!(m.n_electrons(), 2);
    }

    #[test]
    fn charge_changes_electron_count() {
        let m = Molecule::from_symbols_bohr(&[("O", [0.0; 3])], -1);
        assert_eq!(m.n_electrons(), 9);
        let m = Molecule::from_symbols_bohr(&[("C", [0.0; 3]), ("N", [0.0, 0.0, 2.2])], 1);
        assert_eq!(m.n_electrons(), 12);
    }

    #[test]
    fn translation_preserves_repulsion() {
        let m = Molecule::from_symbols_bohr(
            &[
                ("O", [0.0, 0.0, 0.0]),
                ("H", [0.0, 1.4, 1.1]),
                ("H", [0.0, -1.4, 1.1]),
            ],
            0,
        );
        let t = m.translated([2.5, -1.0, 0.3]);
        assert!((m.nuclear_repulsion() - t.nuclear_repulsion()).abs() < 1e-12);
    }

    #[test]
    fn angstrom_conversion() {
        let m = Molecule::from_symbols_angstrom(&[("H", [0.0; 3]), ("H", [0.0, 0.0, 1.0])], 0);
        let d = dist(m.atoms[0].pos, m.atoms[1].pos);
        assert!((d - ANGSTROM_TO_BOHR).abs() < 1e-12);
    }
}
