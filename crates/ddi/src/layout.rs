//! Which rows each column of a [`DistMatrix`](crate::DistMatrix) stores.

use std::ops::Range;

/// The stored part of a column-distributed matrix: each column holds one
/// contiguous range of its rows.
///
/// Rows and columns are grouped into irrep blocks (contiguous index
/// ranges in irrep order), and column j of irrep g stores exactly the rows
/// of irrep `g ⊕ target`. For a CI vector `C(Iβ, Iα)` whose strings are
/// sorted by irrep that is the symmetry sector, stored blocked as the
/// paper's program stores it (§3.1, Table 3's "Vector Symm."): on D2h an
/// eighth of the β × α product. With one irrep every column stores every
/// row — the full matrix, through the same offsets.
///
/// Transposing swaps the two groupings: block `(g_row, g_col)` becomes
/// `(g_col, g_row)`, which lies in the transpose's sector because
/// `g_row = g_col ⊕ target` reads the same both ways.
#[derive(Debug)]
pub struct Layout {
    /// `row_blocks[g]..row_blocks[g + 1]` are the rows of irrep g.
    row_blocks: Vec<usize>,
    /// `col_blocks[g]..col_blocks[g + 1]` are the columns of irrep g.
    col_blocks: Vec<usize>,
    target: u8,
    /// First stored row of each column.
    first: Vec<usize>,
    /// Column j is `off[j]..off[j + 1]` of the stored elements, column by
    /// column; one entry more than there are columns.
    off: Vec<usize>,
}

impl Layout {
    /// Every row of every column: the full `nrows × ncols` matrix.
    pub(crate) fn full(nrows: usize, ncols: usize) -> Layout {
        Layout::blocked(&[0, nrows], &[0, ncols], 0)
    }

    /// Column j of irrep g stores the rows of irrep `g ⊕ target`. Both
    /// slices are block boundaries, one more than there are irreps (a
    /// power of two).
    pub fn blocked(row_blocks: &[usize], col_blocks: &[usize], target: u8) -> Layout {
        let n_irrep = row_blocks.len().saturating_sub(1);
        assert!(
            n_irrep.is_power_of_two()
                && col_blocks.len() == n_irrep + 1
                && usize::from(target) < n_irrep,
            "a layout needs 2^k row and column blocks and a target among them"
        );
        let ncols = col_blocks[n_irrep];
        let mut first = Vec::with_capacity(ncols);
        let mut off = Vec::with_capacity(ncols + 1);
        off.push(0);
        for g in 0..n_irrep {
            let rows =
                row_blocks[g ^ usize::from(target)]..row_blocks[(g ^ usize::from(target)) + 1];
            for _ in col_blocks[g]..col_blocks[g + 1] {
                first.push(rows.start);
                off.push(off[off.len() - 1] + rows.len());
            }
        }
        Layout {
            row_blocks: row_blocks.to_vec(),
            col_blocks: col_blocks.to_vec(),
            target,
            first,
            off,
        }
    }

    /// The layout of the transpose.
    pub(crate) fn transposed(&self) -> Layout {
        Layout::blocked(&self.col_blocks, &self.row_blocks, self.target)
    }

    /// Whether this is the layout of the transpose of `other`.
    pub fn is_transpose_of(&self, other: &Layout) -> bool {
        (&self.row_blocks, &self.col_blocks, self.target)
            == (&other.col_blocks, &other.row_blocks, other.target)
    }

    /// Number of rows.
    pub(crate) fn nrows(&self) -> usize {
        self.row_blocks[self.row_blocks.len() - 1]
    }

    /// Number of columns.
    pub(crate) fn ncols(&self) -> usize {
        self.first.len()
    }

    /// Number of stored elements.
    pub fn stored(&self) -> usize {
        self.off[self.ncols()]
    }

    /// The rows column `col` stores.
    #[inline]
    pub fn rows(&self, col: usize) -> Range<usize> {
        let r0 = self.first[col];
        r0..r0 + self.off[col + 1] - self.off[col]
    }

    /// Where column `col` starts among the stored elements (`col` may be
    /// the column count: the end of the last column).
    #[inline]
    pub fn offset(&self, col: usize) -> usize {
        self.off[col]
    }

    /// Number of irrep blocks on each side.
    pub(crate) fn n_irrep(&self) -> usize {
        self.row_blocks.len() - 1
    }

    /// The columns of irrep `g`, and the rows they store.
    pub(crate) fn block(&self, g: usize) -> (Range<usize>, Range<usize>) {
        let h = g ^ usize::from(self.target);
        (
            self.col_blocks[g]..self.col_blocks[g + 1],
            self.row_blocks[h]..self.row_blocks[h + 1],
        )
    }
}

/// Two layouts are equal when they store the same elements.
impl PartialEq for Layout {
    fn eq(&self, other: &Layout) -> bool {
        (&self.row_blocks, &self.col_blocks, self.target)
            == (&other.row_blocks, &other.col_blocks, other.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_block_is_the_full_matrix() {
        let l = Layout::full(3, 4);
        assert_eq!((l.nrows(), l.ncols(), l.stored()), (3, 4, 12));
        for c in 0..4 {
            assert_eq!((l.rows(c), l.offset(c)), (0..3, 3 * c));
        }
        assert_eq!(l.transposed(), Layout::full(4, 3));
    }

    #[test]
    fn blocks_store_the_sector() {
        // Rows: irrep 0 = 0..2, irrep 1 = 2..5; columns: 0..1, 1..4.
        let l = Layout::blocked(&[0, 2, 5], &[0, 1, 4], 1);
        assert_eq!(l.rows(0), 2..5);
        assert_eq!((l.rows(1), l.rows(3)), (0..2, 0..2));
        assert_eq!((l.offset(1), l.offset(4), l.stored()), (3, 9, 9));
        let t = l.transposed();
        assert_eq!((t.nrows(), t.ncols(), t.stored()), (4, 5, 9));
        assert_eq!((t.rows(0), t.rows(4)), (1..4, 0..1));
        assert_eq!(t.transposed(), l);
        assert_ne!(l, Layout::blocked(&[0, 2, 5], &[0, 1, 4], 0));
    }
}
