//! CI-vector checkpointing.
//!
//! The paper's motivation for the single-vector diagonalizer is that
//! subspace vectors do not fit in memory and "the I/O bandwidth is so
//! limited that storing the subspace vectors on disk implies a huge waste
//! of computing resources" (§2.2). A production run still checkpoints its
//! *single* current vector once per iteration so a crashed job can resume.
//! This module provides that: a flat little-endian f64 container with a
//! header recording the CI matrix shape, plus restart plumbing (the
//! crate's `diagonalize_with` starts from the loaded vector; the resilient
//! driver in [`crate::recovery`] resumes through it).
//!
//! The file holds the full β × α product, zeros outside the symmetry
//! sector included, so one format serves every layout. Both directions
//! stream one column at a time; neither builds the product in memory.

use crate::detspace::DetSpace;
use fci_ddi::DistMatrix;
use fci_fault::Crc32;
use std::io::{self, Read, Write};
use std::path::Path;

/// Format: magic, version byte, shape, payload, CRC32 trailer.
const MAGIC_V2: &[u8; 8] = b"FCIXCKP2";
/// Format version written after [`MAGIC_V2`].
const VERSION: u8 = 2;
/// Bytes around the payload: magic + version + `nrows` + `ncols` before
/// it, the CRC32 after it.
const FRAME_BYTES: u64 = 8 + 1 + 8 + 8 + 4;

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Write a CI vector to `path` (atomic via a temp file + rename).
///
/// Layout: `FCIXCKP2` magic, one version byte, `nrows`/`ncols` as LE
/// u64, the payload — every element of the column-major product, zero
/// where `c` stores nothing — as LE f64, then a LE u32 CRC32 of the
/// payload bytes. The checksum is what lets a restart distinguish a
/// bit-rotted checkpoint from a good one instead of silently resuming
/// from garbage.
pub fn save_ci(path: &Path, c: &DistMatrix) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = io::BufWriter::new(std::fs::File::create(&tmp)?);
        f.write_all(MAGIC_V2)?;
        f.write_all(&[VERSION])?;
        f.write_all(&(c.nrows() as u64).to_le_bytes())?;
        f.write_all(&(c.ncols() as u64).to_le_bytes())?;
        let mut crc = Crc32::new();
        let mut block = vec![0u8; c.nrows() * 8];
        let mut written = Ok(());
        c.map_cols_inplace(|_, rows, vals| {
            block.fill(0);
            for (b, v) in block[rows.start * 8..rows.end * 8]
                .chunks_exact_mut(8)
                .zip(vals)
            {
                b.copy_from_slice(&v.to_le_bytes());
            }
            crc.update(&block);
            if written.is_ok() {
                written = f.write_all(&block);
            }
        });
        written?;
        f.write_all(&crc.finish().to_le_bytes())?;
        f.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// Load a CI vector of `space` from `path`, distributing it over `nproc`
/// ranks in the space's layout.
///
/// A foreign magic, unknown version, checksum mismatch, a file whose
/// length is not the one its header implies (truncation, trailing
/// garbage, a corrupted shape), a shape other than the space's, or a
/// non-zero coefficient outside the space's symmetry sector is an
/// `InvalidData` error.
pub fn load_ci(path: &Path, space: &DetSpace, nproc: usize) -> io::Result<DistMatrix> {
    let file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut f = io::BufReader::new(file);
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic)?;
    if &magic != MAGIC_V2 {
        return Err(bad("not an fcix checkpoint"));
    }
    let mut ver = [0u8; 1];
    f.read_exact(&mut ver)?;
    if ver[0] != VERSION {
        return Err(bad("unsupported checkpoint format version"));
    }
    let mut read_dim = || -> io::Result<usize> {
        let mut b8 = [0u8; 8];
        f.read_exact(&mut b8)?;
        usize::try_from(u64::from_le_bytes(b8)).map_err(|_| bad("checkpoint shape overflows"))
    };
    let (nrows, ncols) = (read_dim()?, read_dim()?);
    // The header is untrusted: the payload it claims must be exactly the
    // bytes the file has, checked before allocating for it.
    let implied_len = nrows
        .checked_mul(ncols)
        .and_then(|n| (n as u64).checked_mul(8))
        .and_then(|payload| payload.checked_add(FRAME_BYTES));
    if implied_len != Some(file_len) {
        return Err(bad("checkpoint length does not match its header"));
    }
    if (nrows, ncols) != (space.beta.len(), space.alpha.len()) {
        return Err(bad("checkpoint shape does not match the determinant space"));
    }
    let c = space.zeros_ci(nproc);
    let mut crc = Crc32::new();
    let mut block = vec![0u8; nrows * 8];
    let (mut read, mut outside) = (Ok(()), false);
    c.map_cols_inplace(|_, rows, vals| {
        if read.is_err() {
            return;
        }
        read = f.read_exact(&mut block);
        crc.update(&block);
        for (i, b) in block.chunks_exact(8).enumerate() {
            let mut le = [0u8; 8];
            le.copy_from_slice(b);
            let v = f64::from_le_bytes(le);
            if rows.contains(&i) {
                vals[i - rows.start] = v;
            } else {
                outside |= v != 0.0;
            }
        }
    });
    read?;
    let mut b4 = [0u8; 4];
    f.read_exact(&mut b4)?;
    if u32::from_le_bytes(b4) != crc.finish() {
        return Err(bad("checkpoint payload checksum mismatch (corrupted file)"));
    }
    if outside {
        return Err(bad(
            "checkpoint has a non-zero coefficient outside the symmetry sector",
        ));
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{diagonalize, diagonalize_with, preconditioner, DiagMethod, DiagOptions};
    use crate::hamiltonian::random_hamiltonian;
    use crate::sigma::{test_ctx, SigmaMethod};
    use fci_ddi::{Backend, Ddi};

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("fcix-ckp-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A 4-irrep space (target 2) and a vector filling its sector.
    fn blocked(nproc: usize) -> (DetSpace, DistMatrix) {
        let space = DetSpace::new(6, 3, 2, &[2, 0, 3, 1, 0, 2], 4, 2);
        let c = space.zeros_ci(nproc);
        c.map_inplace(|ib, ia, _| ((ib * 7 + ia) as f64).sin());
        (space, c)
    }

    /// A C1 space whose CI matrix is 4 × 6.
    fn c1() -> DetSpace {
        DetSpace::c1(4, 2, 1)
    }

    #[test]
    fn roundtrip_preserves_vector() {
        let space = c1();
        let m = DistMatrix::from_dense(
            4,
            6,
            2,
            &(0..24).map(|x| x as f64 * 0.5 - 2.0).collect::<Vec<_>>(),
        );
        let path = tmpdir().join("rt.ckp");
        save_ci(&path, &m).unwrap();
        let back = load_ci(&path, &space, 3).unwrap(); // different rank count is fine
        assert_eq!(back.to_dense(), m.to_dense());
        assert_eq!((back.nrows(), back.ncols()), (4, 6));
    }

    #[test]
    fn blocked_roundtrip_is_bitwise_and_keeps_the_format() {
        let (space, c) = blocked(3);
        assert!(space.sector_dim() < space.dim());
        let path = tmpdir().join("blocked.ckp");
        save_ci(&path, &c).unwrap();
        // The file holds the whole product: what a full-layout writer of
        // the same coefficients writes.
        let full = DistMatrix::from_dense(c.nrows(), c.ncols(), 1, &c.to_dense());
        let path_full = tmpdir().join("blocked-full.ckp");
        save_ci(&path_full, &full).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&path_full).unwrap()
        );
        for nproc in [1, 2, 5] {
            let back = load_ci(&path, &space, nproc).unwrap();
            assert_eq!(back.layout(), c.layout());
            let bits =
                |m: &DistMatrix| m.to_dense().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&c));
        }
    }

    #[test]
    fn out_of_sector_coefficients_are_refused() {
        let (space, c) = blocked(2);
        let mut dense = c.to_dense();
        let nb = space.beta.len();
        let i = (0..dense.len())
            .find(|&i| !space.in_sector(i % nb, i / nb))
            .unwrap();
        dense[i] = 1e-3;
        let path = tmpdir().join("leak.ckp");
        save_ci(
            &path,
            &DistMatrix::from_dense(c.nrows(), c.ncols(), 1, &dense),
        )
        .unwrap();
        let err = load_ci(&path, &space, 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("outside the symmetry sector"),
            "{err}"
        );
        // A signed zero there is still a zero.
        dense[i] = -0.0;
        save_ci(
            &path,
            &DistMatrix::from_dense(c.nrows(), c.ncols(), 1, &dense),
        )
        .unwrap();
        assert!(load_ci(&path, &space, 2).is_ok());
    }

    #[test]
    fn rejects_garbage() {
        let path = tmpdir().join("bad.ckp");
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();
        assert!(load_ci(&path, &c1(), 1).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let space = c1();
        let m = DistMatrix::from_dense(4, 6, 1, &[1.0; 24]);
        let path = tmpdir().join("trunc.ckp");
        save_ci(&path, &m).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut inside the CRC, the payload, the shape and the magic.
        for keep in [full.len() - 1, full.len() - 9, V2_PAYLOAD + 8, 20, 9, 3] {
            std::fs::write(&path, &full[..keep]).unwrap();
            assert!(load_ci(&path, &space, 1).is_err(), "accepted {keep} bytes");
        }
        // A flipped header byte claiming 2^40 elements: an error, not an
        // attempt to allocate 8 TiB.
        let mut huge = full.clone();
        huge[9..17].copy_from_slice(&(1u64 << 20).to_le_bytes());
        huge[17..25].copy_from_slice(&(1u64 << 20).to_le_bytes());
        std::fs::write(&path, &huge).unwrap();
        let err = load_ci(&path, &space, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // So is trailing garbage after an intact checkpoint.
        let mut long = full.clone();
        long.push(0xab);
        std::fs::write(&path, &long).unwrap();
        let err = load_ci(&path, &space, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    /// Byte offset of the first payload byte in the v2 layout.
    const V2_PAYLOAD: usize = 8 + 1 + 8 + 8;

    #[test]
    fn flipped_payload_byte_caught_by_crc() {
        let m = DistMatrix::from_dense(
            4,
            6,
            2,
            &(0..24).map(|x| (x as f64).cos()).collect::<Vec<_>>(),
        );
        let path = tmpdir().join("flip.ckp");
        save_ci(&path, &m).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[V2_PAYLOAD + 37] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_ci(&path, &c1(), 1).unwrap_err();
        assert!(err.to_string().contains("checksum"), "wrong error: {err}");
    }

    #[test]
    fn corrupted_crc_trailer_rejected() {
        let m = DistMatrix::from_dense(4, 6, 1, &[1.0; 24]);
        let path = tmpdir().join("trailer.ckp");
        save_ci(&path, &m).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_ci(&path, &c1(), 1).is_err());
    }

    #[test]
    fn unknown_version_rejected() {
        let m = DistMatrix::from_dense(4, 6, 1, &[1.0; 24]);
        let path = tmpdir().join("ver.ckp");
        save_ci(&path, &m).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 99; // version byte
        std::fs::write(&path, &bytes).unwrap();
        let err = load_ci(&path, &c1(), 1).unwrap_err();
        assert!(err.to_string().contains("version"), "wrong error: {err}");
    }

    #[test]
    fn rejects_legacy_v1_format() {
        // The pre-CRC layout (plain header + payload, no version byte, no
        // trailer) carries no integrity check, so it is no longer read.
        let path = tmpdir().join("legacy.ckp");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"FCIXCKP1");
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&6u64.to_le_bytes());
        for x in 0..24 {
            bytes.extend_from_slice(&(x as f64 * 1.5 - 4.0).to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let err = load_ci(&path, &c1(), 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not an fcix checkpoint"), "{err}");
    }

    #[test]
    #[should_panic(expected = "guess shape mismatch")]
    fn wrong_shape_resume_rejected() {
        // A checkpoint of a different CI space does not load into this
        // one, and a vector of the wrong shape fails loudly at the solver's
        // shape check rather than corrupting the iteration.
        let ham = random_hamiltonian(5, 41);
        let space = DetSpace::c1(5, 2, 2);
        let ddi = Ddi::new(2, Backend::Serial);
        let ctx = test_ctx(&space, &ham, &ddi);
        let path = tmpdir().join("wrong-shape.ckp");
        let wrong = DistMatrix::from_dense(3, 3, 2, &[0.5; 9]);
        save_ci(&path, &wrong).unwrap();
        let err = load_ci(&path, &space, 2).unwrap_err();
        assert!(err.to_string().contains("shape does not match"), "{err}");
        diagonalize_with(
            &ctx,
            SigmaMethod::Dgemm,
            DiagMethod::AutoAdjust,
            &DiagOptions::default(),
            &preconditioner(&ctx, DiagOptions::default().model_space),
            wrong,
        );
    }

    #[test]
    fn restart_resumes_convergence() {
        // Interrupt after a few iterations, checkpoint, reload, resume:
        // the combined iteration count must come out close to the
        // uninterrupted run and reach the same energy.
        let ham = random_hamiltonian(5, 41);
        let space = DetSpace::c1(5, 2, 2);
        let ddi = Ddi::new(2, Backend::Serial);
        let ctx = test_ctx(&space, &ham, &ddi);
        let full = diagonalize(
            &ctx,
            SigmaMethod::Dgemm,
            DiagMethod::AutoAdjust,
            &DiagOptions::default(),
        );
        assert!(full.converged);

        let partial = diagonalize(
            &ctx,
            SigmaMethod::Dgemm,
            DiagMethod::AutoAdjust,
            &DiagOptions {
                max_iter: 4,
                ..Default::default()
            },
        );
        assert!(!partial.converged);
        let path = tmpdir().join("restart.ckp");
        save_ci(&path, &partial.c).unwrap();
        let c0 = load_ci(&path, &space, 2).unwrap();
        let resumed = diagonalize_with(
            &ctx,
            SigmaMethod::Dgemm,
            DiagMethod::AutoAdjust,
            &DiagOptions::default(),
            &preconditioner(&ctx, DiagOptions::default().model_space),
            c0,
        );
        assert!(resumed.converged);
        assert!((resumed.e_elec - full.e_elec).abs() < 1e-8);
        // The resumed run re-estimates λ from scratch, which can cost an
        // iteration or two relative to the uninterrupted run.
        assert!(
            resumed.iterations <= full.iterations + 2,
            "restart lost progress: {} vs {}",
            resumed.iterations,
            full.iterations
        );
    }
}
