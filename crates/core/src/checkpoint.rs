//! CI-vector checkpointing.
//!
//! The paper's motivation for the single-vector diagonalizer is that
//! subspace vectors do not fit in memory and "the I/O bandwidth is so
//! limited that storing the subspace vectors on disk implies a huge waste
//! of computing resources" (§2.2). A production run still checkpoints its
//! *single* current vector once per iteration so a crashed job can resume.
//! This module provides that: a flat little-endian f64 container with a
//! header recording the CI matrix shape, plus restart plumbing
//! ([`crate::diag::diagonalize_from`] accepts the loaded vector).

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
/// I/O chunk size in f64 elements (64 KiB blocks).
const CHUNK: usize = 8192;

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Write a CI vector to `path` (atomic via a temp file + rename).
///
/// Layout: `FCIXCKP2` magic, one version byte, `nrows`/`ncols` as LE
/// u64, the payload as LE f64, then a LE u32 CRC32 of the payload bytes.
/// The checksum is what lets a restart distinguish a bit-rotted
/// checkpoint from a good one instead of silently resuming from garbage.
pub fn save_ci(path: &Path, c: &DistMatrix) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = io::BufWriter::new(std::fs::File::create(&tmp)?);
        f.write_all(MAGIC_V2)?;
        f.write_all(&[VERSION])?;
        f.write_all(&(c.nrows() as u64).to_le_bytes())?;
        f.write_all(&(c.ncols() as u64).to_le_bytes())?;
        let dense = c.to_dense();
        let mut crc = Crc32::new();
        let mut block = Vec::with_capacity(CHUNK * 8);
        for chunk in dense.chunks(CHUNK) {
            block.clear();
            for v in chunk {
                block.extend_from_slice(&v.to_le_bytes());
            }
            crc.update(&block);
            f.write_all(&block)?;
        }
        f.write_all(&crc.finish().to_le_bytes())?;
        f.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// Load a CI vector from `path`, distributing it over `nproc` ranks.
///
/// A foreign magic, unknown version, checksum mismatch, or a file whose
/// length is not the one its header implies (truncation, trailing
/// garbage, a corrupted shape) is an `InvalidData` error.
pub fn load_ci(path: &Path, nproc: usize) -> io::Result<DistMatrix> {
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
    let n = nrows
        .checked_mul(ncols)
        .ok_or_else(|| bad("checkpoint shape overflows"))?;
    // The header is untrusted: the payload it claims must be exactly the
    // bytes the file has, checked before allocating for it.
    let implied_len = (n as u64)
        .checked_mul(8)
        .and_then(|payload| payload.checked_add(FRAME_BYTES));
    if implied_len != Some(file_len) {
        return Err(bad("checkpoint length does not match its header"));
    }
    let mut data = vec![0.0f64; n];
    let mut crc = Crc32::new();
    let mut block = vec![0u8; CHUNK * 8];
    for chunk in data.chunks_mut(CHUNK) {
        let bytes = &mut block[..chunk.len() * 8];
        f.read_exact(bytes)?;
        crc.update(bytes);
        for (v, b) in chunk.iter_mut().zip(bytes.chunks_exact(8)) {
            let mut le = [0u8; 8];
            le.copy_from_slice(b);
            *v = f64::from_le_bytes(le);
        }
    }
    let mut b4 = [0u8; 4];
    f.read_exact(&mut b4)?;
    if u32::from_le_bytes(b4) != crc.finish() {
        return Err(bad("checkpoint payload checksum mismatch (corrupted file)"));
    }
    Ok(DistMatrix::from_dense(nrows, ncols, nproc, &data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detspace::DetSpace;
    use crate::diag::{diagonalize, diagonalize_from, DiagMethod, DiagOptions};
    use crate::hamiltonian::random_hamiltonian;
    use crate::sigma::{SigmaCtx, SigmaMethod};
    use crate::taskpool::PoolParams;
    use fci_ddi::{Backend, Ddi};
    use fci_xsim::MachineModel;

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("fcix-ckp-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip_preserves_vector() {
        let m = DistMatrix::from_dense(
            3,
            4,
            2,
            &(0..12).map(|x| x as f64 * 0.5 - 2.0).collect::<Vec<_>>(),
        );
        let path = tmpdir().join("rt.ckp");
        save_ci(&path, &m).unwrap();
        let back = load_ci(&path, 3).unwrap(); // different rank count is fine
        assert_eq!(back.to_dense(), m.to_dense());
        assert_eq!((back.nrows(), back.ncols()), (3, 4));
    }

    #[test]
    fn rejects_garbage() {
        let path = tmpdir().join("bad.ckp");
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();
        assert!(load_ci(&path, 1).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let m = DistMatrix::from_dense(5, 5, 1, &[1.0; 25]);
        let path = tmpdir().join("trunc.ckp");
        save_ci(&path, &m).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut inside the CRC, the payload, the shape and the magic.
        for keep in [full.len() - 1, full.len() - 9, V2_PAYLOAD + 8, 20, 9, 3] {
            std::fs::write(&path, &full[..keep]).unwrap();
            assert!(load_ci(&path, 1).is_err(), "accepted {keep} bytes");
        }
        // A flipped header byte claiming 2^40 elements: an error, not an
        // attempt to allocate 8 TiB.
        let mut huge = full.clone();
        huge[9..17].copy_from_slice(&(1u64 << 20).to_le_bytes());
        huge[17..25].copy_from_slice(&(1u64 << 20).to_le_bytes());
        std::fs::write(&path, &huge).unwrap();
        let err = load_ci(&path, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // So is trailing garbage after an intact checkpoint.
        let mut long = full.clone();
        long.push(0xab);
        std::fs::write(&path, &long).unwrap();
        let err = load_ci(&path, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    /// Byte offset of the first payload byte in the v2 layout.
    const V2_PAYLOAD: usize = 8 + 1 + 8 + 8;

    #[test]
    fn flipped_payload_byte_caught_by_crc() {
        let m = DistMatrix::from_dense(
            4,
            4,
            2,
            &(0..16).map(|x| (x as f64).cos()).collect::<Vec<_>>(),
        );
        let path = tmpdir().join("flip.ckp");
        save_ci(&path, &m).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[V2_PAYLOAD + 37] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_ci(&path, 1).unwrap_err();
        assert!(err.to_string().contains("checksum"), "wrong error: {err}");
    }

    #[test]
    fn corrupted_crc_trailer_rejected() {
        let m = DistMatrix::from_dense(2, 2, 1, &[1.0, 2.0, 3.0, 4.0]);
        let path = tmpdir().join("trailer.ckp");
        save_ci(&path, &m).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_ci(&path, 1).is_err());
    }

    #[test]
    fn unknown_version_rejected() {
        let m = DistMatrix::from_dense(2, 2, 1, &[1.0; 4]);
        let path = tmpdir().join("ver.ckp");
        save_ci(&path, &m).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 99; // version byte
        std::fs::write(&path, &bytes).unwrap();
        let err = load_ci(&path, 1).unwrap_err();
        assert!(err.to_string().contains("version"), "wrong error: {err}");
    }

    #[test]
    fn rejects_legacy_v1_format() {
        // The pre-CRC layout (plain header + payload, no version byte, no
        // trailer) carries no integrity check, so it is no longer read.
        let path = tmpdir().join("legacy.ckp");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"FCIXCKP1");
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        for x in 0..6 {
            bytes.extend_from_slice(&(x as f64 * 1.5 - 4.0).to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let err = load_ci(&path, 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not an fcix checkpoint"), "{err}");
    }

    #[test]
    #[should_panic(expected = "guess shape mismatch")]
    fn wrong_shape_resume_rejected() {
        // Resuming a solve from a checkpoint of a different CI space must
        // fail loudly at the shape check, not corrupt the iteration.
        let ham = random_hamiltonian(5, 41);
        let space = DetSpace::c1(5, 2, 2);
        let ddi = Ddi::new(2, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let path = tmpdir().join("wrong-shape.ckp");
        let wrong = DistMatrix::from_dense(3, 3, 2, &[0.5; 9]);
        save_ci(&path, &wrong).unwrap();
        let c0 = load_ci(&path, 2).unwrap();
        diagonalize_from(
            &ctx,
            SigmaMethod::Dgemm,
            DiagMethod::AutoAdjust,
            &DiagOptions::default(),
            c0,
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
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
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
        let c0 = load_ci(&path, 2).unwrap();
        let resumed = diagonalize_from(
            &ctx,
            SigmaMethod::Dgemm,
            DiagMethod::AutoAdjust,
            &DiagOptions::default(),
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
