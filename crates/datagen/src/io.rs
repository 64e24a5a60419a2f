//! Dataset serialisation.
//!
//! Two formats are supported:
//!
//! * **Text** — the layout of the paper's Fig. 1 and of the MPI3SNP sample
//!   files: one row per SNP with comma-separated genotypes, and a final
//!   row holding the phenotype. Human-readable, diff-friendly.
//! * **Binary** — a compact little-endian format (`EPI3` magic) for large
//!   benchmark inputs: header (`M`, `N`) followed by genotype bytes and
//!   phenotype bytes. Readers refuse a header whose `M·N + N` body does
//!   not match the bytes that follow, before sizing any buffer from it.

use crate::generator::Dataset;
use bitgenome::{DataError, GenotypeMatrix, Phenotype};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"EPI3";

/// Magic plus the little-endian `u64` dimensions `M` and `N`.
const HEADER_LEN: u64 = 20;

/// Write a dataset in text format.
pub fn write_text<W: Write>(
    w: W,
    genotypes: &GenotypeMatrix,
    phenotype: &Phenotype,
) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    let n = genotypes.num_samples();
    assert_eq!(n, phenotype.len());
    let mut line = String::with_capacity(2 * n);
    for snp in 0..genotypes.num_snps() {
        line.clear();
        for (j, &g) in genotypes.snp(snp).iter().enumerate() {
            if j > 0 {
                line.push(',');
            }
            line.push((b'0' + g) as char);
        }
        writeln!(w, "{line}")?;
    }
    line.clear();
    for (j, &p) in phenotype.labels().iter().enumerate() {
        if j > 0 {
            line.push(',');
        }
        line.push((b'0' + p) as char);
    }
    writeln!(w, "{line}")?;
    w.flush()
}

/// Read a dataset in text format (last row = phenotype).
pub fn read_text<R: Read>(r: R) -> io::Result<(GenotypeMatrix, Phenotype)> {
    let reader = BufReader::new(r);
    let mut rows: Vec<Vec<u8>> = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let row: Result<Vec<u8>, _> = trimmed
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse::<u8>()
                    .map_err(|e| invalid(format!("bad value {tok:?}: {e}")))
            })
            .collect();
        rows.push(row?);
    }
    let (Some(phen_row), Some(first)) = (rows.pop(), rows.first()) else {
        return Err(invalid("need at least one SNP row and a phenotype row"));
    };
    let n = first.len();
    if phen_row.len() != n || rows.iter().any(|r| r.len() != n) {
        return Err(invalid(
            "ragged rows: all rows must have the same sample count",
        ));
    }
    let m = rows.len();
    dataset(m, n, rows.concat(), phen_row)
}

/// Write a dataset in the compact binary format.
pub fn write_binary<W: Write>(
    w: W,
    genotypes: &GenotypeMatrix,
    phenotype: &Phenotype,
) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    w.write_all(&(genotypes.num_snps() as u64).to_le_bytes())?;
    w.write_all(&(genotypes.num_samples() as u64).to_le_bytes())?;
    w.write_all(genotypes.raw())?;
    w.write_all(phenotype.labels())?;
    w.flush()
}

/// Read a dataset in the compact binary format. The header's sizes are
/// checked for overflow, the buffers grow only as body bytes arrive (a
/// lying header cannot exhaust memory), and a truncated body or trailing
/// bytes are refused.
pub fn read_binary<R: Read>(mut r: R) -> io::Result<(GenotypeMatrix, Phenotype)> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not an EPI3 binary dataset"));
    }
    let (m, n) = read_dims(&mut r)?;
    read_body(r, m, n, false)
}

/// `M` and `N` from the header, after the magic.
fn read_dims<R: Read>(r: &mut R) -> io::Result<(u64, u64)> {
    let mut word = [0u8; 8];
    r.read_exact(&mut word)?;
    let m = u64::from_le_bytes(word);
    r.read_exact(&mut word)?;
    Ok((m, u64::from_le_bytes(word)))
}

/// Body length in bytes (`M·N` genotypes and `N` labels), or `None` when
/// it overflows.
fn body_len(m: u64, n: u64) -> Option<u64> {
    m.checked_mul(n)?.checked_add(n)
}

/// Read the `M·N` genotype and `N` label bytes that follow the header,
/// then validate them once. `sized` means the file length already
/// matched the header, so each buffer is allocated at its final size.
fn read_body<R: Read>(
    mut r: R,
    m: u64,
    n: u64,
    sized: bool,
) -> io::Result<(GenotypeMatrix, Phenotype)> {
    // with no samples a body of zero bytes could claim any SNP count
    if n == 0 {
        return Err(invalid("dataset header declares no samples"));
    }
    if body_len(m, n)
        .and_then(|b| usize::try_from(b).ok())
        .is_none()
    {
        return Err(invalid(format!("dataset header {m} x {n} overflows")));
    }
    // N >= 1, so M, N and M·N all fit wherever M·N + N does
    let (m, n) = (m as usize, n as usize);
    let genotypes = read_vec(&mut r, m * n, sized)?;
    let labels = read_vec(&mut r, n, sized)?;
    if r.read(&mut [0u8; 1])? != 0 {
        return Err(invalid("trailing bytes after the dataset body"));
    }
    dataset(m, n, genotypes, labels)
}

/// Exactly `len` bytes of `r`, into a buffer reserved up front only when
/// `len` is `sized` (already checked against the file length).
fn read_vec<R: Read>(r: &mut R, len: usize, sized: bool) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(if sized { len } else { 0 });
    r.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("dataset body truncated: {} of {len} bytes", buf.len()),
        ));
    }
    Ok(buf)
}

/// Validate and assemble a dataset; a bad value is `InvalidData`.
fn dataset(
    m: usize,
    n: usize,
    genotypes: Vec<u8>,
    labels: Vec<u8>,
) -> io::Result<(GenotypeMatrix, Phenotype)> {
    let corrupt = |e: DataError| invalid(format!("corrupt dataset payload: {e}"));
    Ok((
        GenotypeMatrix::try_from_raw(m, n, genotypes).map_err(corrupt)?,
        Phenotype::try_from_labels(labels).map_err(corrupt)?,
    ))
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Convenience: write a [`Dataset`] as text to `path`.
pub fn save_text<P: AsRef<Path>>(path: P, d: &Dataset) -> io::Result<()> {
    write_text(File::create(path)?, &d.genotypes, &d.phenotype)
}

/// Convenience: write a [`Dataset`] as binary to `path`.
pub fn save_binary<P: AsRef<Path>>(path: P, d: &Dataset) -> io::Result<()> {
    write_binary(File::create(path)?, &d.genotypes, &d.phenotype)
}

/// Convenience: load either format from `path`, sniffing the magic bytes.
///
/// A binary file's header must account for the file's length exactly
/// before anything is allocated; the body is then read once, straight
/// into the matrix's buffer, and validated once.
pub fn load<P: AsRef<Path>>(path: P) -> io::Result<(GenotypeMatrix, Phenotype)> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut head = Vec::with_capacity(MAGIC.len());
    (&mut file)
        .take(MAGIC.len() as u64)
        .read_to_end(&mut head)?;
    if head != MAGIC {
        file.read_to_end(&mut head)?;
        return read_text(head.as_slice());
    }
    let (m, n) = read_dims(&mut file)?;
    let want = body_len(m, n).and_then(|body| body.checked_add(HEADER_LEN));
    if want != Some(file_len) {
        return Err(invalid(format!(
            "dataset header {m} x {n} does not match the file length {file_len}"
        )));
    }
    read_body(file, m, n, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::DatasetSpec;

    fn demo() -> (GenotypeMatrix, Phenotype) {
        let d = DatasetSpec::noise(8, 37, 5).generate();
        (d.genotypes, d.phenotype)
    }

    #[test]
    fn text_roundtrip() {
        let (g, p) = demo();
        let mut buf = Vec::new();
        write_text(&mut buf, &g, &p).unwrap();
        let (g2, p2) = read_text(&buf[..]).unwrap();
        assert_eq!(g, g2);
        assert_eq!(p, p2);
    }

    #[test]
    fn binary_roundtrip() {
        let (g, p) = demo();
        let mut buf = Vec::new();
        write_binary(&mut buf, &g, &p).unwrap();
        let (g2, p2) = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
        assert_eq!(p, p2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOPE............"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A binary file whose header says `m × n`, followed by `body_len`
    /// zero bytes.
    fn crafted(tag: &str, m: u64, n: u64, body_len: usize) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("epi3_io_{tag}_{}.epi3", std::process::id()));
        let mut bytes = MAGIC.to_vec();
        bytes.extend(m.to_le_bytes());
        bytes.extend(n.to_le_bytes());
        bytes.resize(bytes.len() + body_len, 0);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    fn load_crafted(tag: &str, m: u64, n: u64, body_len: usize) -> io::Error {
        let path = crafted(tag, m, n, body_len);
        let err = load(&path).unwrap_err();
        let _ = std::fs::remove_file(path);
        err
    }

    #[test]
    fn load_refuses_a_header_larger_than_the_file() {
        // 2^40 bytes of genotypes claimed by a 20-byte file: refused
        // before anything is sized from the header
        let err = load_crafted("huge", 1 << 20, 1 << 20, 0);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("file length 20"), "{err}");
    }

    #[test]
    fn load_refuses_a_header_whose_size_overflows() {
        let err = load_crafted("overflow", u64::MAX, 3, 0);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = load_crafted("overflow_n", 1, u64::MAX, 0);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_refuses_zero_samples() {
        // M x 0 + 0 matches a bare header for any M
        let err = load_crafted("nosamples", 1 << 40, 0, 0);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("no samples"), "{err}");
    }

    #[test]
    fn load_refuses_a_truncated_body_and_trailing_bytes() {
        // 3 x 4 needs 12 genotype + 4 label bytes
        for (tag, body) in [("short", 15), ("long", 17)] {
            let err = load_crafted(tag, 3, 4, body);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{tag}");
        }
        let path = crafted("exact", 3, 4, 16);
        let (g, p) = load(&path).unwrap();
        let _ = std::fs::remove_file(path);
        assert_eq!((g.num_snps(), g.num_samples(), p.num_cases()), (3, 4, 0));
    }

    #[test]
    fn read_binary_refuses_truncation_trailing_bytes_and_bad_values() {
        let (g, p) = demo();
        let mut buf = Vec::new();
        write_binary(&mut buf, &g, &p).unwrap();
        let err = read_binary(&buf[..buf.len() - 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut long = buf.clone();
        long.push(0);
        assert_eq!(
            read_binary(&long[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // a lying header on a short stream fails without sizing a buffer
        let mut lying = buf[..20].to_vec();
        lying[4..12].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(read_binary(&lying[..]).is_err());
        let mut bad = buf.clone();
        bad[20] = 3;
        assert_eq!(
            read_binary(&bad[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let last = bad.len() - 1;
        bad[20] = 0;
        bad[last] = 2;
        assert_eq!(
            read_binary(&bad[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn text_rejects_ragged_rows() {
        let err = read_text(&b"0,1,2\n0,1\n0,0,1\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn text_rejects_bad_genotype() {
        let err = read_text(&b"0,3\n0,1\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn text_rejects_bad_phenotype() {
        let err = read_text(&b"0,1\n0,2\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn text_rejects_a_short_phenotype_row_and_a_lone_row() {
        let err = read_text(&b"0,1,2\n0,1\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = read_text(&b"0,1,2\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn sniffing_load_roundtrips_both_formats() {
        let d = DatasetSpec::noise(4, 10, 1).generate();
        let dir = std::env::temp_dir();
        let tp = dir.join("epi3_test_text.csv");
        let bp = dir.join("epi3_test_bin.epi3");
        save_text(&tp, &d).unwrap();
        save_binary(&bp, &d).unwrap();
        let (gt, _) = load(&tp).unwrap();
        let (gb, _) = load(&bp).unwrap();
        assert_eq!(gt, d.genotypes);
        assert_eq!(gb, d.genotypes);
        let _ = std::fs::remove_file(tp);
        let _ = std::fs::remove_file(bp);
    }
}
