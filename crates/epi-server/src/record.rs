//! The durable-record layer: everything the server's job checkpoint
//! ([`crate::codec`]), `epi_coord`'s federation checkpoint and the
//! RESULT/PARTIAL wire lines share.
//!
//! * **Candidate codec** — [`CandToken`] writes a candidate as
//!   `i0 i1 i2 <score-bits-hex>` and [`parse_candidate`] reads it back.
//!   The score travels as the hex of `f64::to_bits`, so a resumed,
//!   transferred or restored result reproduces `TopK` ordering
//!   bit-identically (a decimal round-trip would not).
//! * **Line records** — [`encode`] frames a body between a magic line
//!   and an `end` sentinel; [`read_records`] checks the magic, splits
//!   every line into `kind rest`, and refuses a file without the
//!   sentinel, so a truncated file is an error, never a shorter record.
//! * **Verified rotation** — [`save`] writes `<path>.tmp`, reads it back
//!   and compares the bytes, and only then rotates the primary to
//!   `<path>.prev` and renames the tmp into place; [`load`] tries the
//!   primary, then `.prev`. Both the primary and `.prev` only ever come
//!   from a verified tmp, so under any sequence of failed writes, torn
//!   writes that report success, and failed renames, [`load`] returns
//!   the last save that returned `Ok`.

use crate::spool::SpoolFs;
use epi_core::result::Candidate;
use std::fmt::{self, Write as _};
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Displays a candidate as `i0 i1 i2 <score-bits-hex>`.
pub struct CandToken<'a>(pub &'a Candidate);

impl fmt::Display for CandToken<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.0;
        write!(
            f,
            "{} {} {} {:016x}",
            c.triple.0,
            c.triple.1,
            c.triple.2,
            c.score.to_bits()
        )
    }
}

/// Parse the leading `i0 i1 i2 <score-bits-hex>` fields of `fields`
/// (trailing fields, such as RESULT's display score, are ignored).
pub fn parse_candidate(fields: &str) -> Result<Candidate, String> {
    let mut parts = fields.split_whitespace();
    let mut index = |what| field(parts.next(), what);
    let triple = (index("i0")?, index("i1")?, index("i2")?);
    let bits = parts
        .next()
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or_else(|| format!("bad score bits in candidate {fields:?}"))?;
    Ok(Candidate {
        score: f64::from_bits(bits),
        triple,
    })
}

/// Parse one whitespace-separated field of a record or wire line.
pub fn field<T: FromStr>(tok: Option<&str>, what: &str) -> Result<T, String> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("missing or malformed {what}"))
}

/// Frame the records `body` writes between the `magic` line and the
/// `end` sentinel.
pub fn encode(magic: &str, body: impl FnOnce(&mut String) -> fmt::Result) -> Vec<u8> {
    let mut out = String::new();
    // formatting into a String cannot fail
    let _ = writeln!(out, "{magic}")
        .and_then(|()| body(&mut out))
        .and_then(|()| writeln!(out, "end"));
    out.into_bytes()
}

/// The `(kind, rest)` records of a file [`encode`]d under `magic`.
/// Errors on a wrong magic line, a line without a `kind rest` split,
/// or a missing `end` sentinel; anything after the sentinel is ignored.
pub fn read_records<'a>(bytes: &'a [u8], magic: &str) -> Result<Vec<(&'a str, &'a str)>, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("record file is not UTF-8: {e}"))?;
    let mut lines = text.lines().map(str::trim_end);
    let first = lines.next().unwrap_or_default();
    if first != magic {
        return Err(format!("expected {magic:?} record file, got {first:?}"));
    }
    let mut records = Vec::new();
    for line in lines {
        if line == "end" {
            return Ok(records);
        }
        records.push(
            line.split_once(' ')
                .ok_or_else(|| format!("malformed record line {line:?}"))?,
        );
    }
    Err("truncated record file: missing end sentinel".into())
}

/// `(<path>.tmp, <path>.prev)`: the write-ahead copy and the rotated
/// last-good copy of a spooled record file.
pub fn rotation_paths(path: &Path) -> (PathBuf, PathBuf) {
    let sibling = |suffix: &str| {
        let mut p = path.as_os_str().to_owned();
        p.push(suffix);
        PathBuf::from(p)
    };
    (sibling(".tmp"), sibling(".prev"))
}

/// Durably replace `path` with `bytes` (see the module docs). On error
/// [`load`] still returns the last successful save.
pub fn save(fs: &dyn SpoolFs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs.create_dir_all(dir)?;
    }
    let (tmp, prev) = rotation_paths(path);
    fs.write(&tmp, bytes)?;
    if fs.read(&tmp)? != bytes {
        return Err(io::Error::other(format!(
            "read-back of {} differs from what was written",
            tmp.display()
        )));
    }
    match fs.rename(path, &prev) {
        // first save: nothing to rotate
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    fs.rename(&tmp, path)
}

/// Decode `path`, falling back to `<path>.prev`; when both fail the
/// error is the primary's.
pub fn load<T>(
    fs: &dyn SpoolFs,
    path: &Path,
    decode: impl Fn(&[u8]) -> Result<T, String>,
) -> Result<T, String> {
    let read = |p: &Path| {
        let bytes = fs
            .read(p)
            .map_err(|e| format!("read {}: {e}", p.display()))?;
        decode(&bytes)
    };
    read(path).or_else(|primary_err| read(&rotation_paths(path).1).map_err(|_| primary_err))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spool::FaultySpoolFs;

    #[test]
    fn candidate_token_roundtrips_and_ignores_trailing_fields() {
        let c = Candidate {
            score: -0.0,
            triple: (3, 4, 5),
        };
        let token = CandToken(&c).to_string();
        assert_eq!(token, "3 4 5 8000000000000000");
        let back = parse_candidate(&format!("{token} -0.000000")).unwrap();
        assert_eq!(back.triple, c.triple);
        assert_eq!(back.score.to_bits(), c.score.to_bits());
        for bad in ["", "1 2", "1 2 3", "1 2 x 0", "1 2 3 zz", "-1 2 3 0"] {
            assert!(parse_candidate(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn records_need_magic_and_end_sentinel() {
        let bytes = encode("magic v1", |w| writeln!(w, "kind a b"));
        assert_eq!(bytes, b"magic v1\nkind a b\nend\n");
        assert_eq!(
            read_records(&bytes, "magic v1").unwrap(),
            vec![("kind", "a b")]
        );
        assert!(read_records(&bytes, "magic v2").is_err());
        assert!(read_records(&bytes[..bytes.len() - 4], "magic v1").is_err());
        assert!(read_records(b"magic v1\nnospace\nend\n", "magic v1").is_err());
        assert!(read_records(b"", "magic v1").is_err());
        assert!(read_records(b"magic v1\n\xff\nend\n", "magic v1").is_err());
    }

    /// Under every seeded fault schedule, after every save, `load`
    /// returns exactly the bytes of the last save that returned `Ok`,
    /// or an error when none has.
    #[test]
    fn load_returns_the_last_ok_save_under_any_fault_schedule() {
        let dir = std::env::temp_dir().join(format!("epi-record-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ident = |b: &[u8]| -> Result<Vec<u8>, String> { Ok(b.to_vec()) };
        let mut faults = 0;
        for seed in 1..=200u64 {
            let path = dir.join(format!("seed-{seed}.rec"));
            let fs = FaultySpoolFs::seeded(seed);
            let mut last_ok: Option<Vec<u8>> = None;
            for save_no in 0..24u32 {
                // lengths vary so a torn write is never a valid copy
                let bytes =
                    format!("save {save_no} {}\n", "x".repeat(save_no as usize)).into_bytes();
                if save(&fs, &path, &bytes).is_ok() {
                    last_ok = Some(bytes);
                }
                match (&last_ok, load(&fs, &path, ident)) {
                    (Some(want), Ok(got)) => assert_eq!(&got, want, "seed {seed} save {save_no}"),
                    (None, Err(_)) => {}
                    (want, got) => panic!("seed {seed} save {save_no}: want {want:?}, got {got:?}"),
                }
            }
            faults += fs.faults_injected();
        }
        assert!(faults > 0, "no schedule injected a fault");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
