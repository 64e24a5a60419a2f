//! Durable coordinator state: the `FederationCheckpoint` codec.
//!
//! After every merge batch the coordinator spools what it would lose in
//! a crash: the pinned sub-job spec, the set of globally merged shards,
//! the live per-node assignments, per-node merge attribution, and the
//! harvested top-K (scores in the exact `f64::to_bits` hex candidate
//! codec of [`epi_server::record`], shared with the wire protocol and
//! the server-side job checkpoint, so a resume is bit-identical — not
//! approximately equal). `epi3 federate --resume <spool>` rebuilds a
//! `Run` from this: merged shards are never rescanned, still-running
//! sub-jobs are adopted by job id, and only the genuinely unfinished
//! remainder is resubmitted.
//!
//! The file is framed and spooled by [`epi_server::record`]: a trailing
//! `end` sentinel makes truncation detectable, and the verified
//! rotation (tmp, read back, rotate last-good to `.prev`, rename) means
//! that under any sequence of disk faults loading returns the last
//! checkpoint whose save succeeded.

use epi_core::result::Candidate;
use epi_core::shard::ShardSet;
use epi_server::record::{self, CandToken};
use epi_server::JobSpec;
use std::fmt::Write as _;

const MAGIC: &str = "epi3fedckpt v1";

/// One sub-job assignment as spooled: which node, which server-side job
/// id, what it owns, and what of that has already been merged globally.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointAssignment {
    pub node: String,
    pub job_id: u64,
    pub owned: ShardSet,
    pub done: ShardSet,
}

/// Everything a killed coordinator needs to continue bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct FederationCheckpoint {
    /// The sub-job template, including the pinned `dataset_hash=`.
    pub spec: JobSpec,
    /// Shards of the global plan already merged into `top`.
    pub merged: ShardSet,
    /// Merge attribution per node address (report continuity).
    pub node_merged: Vec<(String, u64)>,
    /// Assignments that were active at spool time.
    pub assignments: Vec<CheckpointAssignment>,
    /// Harvested top-K so far (sorted, bit-exact scores).
    pub top: Vec<Candidate>,
}

/// Compact `ShardSet` with a `-` sentinel for the empty set (an empty
/// compact form would vanish between the space-separated fields).
fn set_token(s: &ShardSet) -> String {
    if s.is_empty() {
        "-".into()
    } else {
        s.to_compact()
    }
}

fn parse_set(tok: &str) -> Result<ShardSet, String> {
    if tok == "-" {
        Ok(ShardSet::new())
    } else {
        ShardSet::parse_compact(tok)
    }
}

impl FederationCheckpoint {
    /// Serialize to the on-disk bytes.
    pub fn encode(&self) -> Vec<u8> {
        record::encode(MAGIC, |w| {
            writeln!(w, "spec {}", self.spec.to_tokens())?;
            writeln!(w, "merged {}", set_token(&self.merged))?;
            for (addr, n) in &self.node_merged {
                writeln!(w, "node {} {n}", epi_server::escape(addr))?;
            }
            for a in &self.assignments {
                writeln!(
                    w,
                    "assign {} {} {} {}",
                    epi_server::escape(&a.node),
                    a.job_id,
                    set_token(&a.owned),
                    set_token(&a.done),
                )?;
            }
            for c in &self.top {
                writeln!(w, "cand {}", CandToken(c))?;
            }
            Ok(())
        })
    }

    /// Parse the on-disk bytes (inverse of [`FederationCheckpoint::encode`]).
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut spec: Option<JobSpec> = None;
        let mut merged: Option<ShardSet> = None;
        let mut node_merged = Vec::new();
        let mut assignments = Vec::new();
        let mut top = Vec::new();
        for (kind, rest) in record::read_records(bytes, MAGIC)? {
            match kind {
                "spec" => {
                    let tokens: Vec<&str> = rest.split_whitespace().collect();
                    spec = Some(JobSpec::parse_tokens(&tokens)?);
                }
                "merged" => merged = Some(parse_set(rest)?),
                "node" => {
                    let mut parts = rest.split_whitespace();
                    let addr = parts.next().ok_or("node line: missing addr")?;
                    let count = record::field(parts.next(), "node merge count")?;
                    node_merged.push((epi_server::unescape(addr)?, count));
                }
                "assign" => {
                    let mut parts = rest.split_whitespace();
                    let mut next = || parts.next().ok_or("assign line: missing field");
                    let node = epi_server::unescape(next()?)?;
                    let job_id = record::field(Some(next()?), "assign job id")?;
                    let owned = parse_set(next()?)?;
                    let done = parse_set(next()?)?;
                    assignments.push(CheckpointAssignment {
                        node,
                        job_id,
                        owned,
                        done,
                    });
                }
                "cand" => top.push(record::parse_candidate(rest)?),
                other => return Err(format!("unknown checkpoint line kind {other:?}")),
            }
        }
        Ok(Self {
            spec: spec.ok_or("checkpoint missing spec line")?,
            merged: merged.ok_or("checkpoint missing merged line")?,
            node_merged,
            assignments,
            top,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epi_server::RealSpoolFs;

    fn sample() -> FederationCheckpoint {
        let mut spec = JobSpec::new("/data/with space/x.epi3");
        spec.shards = 16;
        spec.top_k = 8;
        spec.dataset_hash = Some(0xdead_beef_0123_4567);
        FederationCheckpoint {
            spec,
            merged: ShardSet::from_indices([0, 1, 2, 5, 9]),
            node_merged: vec![("127.0.0.1:7001".into(), 3), ("127.0.0.1:7002".into(), 2)],
            assignments: vec![
                CheckpointAssignment {
                    node: "127.0.0.1:7001".into(),
                    job_id: 4,
                    owned: ShardSet::from_range(0..8),
                    done: ShardSet::from_indices([0, 1, 2, 5]),
                },
                CheckpointAssignment {
                    node: "127.0.0.1:7002".into(),
                    job_id: 2,
                    owned: ShardSet::from_range(8..16),
                    done: ShardSet::from_indices([9]),
                },
            ],
            top: vec![
                Candidate {
                    score: 12.5,
                    triple: (2, 7, 11),
                },
                Candidate {
                    score: 13.25,
                    triple: (0, 1, 2),
                },
            ],
        }
    }

    fn roundtrip(ck: &FederationCheckpoint) -> FederationCheckpoint {
        FederationCheckpoint::decode(&ck.encode()).unwrap()
    }

    fn assert_bit_identical(a: &FederationCheckpoint, b: &FederationCheckpoint) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.merged, b.merged);
        assert_eq!(a.node_merged, b.node_merged);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.top.len(), b.top.len());
        for (x, y) in a.top.iter().zip(&b.top) {
            assert_eq!(x.triple, y.triple);
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "score bits of {:?}",
                x.triple
            );
        }
    }

    #[test]
    fn encodes_the_v1_bytes() {
        // golden bytes: spools written before the shared record layer
        // must keep resuming, so the encoding may not drift
        let want = "epi3fedckpt v1\n\
            spec path=/data/with%20space/x.epi3 version=v5 shards=16 top=8 \
            dataset_hash=deadbeef01234567\n\
            merged 0-2,5,9\n\
            node 127.0.0.1:7001 3\n\
            node 127.0.0.1:7002 2\n\
            assign 127.0.0.1:7001 4 0-7 0-2,5\n\
            assign 127.0.0.1:7002 2 8-15 9\n\
            cand 2 7 11 4029000000000000\n\
            cand 0 1 2 402a800000000000\n\
            end\n";
        assert_eq!(String::from_utf8(sample().encode()).unwrap(), want);
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let ck = sample();
        assert_bit_identical(&ck, &roundtrip(&ck));
    }

    #[test]
    fn non_finite_and_signed_zero_scores_roundtrip_bit_for_bit() {
        // the exact score set the server-side codec pins, reused here:
        // every one of these breaks a decimal-text codec
        let scores = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN payload
            f64::from_bits(0xfff0_0000_0000_0001), // signalling-ish NaN
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0, // subnormal
        ];
        let mut ck = sample();
        ck.top = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| Candidate {
                score: s,
                triple: (i as u32, i as u32 + 1, i as u32 + 2),
            })
            .collect();
        assert_bit_identical(&ck, &roundtrip(&ck));
    }

    #[test]
    fn empty_and_full_shard_sets_roundtrip() {
        let mut ck = sample();
        // empty everything: a checkpoint taken before the first merge
        ck.merged = ShardSet::new();
        ck.assignments[0].done = ShardSet::new();
        ck.top = Vec::new();
        assert_bit_identical(&ck, &roundtrip(&ck));
        // full everything: a checkpoint taken at the finish line
        ck.merged = ShardSet::from_range(0..16);
        ck.assignments[0].done = ck.assignments[0].owned.clone();
        ck.assignments[1].done = ck.assignments[1].owned.clone();
        assert_bit_identical(&ck, &roundtrip(&ck));
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let text = String::from_utf8(sample().encode()).unwrap();
        // cut anywhere before the end sentinel: clean error, never a
        // silently shorter checkpoint
        for cut in [text.len() - 5, text.len() / 2, MAGIC.len() + 1] {
            let err = FederationCheckpoint::decode(&text.as_bytes()[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
        assert!(FederationCheckpoint::decode(b"not a checkpoint\n").is_err());
        assert!(FederationCheckpoint::decode(b"").is_err());
    }

    #[test]
    fn save_rotates_and_load_falls_back_to_last_good_checkpoint() {
        let dir = std::env::temp_dir().join(format!("epi_fedckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("federation.ckpt");
        let fs = RealSpoolFs;
        let load = || record::load(&fs, &path, FederationCheckpoint::decode);

        let mut first = sample();
        first.merged = ShardSet::from_indices([0, 1]);
        record::save(&fs, &path, &first.encode()).unwrap();
        assert_bit_identical(&load().unwrap(), &first);

        let mut second = sample();
        second.merged = ShardSet::from_indices([0, 1, 2, 3]);
        record::save(&fs, &path, &second.encode()).unwrap();
        assert_bit_identical(&load().unwrap(), &second);

        // simulate a crash mid-write of a third checkpoint: the primary
        // is torn, the rotated .prev still holds the last good state
        let torn = second.encode();
        let torn = &torn[..torn.len() - 7]; // lose the end sentinel
        std::fs::write(&path, torn).unwrap();
        assert_bit_identical(&load().unwrap(), &first); // .prev = the first save

        // with both torn, the error reports the primary's problem
        std::fs::write(record::rotation_paths(&path).1, b"garbage\n").unwrap();
        let err = load().unwrap_err();
        assert!(err.contains("truncated"), "unhelpful error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
