//! Checkpoint codec: a tiny std-only, line-oriented serialization of a
//! job's spec and completed shard results, framed and spooled by
//! [`crate::record`].
//!
//! Scores are stored as the hex of `f64::to_bits` ([`record::CandToken`]),
//! so a resumed or transferred job reproduces results
//! **bit-identically** — the ordering guarantees of `TopK` depend on
//! exact score values, and a lossy decimal round-trip would break them.
//!
//! Format (one record per line, space-separated, values `%`-escaped):
//!
//! ```text
//! epi3ckpt v1
//! job <id>
//! spec <key=value tokens...>
//! snps <snp-count>
//! shard <index> <candidate-count>
//! cand <i0> <i1> <i2> <score-bits-hex>
//! ...
//! end
//! ```

use crate::job::{Job, JobState};
use crate::record::{self, CandToken};
use crate::spec::JobSpec;
use epi_core::result::Candidate;
use epi_core::shard::ShardPlan;
use std::fmt::Write as _;

const MAGIC: &str = "epi3ckpt v1";

/// A checkpoint: everything needed to resume a job except the dataset
/// itself (reloaded from `spec.path`).
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    pub job_id: u64,
    pub spec: JobSpec,
    /// SNP count of the dataset the shard plan was derived from. Stored
    /// so a restore rebuilds the identical plan without touching the
    /// dataset file (which may be temporarily unavailable).
    pub snps: usize,
    /// Completed shard results, indexed by shard; `None` = not scanned.
    pub shard_results: Vec<Option<Vec<Candidate>>>,
}

impl Checkpoint {
    /// Snapshot a job's durable state.
    pub fn of_job(job: &Job) -> Self {
        Self {
            job_id: job.id,
            spec: job.spec.clone(),
            snps: job.plan.num_snps(),
            shard_results: job.shard_results.clone(),
        }
    }

    /// Rebuild a `Job` in `Cancelled` state (resume re-enqueues the
    /// missing shards); `Done` if nothing is missing. A fresh SUBMIT
    /// builds its job the same way, from a checkpoint with no shard
    /// scanned, and the engine's admission then puts it to work.
    pub fn into_job(self) -> Job {
        let plan = ShardPlan::triples(self.snps, self.spec.shards);
        let complete = self.shard_results.iter().all(|r| r.is_some());
        let fail_partial_left = self.spec.fail_partial;
        let mut job = Job {
            id: self.job_id,
            spec: self.spec,
            plan,
            state: if complete {
                JobState::Done
            } else {
                JobState::Cancelled
            },
            shard_results: self.shard_results,
            in_flight: Default::default(),
            data: None,
            error: None,
            ckpt_seq: 0,
            dataset_hash: None,
            fail_partial_left,
            // restored jobs carry no deadline or memory charge until
            // RESUME re-admits them through the accountant
            deadline: None,
            mem_charge: 0,
        };
        if job.shard_results.len() as u64 != job.plan.num_shards() {
            job.state = JobState::Failed;
            job.error = Some(format!(
                "checkpoint has {} shards but plan expects {}",
                job.shard_results.len(),
                job.plan.num_shards()
            ));
        }
        job
    }

    /// Serialize to the on-disk bytes.
    pub fn encode(&self) -> Vec<u8> {
        record::encode(MAGIC, |w| {
            writeln!(w, "job {}", self.job_id)?;
            writeln!(w, "spec {}", self.spec.to_tokens())?;
            writeln!(w, "snps {}", self.snps)?;
            for (idx, result) in self.shard_results.iter().enumerate() {
                let Some(cands) = result else { continue };
                writeln!(w, "shard {idx} {}", cands.len())?;
                for c in cands {
                    writeln!(w, "cand {}", CandToken(c))?;
                }
            }
            Ok(())
        })
    }

    /// Deserialize (inverse of [`Checkpoint::encode`]). Every buffer
    /// grows only by records actually read, so a corrupt count can
    /// neither overflow nor exhaust memory.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let (mut job_id, mut spec, mut snps) = (None, None, None);
        // (index, declared candidate count, candidates read)
        let mut shards: Vec<(usize, usize, Vec<Candidate>)> = Vec::new();
        for (kind, rest) in record::read_records(bytes, MAGIC)? {
            match kind {
                "job" => job_id = Some(record::field(Some(rest), "job id")?),
                "spec" => {
                    let tokens: Vec<&str> = rest.split_whitespace().collect();
                    spec = Some(JobSpec::parse_tokens(&tokens)?);
                }
                "snps" => snps = Some(record::field(Some(rest), "snp count")?),
                "shard" => {
                    let mut f = rest.split_whitespace();
                    let idx = record::field(f.next(), "shard index")?;
                    let count = record::field(f.next(), "candidate count")?;
                    shards.push((idx, count, Vec::new()));
                }
                "cand" => {
                    let (_, count, cands) =
                        shards.last_mut().ok_or("cand record before any shard")?;
                    if cands.len() == *count {
                        return Err("shard holds more candidates than it declares".into());
                    }
                    cands.push(record::parse_candidate(rest)?);
                }
                other => return Err(format!("unexpected record kind {other:?}")),
            }
        }
        let spec: JobSpec = spec.ok_or("checkpoint missing spec record")?;
        let mut shard_results: Vec<Option<Vec<Candidate>>> =
            vec![None; usize::try_from(spec.shards).map_err(|_| "shard count overflow")?];
        for (idx, count, cands) in shards {
            if cands.len() != count {
                return Err(format!(
                    "shard {idx} declares {count} candidates, holds {}",
                    cands.len()
                ));
            }
            let slot = shard_results
                .get_mut(idx)
                .ok_or_else(|| format!("shard index {idx} out of range"))?;
            if slot.replace(cands).is_some() {
                return Err(format!("duplicate shard record {idx}"));
            }
        }
        let snps = snps.ok_or("checkpoint missing snps record")?;
        if snps > ShardPlan::MAX_SNPS {
            return Err(format!(
                "snp count {snps} exceeds the plan limit {}",
                ShardPlan::MAX_SNPS
            ));
        }
        Ok(Self {
            job_id: job_id.ok_or("checkpoint missing job record")?,
            spec,
            snps,
            shard_results,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epi_core::scan::Version;

    fn sample_checkpoint() -> Checkpoint {
        let mut spec = JobSpec::new("/tmp/some data.epi3");
        spec.version = Version::V2;
        spec.shards = 4;
        spec.top_k = 2;
        Checkpoint {
            job_id: 17,
            spec,
            snps: 30,
            shard_results: vec![
                Some(vec![
                    Candidate {
                        score: -1.5,
                        triple: (0, 1, 2),
                    },
                    Candidate {
                        // awkward subnormal-ish value: exact bit round-trip required
                        score: std::f64::consts::PI * 1e-300,
                        triple: (3, 4, 5),
                    },
                ]),
                None,
                Some(vec![]),
                None,
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_bits() {
        let ck = sample_checkpoint();
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back, ck);
        let orig = ck.shard_results[0].as_ref().unwrap()[1].score;
        let restored = back.shard_results[0].as_ref().unwrap()[1].score;
        assert_eq!(orig.to_bits(), restored.to_bits());
    }

    #[test]
    fn non_finite_scores_roundtrip_bit_for_bit() {
        // The "exact f64 bits" claim must hold even for values decimal
        // formatting cannot represent at all: NaNs (including distinct
        // payload bits, which `==` can never check — NaN != NaN), both
        // infinities, and the two zeros (-0.0 == 0.0 yet differs in
        // sign bit). Compare raw bits, not values.
        let scores = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef), // quiet NaN, nonzero payload
            f64::from_bits(0xfff0_0000_0000_0001), // signalling-style NaN pattern
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0, // subnormal, while we're at it
        ];
        let cands: Vec<Candidate> = scores
            .iter()
            .enumerate()
            .map(|(i, &score)| Candidate {
                score,
                triple: (i as u32, i as u32 + 1, i as u32 + 2),
            })
            .collect();
        let mut spec = JobSpec::new("/tmp/nonfinite.epi3");
        spec.shards = 1;
        let ck = Checkpoint {
            job_id: 99,
            spec,
            snps: 12,
            shard_results: vec![Some(cands)],
        };
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        let restored = back.shard_results[0].as_ref().unwrap();
        assert_eq!(restored.len(), scores.len());
        for (got, want) in restored.iter().zip(&scores) {
            assert_eq!(
                got.score.to_bits(),
                want.to_bits(),
                "score {want:?} (bits {:016x}) corrupted to {:?} (bits {:016x})",
                want.to_bits(),
                got.score,
                got.score.to_bits()
            );
        }
        // sanity: the two NaNs with different payloads stayed distinct
        assert_ne!(restored[0].score.to_bits(), restored[2].score.to_bits());
        // and the signs of -0.0 / +0.0 survived even though they compare ==
        assert!(restored[6].score.is_sign_negative());
        assert!(restored[7].score.is_sign_positive());
    }

    #[test]
    fn encodes_the_v1_bytes() {
        // golden bytes: spools written before the shared record layer
        // must keep restoring, so the encoding may not drift
        let want = "epi3ckpt v1\n\
                    job 17\n\
                    spec path=/tmp/some%20data.epi3 version=v2 shards=4 top=2\n\
                    snps 30\n\
                    shard 0 2\n\
                    cand 0 1 2 bff8000000000000\n\
                    cand 3 4 5 01c0d4cab14b6bbf\n\
                    shard 2 0\n\
                    end\n";
        assert_eq!(
            String::from_utf8(sample_checkpoint().encode()).unwrap(),
            want
        );
    }

    #[test]
    fn rejects_corruption() {
        let ck = sample_checkpoint();
        let text = String::from_utf8(ck.encode()).unwrap();
        assert!(Checkpoint::decode(b"nope\n").is_err());
        let truncated = &text[..text.len() - 10];
        assert!(Checkpoint::decode(truncated.as_bytes()).is_err());
        let dup = text.replace("shard 2 0\n", "shard 0 0\n");
        assert!(Checkpoint::decode(dup.as_bytes()).is_err());
        // a count with no candidates behind it must fail cleanly, not
        // size a buffer from it
        let huge = text.replace("shard 2 0\n", "shard 2 4000000000000000000\n");
        assert!(Checkpoint::decode(huge.as_bytes()).is_err());
        let short = text.replace("shard 0 2\n", "shard 0 3\n");
        assert!(Checkpoint::decode(short.as_bytes()).is_err());
        let long = text.replace("shard 0 2\n", "shard 0 1\n");
        assert!(Checkpoint::decode(long.as_bytes()).is_err());
        // the snp count sizes the shard plan: bounded by the plan limit
        let max = ShardPlan::MAX_SNPS;
        let over = text.replace("snps 30\n", &format!("snps {}\n", max + 1));
        assert!(Checkpoint::decode(over.as_bytes()).is_err());
        let huge = text.replace("snps 30\n", &format!("snps {}\n", u64::MAX));
        assert!(Checkpoint::decode(huge.as_bytes()).is_err());
        let at = text.replace("snps 30\n", &format!("snps {max}\n"));
        assert_eq!(Checkpoint::decode(at.as_bytes()).unwrap().snps, max);
    }

    #[test]
    fn into_job_classifies_completeness() {
        let ck = sample_checkpoint();
        let job = ck.clone().into_job();
        assert_eq!(job.state, JobState::Cancelled);
        assert_eq!(job.missing_shards(), vec![1, 3]);
        let mut full = ck;
        for r in &mut full.shard_results {
            r.get_or_insert_with(Vec::new);
        }
        assert_eq!(full.into_job().state, JobState::Done);
    }
}
