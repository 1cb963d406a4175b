//! Second-level sub-partitioning for out-of-core Step 2.
//!
//! When one partition's projected Property-1 table exceeds the memory
//! budget (the skew case Kundeti et al. address out of core), the
//! partition's superkmer records are split by a **second-level minimizer
//! hash** into `fanout` sub-partitions, each small enough to build
//! alone. Correctness rests on the same invariant first-level routing
//! uses: every copy of a canonical k-mer shares one canonical minimizer,
//! and a superkmer record carries exactly the k-mers whose minimizer is
//! the record's minimizer — so routing whole records by (a remix of)
//! that minimizer's hash collocates all copies of each vertex in one
//! sub-partition. Sub-tables are therefore key-disjoint and each holds
//! its vertices' *complete* counts and edges; concatenating their
//! entries and letting the canonical sorted subgraph encoding order them
//! reproduces the unsplit build byte for byte.
//!
//! The remix matters: within first-level partition `i` every minimizer
//! hash is congruent to `i` modulo the partition count, so reducing the
//! *same* hash again would send the whole partition to one sub-bucket.
//! [`sub_route`] runs the hash through an avalanching finalizer first,
//! making the second-level bucket independent of the first-level
//! residue.
//!
//! Sub-partitions reuse the CRC-framed record format
//! ([`append_frame`](crate::append_frame)) — a sub-partition buffer is a
//! valid partition file, so the whole Step-2 build path (zero-copy view
//! indexing included) applies unchanged.

use dna::Kmer;

use crate::frame::{append_frame, frame_payloads_in, DEFAULT_FRAME_TARGET};
use crate::minimizer::{minimizer_of_kmer, minimizer_word_of_first_kmer};
use crate::view::SuperkmerView;
use crate::{MspError, Result};

/// One sub-partition produced by [`split_framed`]: a CRC-framed record
/// buffer plus the tallies Step 2 needs to size its table.
#[derive(Debug, Default, Clone)]
pub struct SubPartition {
    /// CRC-framed superkmer records — the same on-disk format as a
    /// first-level partition file.
    pub bytes: Vec<u8>,
    /// Superkmers routed here, every copy of a weighted record counted.
    pub superkmers: u64,
    /// Total k-mer occurrences across those records (drives the §IV-A
    /// table sizing for the sub-build).
    pub kmers: u64,
}

/// Second-level bucket for a minimizer: an avalanched remix of the
/// minimizer hash, reduced modulo `fanout`.
///
/// The remix (the 64-bit murmur3/splitmix finalizer) decorrelates the
/// result from `hash64 % partitions`, which first-level routing already
/// fixed to a single residue for every minimizer in the partition.
///
/// # Panics
///
/// Panics if `fanout` is zero.
pub fn sub_route(minimizer: &Kmer, fanout: usize) -> usize {
    assert!(fanout > 0, "sub-partition fanout must be at least 1");
    route_hash(minimizer.hash64(), fanout)
}

/// [`sub_route`] given the minimizer's [`Kmer::hash64`] value.
fn route_hash(mut x: u64, fanout: usize) -> usize {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    (x % fanout as u64) as usize
}

/// Splits one CRC-framed partition buffer into `fanout` sub-partitions
/// by the second-level minimizer hash.
///
/// Every record keeps its exact encoded bytes — a weighted record its
/// weight — and its relative order among the records of its
/// sub-partition; only the grouping changes.
/// `partition` is the first-level index, used for error attribution
/// (frame faults surface as that partition's corruption).
///
/// The per-record minimizer is recomputed from the record's first k-mer
/// (records do not store it), which is valid because a superkmer's minimizer is by construction the
/// canonical minimizer of each of its k-mers, the first included. For
/// `p ≤ 32` that is one rolling pass over the record's first `k` packed
/// codes (two `u64`s, no `Kmer` built); `p > 32` takes the brute-force
/// [`minimizer_of_kmer`], which routes every record identically.
///
/// # Errors
///
/// Returns [`MspError::CorruptRecord`] if the buffer fails frame
/// verification or a record is malformed.
pub fn split_framed(
    bytes: &[u8],
    k: usize,
    p: usize,
    fanout: usize,
    partition: usize,
) -> Result<Vec<SubPartition>> {
    split_framed_routed(bytes, k, p, fanout, partition, p <= 32)
}

/// [`split_framed`] with the router chosen by the caller: the rolling
/// pass (`p ≤ 32` only) or the brute-force [`minimizer_of_kmer`].
fn split_framed_routed(
    bytes: &[u8],
    k: usize,
    p: usize,
    fanout: usize,
    partition: usize,
    rolling: bool,
) -> Result<Vec<SubPartition>> {
    assert!(fanout > 0, "sub-partition fanout must be at least 1");
    if p < 1 || p > k || k > dna::MAX_K {
        return Err(MspError::InvalidParams { k, p });
    }
    debug_assert!(!rolling || p <= 32, "the rolling router needs p <= 32");
    let mut subs = vec![SubPartition::default(); fanout];
    // Pending whole-record buffers, flushed into frames at the same
    // threshold the Step-1 writer uses so sub-partition files look like
    // ordinary partition files.
    let mut pending: Vec<Vec<u8>> = vec![Vec::new(); fanout];
    let mut base_offset = 0u64;
    for payload in frame_payloads_in(bytes, Some(partition))? {
        let mut offset = 0;
        while offset < payload.len() {
            let (view, consumed) =
                SuperkmerView::parse(&payload[offset..], k).map_err(|e| relocate(e, base_offset))?;
            let sub = if rolling {
                let word = minimizer_word_of_first_kmer(view.code_words(), k, p);
                route_hash(Kmer::hash64_of_words(&[word, 0, 0, 0], p), fanout)
            } else {
                let first = Kmer::from_bases(k, view.bases().take(k)).map_err(|e| {
                    MspError::CorruptRecord {
                        offset: base_offset + offset as u64,
                        reason: format!("undecodable first k-mer: {e}"),
                    }
                })?;
                sub_route(&minimizer_of_kmer(&first, p), fanout)
            };
            pending[sub].extend_from_slice(&payload[offset..offset + consumed]);
            if pending[sub].len() >= DEFAULT_FRAME_TARGET {
                append_frame(&mut subs[sub].bytes, &pending[sub]);
                pending[sub].clear();
            }
            subs[sub].superkmers += u64::from(view.weight());
            subs[sub].kmers += view.kmer_count() as u64 * u64::from(view.weight());
            offset += consumed;
        }
        base_offset += payload.len() as u64;
    }
    for (sub, buf) in subs.iter_mut().zip(&pending) {
        append_frame(&mut sub.bytes, buf);
    }
    Ok(subs)
}

/// Re-attributes a record-parse error to its absolute position in the
/// original partition stream (parse offsets are frame-relative).
fn relocate(e: MspError, base: u64) -> MspError {
    match e {
        MspError::CorruptRecord { offset, reason } => {
            MspError::CorruptRecord { offset: base + offset, reason }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::records_of;
    use crate::{encode_superkmer_slice, PartitionSlices};
    use dna::{Base, Kmer, PackedSeq};

    const K: usize = 7;
    const P: usize = 3;

    fn lcg_read(seed: u64, len: usize) -> PackedSeq {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut read = PackedSeq::new();
        for _ in 0..len {
            state =
                state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            read.push(Base::from_code(((state >> 33) & 3) as u8));
        }
        read
    }

    /// Builds a framed buffer of superkmer records from random reads,
    /// returning the framed bytes and each record's encoding.
    fn framed_corpus(seed: u64, reads: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut records = Vec::new();
        let mut framed = Vec::new();
        let mut pending = Vec::new();
        for r in 0..reads {
            let read = lcg_read(seed + r as u64, 40);
            for (_, rec, _) in records_of(&read, K, P) {
                pending.extend_from_slice(&rec);
                records.push(rec);
            }
        }
        append_frame(&mut framed, &pending);
        (framed, records)
    }

    fn record_multiset(bufs: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut all = Vec::new();
        for buf in bufs {
            for payload in frame_payloads_in(buf, None).unwrap() {
                let mut offset = 0;
                while offset < payload.len() {
                    let (_, consumed) = SuperkmerView::parse(&payload[offset..], K).unwrap();
                    all.push(payload[offset..offset + consumed].to_vec());
                    offset += consumed;
                }
            }
        }
        all.sort();
        all
    }

    #[test]
    fn fanout_one_is_identity_in_content() {
        let (framed, records) = framed_corpus(7, 20);
        let subs = split_framed(&framed, K, P, 1, 0).unwrap();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].superkmers, records.len() as u64);
        let mut expect: Vec<Vec<u8>> = records;
        expect.sort();
        assert_eq!(record_multiset(&[&subs[0].bytes]), expect);
    }

    #[test]
    fn split_partitions_records_exactly() {
        let (framed, records) = framed_corpus(11, 60);
        for fanout in [2usize, 3, 8] {
            let subs = split_framed(&framed, K, P, fanout, 0).unwrap();
            assert_eq!(subs.len(), fanout);
            let total_sk: u64 = subs.iter().map(|s| s.superkmers).sum();
            assert_eq!(total_sk, records.len() as u64, "fanout {fanout}");
            // Union of sub-partitions == original record multiset.
            let bufs: Vec<&[u8]> = subs.iter().map(|s| s.bytes.as_slice()).collect();
            let mut expect = records.clone();
            expect.sort();
            assert_eq!(record_multiset(&bufs), expect, "fanout {fanout}");
            // Empty sub-partitions produce empty buffers, not empty frames.
            for sub in &subs {
                assert_eq!(sub.bytes.is_empty(), sub.superkmers == 0);
            }
        }
    }

    #[test]
    fn kmer_tallies_are_preserved() {
        let (framed, _) = framed_corpus(23, 40);
        let mut expect = 0u64;
        for payload in frame_payloads_in(&framed, None).unwrap() {
            expect += PartitionSlices::index(payload, K, P).unwrap().total_kmers() as u64;
        }
        let subs = split_framed(&framed, K, P, 4, 0).unwrap();
        assert_eq!(subs.iter().map(|s| s.kmers).sum::<u64>(), expect);
    }

    /// A weighted record keeps its weight through the split, and the
    /// sub-partition tallies count its copies: a partition combined by
    /// the store splits into the counts of its uncombined twin.
    #[test]
    fn weighted_records_split_with_their_copies() {
        let (framed, _) = framed_corpus(29, 30);
        let twice: Vec<u8> = [&framed[..], &framed].concat();
        // Every record twice in one raw buffer, combined into one frame.
        let raw = frame_payloads_in(&twice, None).unwrap().concat();
        let (mut collapse, mut frame) = (crate::RecordCollapse::default(), Vec::new());
        for &(at, weight) in collapse.collapse_bytes(&raw, K).unwrap() {
            let key = crate::view::RecordKey::at(&raw[at as usize..]);
            crate::record::write_record(&key, weight, &mut frame);
        }
        assert!(frame.len() < raw.len(), "nothing combined");
        let mut combined = Vec::new();
        append_frame(&mut combined, &frame);
        let want = split_framed(&twice, K, P, 4, 0).unwrap();
        let got = split_framed(&combined, K, P, 4, 0).unwrap();
        for (w, g) in want.iter().zip(&got) {
            assert_eq!((g.superkmers, g.kmers), (w.superkmers, w.kmers));
            let slices = PartitionSlices::index_framed(&g.bytes, K, P).unwrap();
            assert_eq!(slices.total_kmers() as u64, w.kmers);
        }
    }

    #[test]
    fn routing_is_deterministic_and_minimizer_pure() {
        let (framed, _) = framed_corpus(31, 30);
        let a = split_framed(&framed, K, P, 4, 0).unwrap();
        let b = split_framed(&framed, K, P, 4, 0).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bytes, y.bytes);
        }
        // Records sharing a minimizer land together: verify by routing
        // each record's recomputed minimizer directly.
        for (idx, sub) in a.iter().enumerate() {
            for payload in frame_payloads_in(&sub.bytes, None).unwrap() {
                for view in PartitionSlices::index(payload, K, P).unwrap().iter() {
                    let first = Kmer::from_bases(K, view.bases().take(K)).unwrap();
                    assert_eq!(sub_route(&minimizer_of_kmer(&first, P), 4), idx);
                }
            }
        }
    }

    /// The rolling router against the brute-force reference, on random
    /// records, and `split_framed` itself through both routers.
    #[test]
    fn rolling_route_matches_brute_force() {
        for k in [15usize, 27, 31, 32] {
            for p in [1usize, 7, 11, 32] {
                if p > k {
                    continue;
                }
                let mut framed = Vec::new();
                let mut pending = Vec::new();
                let mut want = Vec::new();
                for seed in 0..40u64 {
                    // Cores from exactly k bases up to several words long.
                    let core = lcg_read(seed * 131 + (k * 37 + p) as u64, k + (seed as usize * 7) % 90);
                    let last = core.len() - k;
                    let at = pending.len();
                    encode_superkmer_slice(&core, 0, last, k, None, Some(Base::G), &mut pending);
                    // The record's first k-mer, in the orientation it was
                    // stored in.
                    let (view, _) = SuperkmerView::parse(&pending[at..], k).unwrap();
                    let first = Kmer::from_bases(k, view.bases().take(k)).unwrap();
                    want.push(sub_route(&minimizer_of_kmer(&first, p), 5));
                }
                append_frame(&mut framed, &pending);
                for payload in frame_payloads_in(&framed, None).unwrap() {
                    let slices = PartitionSlices::index(payload, k, p).unwrap();
                    for (view, want) in slices.iter().zip(&want) {
                        let word = minimizer_word_of_first_kmer(view.code_words(), k, p);
                        let got = route_hash(Kmer::hash64_of_words(&[word, 0, 0, 0], p), 5);
                        assert_eq!(got, *want, "k={k} p={p}");
                    }
                }
                let scalar = split_framed_routed(&framed, k, p, 5, 0, false).unwrap();
                let rolled = split_framed(&framed, k, p, 5, 0).unwrap();
                for (a, b) in scalar.iter().zip(&rolled) {
                    assert_eq!(a.bytes, b.bytes, "k={k} p={p}");
                    assert_eq!((a.superkmers, a.kmers), (b.superkmers, b.kmers), "k={k} p={p}");
                }
            }
        }
    }

    #[test]
    fn sub_route_spreads_within_a_first_level_partition() {
        // All minimizers whose hash is ≡ r (mod n) — i.e. one first-level
        // partition — must still spread across sub-buckets, the entire
        // point of the remix.
        let n = 8u64;
        let mut seen = vec![false; 4];
        let mut kmer_bits = 0u64;
        let mut tried = 0;
        while tried < 20_000 && seen.iter().any(|s| !s) {
            kmer_bits = kmer_bits.wrapping_add(0x9E37_79B9);
            let bases: Vec<Base> =
                (0..P).map(|i| Base::from_code(((kmer_bits >> (2 * i)) & 3) as u8)).collect();
            let m = Kmer::from_bases(P, bases).unwrap();
            if m.hash64() % n == 3 {
                seen[sub_route(&m, 4)] = true;
            }
            tried += 1;
        }
        assert!(seen.iter().all(|s| *s), "remixed routing failed to spread: {seen:?}");
    }

    #[test]
    fn corrupt_frame_is_attributed_to_the_partition() {
        let (mut framed, _) = framed_corpus(5, 10);
        let mid = framed.len() / 2;
        framed[mid] ^= 0xFF;
        let err = split_framed(&framed, K, P, 2, 9).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("partition 9"), "unexpected error: {msg}");
    }
}
