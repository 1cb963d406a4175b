use dna::{Kmer, PackedSeq};

use crate::{encode_superkmer_slice, MspError, Result, SuperkmerScanner};

/// Routes superkmers to partitions by minimizer hash.
///
/// The superkmer ID (the paper's term) is
/// `hash64(minimizer) mod num_partitions`; every duplicate of a vertex
/// shares its minimizer and therefore its partition.
///
/// # Examples
///
/// ```
/// use msp::PartitionRouter;
///
/// # fn main() -> msp::Result<()> {
/// let router = PartitionRouter::new(32)?;
/// let m: dna::Kmer = "ACGTT".parse().unwrap();
/// assert!(router.route_minimizer(&m) < 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionRouter {
    num_partitions: usize,
}

impl PartitionRouter {
    /// Creates a router over `num_partitions` partitions.
    ///
    /// # Errors
    ///
    /// Returns [`MspError::NoPartitions`] if `num_partitions == 0`.
    pub fn new(num_partitions: usize) -> Result<PartitionRouter> {
        if num_partitions == 0 {
            return Err(MspError::NoPartitions);
        }
        Ok(PartitionRouter { num_partitions })
    }

    /// The number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Partition index for a minimizer.
    #[inline]
    pub fn route_minimizer(&self, minimizer: &Kmer) -> usize {
        (minimizer.hash64() % self.num_partitions as u64) as usize
    }
}

/// Step 1 without the pipeline: scans every read, routes each superkmer
/// by its minimizer and encodes it, returning one buffer of raw
/// (unframed) records per partition — the same three calls per run as
/// the production emit path, on one thread with no disk files. Index a
/// buffer with [`PartitionSlices::index`](crate::PartitionSlices::index).
///
/// # Errors
///
/// Returns [`MspError::InvalidParams`] / [`MspError::NoPartitions`] for bad
/// parameters.
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use msp::PartitionSlices;
///
/// # fn main() -> msp::Result<()> {
/// let reads = vec![PackedSeq::from_ascii(b"TGATGGATGAACCAGT")];
/// let parts = msp::partition_in_memory(&reads, 5, 3, 8)?;
/// assert_eq!(parts.len(), 8);
/// let mut total = 0;
/// for part in &parts {
///     total += PartitionSlices::index(part, 5, 3)?.total_kmers();
/// }
/// assert_eq!(total, 16 - 5 + 1);
/// # Ok(())
/// # }
/// ```
pub fn partition_in_memory(
    reads: &[PackedSeq],
    k: usize,
    p: usize,
    num_partitions: usize,
) -> Result<Vec<Vec<u8>>> {
    let scanner = SuperkmerScanner::new(k, p)?;
    let router = PartitionRouter::new(num_partitions)?;
    let mut cursor = scanner.cursor();
    let mut parts = vec![Vec::new(); num_partitions];
    for read in reads {
        cursor.scan_runs(read, |first, last, minimizer| {
            let left_ext = first.checked_sub(1).map(|i| read.base(i));
            let right_ext = (last + k < read.len()).then(|| read.base(last + k));
            let part = &mut parts[router.route_minimizer(&minimizer)];
            encode_superkmer_slice(read, first, last, k, left_ext, right_ext, part);
        });
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{minimizer_of_kmer, PartitionSlices};
    use dna::Base;

    #[test]
    fn zero_partitions_rejected() {
        assert!(matches!(PartitionRouter::new(0), Err(MspError::NoPartitions)));
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let router = PartitionRouter::new(7).unwrap();
        let m: Kmer = "GATTA".parse().unwrap();
        let first = router.route_minimizer(&m);
        assert!(first < 7);
        for _ in 0..10 {
            assert_eq!(router.route_minimizer(&m), first);
        }
    }

    #[test]
    fn one_partition_takes_everything() {
        let router = PartitionRouter::new(1).unwrap();
        for s in ["A", "ACGTT", "TTTTT"] {
            assert_eq!(router.route_minimizer(&s.parse().unwrap()), 0);
        }
    }

    /// Every `(partition, canonical k-mer)` occurrence of a partitioning.
    fn located_kmers(parts: &[Vec<u8>], k: usize, p: usize) -> Vec<(usize, Kmer)> {
        let mut found = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            for view in PartitionSlices::index(part, k, p).unwrap().iter() {
                let core: PackedSeq = view.bases().collect();
                found.extend(core.kmers(k).map(|km| (i, km.canonical().0)));
            }
        }
        found
    }

    #[test]
    fn duplicate_vertices_land_in_same_partition() {
        // A kmer seen forward in one read and reverse-complemented in
        // another must route identically (canonical minimizers).
        let fwd = PackedSeq::from_ascii(b"TGATGGATGA");
        let (k, p, n) = (5, 3, 16);
        let in_f = located_kmers(&partition_in_memory(std::slice::from_ref(&fwd), k, p, n).unwrap(), k, p);
        let in_r = located_kmers(&partition_in_memory(&[fwd.revcomp()], k, p, n).unwrap(), k, p);
        for km in fwd.kmers(k) {
            let canon = km.canonical().0;
            let all: std::collections::HashSet<usize> =
                in_f.iter().chain(&in_r).filter(|(_, c)| *c == canon).map(|&(i, _)| i).collect();
            assert_eq!(all.len(), 1, "vertex {canon} split across partitions {all:?}");
        }
    }

    /// A k-mer occurrence between its neighbour bases, spelled on the
    /// strand where it is the smaller: records are stored in canonical
    /// orientation (every k here is odd), so a read's k-mer may sit in
    /// its record reverse complemented, its neighbours complemented and
    /// swapped.
    fn canonical_occurrence(
        km: Kmer,
        left: Option<Base>,
        right: Option<Base>,
    ) -> (Kmer, Option<Base>, Option<Base>) {
        (km, left, right).min((km.revcomp(), right.map(Base::complement), left.map(Base::complement)))
    }

    #[test]
    fn every_kmer_lands_in_exactly_one_record_with_its_read_neighbours() {
        // The cover property: each read position's k-mer appears in one
        // record, in the partition its (brute-force) minimizer routes to,
        // flanked by the bases the read has there (on either strand).
        let texts = ["ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGT", "GGCATTAGCCAGTACGGA", "GATTACA", "ACG"];
        let reads: Vec<PackedSeq> = texts.iter().map(|s| PackedSeq::from_ascii(s.as_bytes())).collect();
        for (k, p, n) in [(7, 4, 5), (5, 5, 3), (7, 1, 2)] {
            let router = PartitionRouter::new(n).unwrap();
            // (partition, k-mer, left neighbour, right neighbour) per occurrence.
            let mut want = Vec::new();
            for read in &reads {
                for (i, km) in read.kmers(k).enumerate() {
                    let left = i.checked_sub(1).map(|j| read.base(j));
                    let right = (i + k < read.len()).then(|| read.base(i + k));
                    let part = router.route_minimizer(&minimizer_of_kmer(&km, p));
                    want.push((part, canonical_occurrence(km, left, right)));
                }
            }
            let mut got = Vec::new();
            for (part, bytes) in partition_in_memory(&reads, k, p, n).unwrap().iter().enumerate() {
                for view in PartitionSlices::index(bytes, k, p).unwrap().iter() {
                    let core: PackedSeq = view.bases().collect();
                    let last = view.kmer_count() - 1;
                    for (i, km) in core.kmers(k).enumerate() {
                        let left = if i > 0 { Some(core.base(i - 1)) } else { view.left_ext() };
                        let right = if i < last { Some(core.base(i + k)) } else { view.right_ext() };
                        got.push((part, canonical_occurrence(km, left, right)));
                    }
                }
            }
            want.sort();
            got.sort();
            assert_eq!(got, want, "k={k} p={p} n={n}");
        }
    }

    #[test]
    fn hash_spreads_minimizers() {
        // With enough distinct minimizers, more than one partition is hit.
        let reads = vec![PackedSeq::from_ascii(
            b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCACCGTATGCAATGCCGGA",
        )];
        let parts = partition_in_memory(&reads, 9, 3, 8).unwrap();
        let nonempty = parts.iter().filter(|p| !p.is_empty()).count();
        assert!(nonempty > 1, "expected spread, got {nonempty} non-empty partitions");
    }

    #[test]
    fn bad_parameters_are_rejected() {
        assert!(matches!(partition_in_memory(&[], 3, 5, 4), Err(MspError::InvalidParams { .. })));
        assert!(matches!(partition_in_memory(&[], 5, 3, 0), Err(MspError::NoPartitions)));
    }
}
