//! Property tests for the MSP invariants the paper's correctness rests on.

use dna::{Base, Kmer, PackedSeq};
use msp::{
    encode_superkmer_slice, minimizer_of_kmer, partition_in_memory, PartitionSlices,
    SuperkmerScanner, SuperkmerView,
};
use proptest::prelude::*;

fn base() -> impl Strategy<Value = Base> {
    prop_oneof![Just(Base::A), Just(Base::C), Just(Base::G), Just(Base::T)]
}

fn seq(max: usize) -> impl Strategy<Value = PackedSeq> {
    prop::collection::vec(base(), 0..max).prop_map(|v| v.into_iter().collect())
}

/// Run-cutting by definition: the brute-force minimizer of every k-mer,
/// grouped into maximal equal runs.
fn naive_runs(k: usize, p: usize, read: &PackedSeq) -> Vec<(usize, usize, Kmer)> {
    let mins: Vec<Kmer> = read.kmers(k).map(|km| minimizer_of_kmer(&km, p)).collect();
    let mut out = Vec::new();
    let mut start = 0usize;
    for pos in 1..=mins.len() {
        if pos == mins.len() || mins[pos] != mins[start] {
            out.push((start, pos - 1, mins[start]));
            start = pos;
        }
    }
    out
}

/// Bases `first..first + len` of `read` between the read's neighbouring
/// bases, spelled as a record of `k`-mers stores them: at odd `k` on the
/// strand where the core is the smaller string, then the smaller
/// extension pair — the reverse complement complements the extensions
/// and swaps their sides; at even `k` as read.
fn canonical_span(
    read: &PackedSeq,
    first: usize,
    len: usize,
    k: usize,
) -> (PackedSeq, Option<Base>, Option<Base>) {
    let core = read.slice(first, len);
    let left = first.checked_sub(1).map(|i| read.base(i));
    let right = read.get(first + len);
    if k.is_multiple_of(2) {
        return (core, left, right);
    }
    let twin = (core.revcomp(), right.map(Base::complement), left.map(Base::complement));
    (core, left, right).min(twin)
}

/// Collects the streaming cursor's runs for one read.
fn streamed_runs(scanner: &SuperkmerScanner, read: &PackedSeq) -> Vec<(usize, usize, Kmer)> {
    let mut cursor = scanner.cursor();
    let mut out = Vec::new();
    scanner.scan_runs(read, &mut cursor, |first, last, m| out.push((first, last, m)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn minimizer_is_strand_invariant(read in seq(60), p in 1usize..8) {
        for kmer in read.kmers(p.max(6) + 3) {
            prop_assert_eq!(
                minimizer_of_kmer(&kmer, p),
                minimizer_of_kmer(&kmer.revcomp(), p)
            );
        }
    }

    /// The cover property: one read's records, in scan order, overlap by
    /// K−1 bases and reassemble to the read, each on the strand that
    /// makes it canonical; each carries the read's neighbouring bases as
    /// extensions, and all of its k-mers share one minimizer that differs
    /// from the next record's.
    #[test]
    fn records_cover_every_kmer_exactly_once(read in seq(250), k in 2usize..28, p_frac in 1usize..100) {
        let p = 1 + (p_frac * (k - 1)) / 100;
        let buf = partition_in_memory(std::slice::from_ref(&read), k, p, 1).unwrap().remove(0);
        let slices = PartitionSlices::index(&buf, k, p).unwrap();
        prop_assert_eq!(slices.total_kmers(), (read.len() + 1).saturating_sub(k));
        let mut first = 0usize; // read position of the record's first k-mer
        let mut previous: Option<Kmer> = None;
        for view in slices.iter() {
            let core: PackedSeq = view.bases().collect();
            let record = (core.clone(), view.left_ext(), view.right_ext());
            prop_assert_eq!(record, canonical_span(&read, first, view.core_len(), k));
            let shared = minimizer_of_kmer(&core.kmer_at(0, k).unwrap(), p);
            for kmer in core.kmers(k) {
                prop_assert_eq!(minimizer_of_kmer(&kmer, p), shared);
            }
            // Runs are maximal: neighbours differ in minimizer.
            prop_assert_ne!(previous, Some(shared));
            previous = Some(shared);
            first += view.kmer_count();
        }
        prop_assert_eq!(first, (read.len() + 1).saturating_sub(k));
    }

    /// Every run of a read, encoded straight from the packed words and
    /// read back through `SuperkmerView`, spells the read's bases and
    /// neighbours in canonical orientation — including the first/last
    /// runs whose left/right extensions are absent, for wide k and every
    /// core alignment — and the same run cut from the reverse-complement
    /// read encodes to the same bytes.
    #[test]
    fn slice_encoding_round_trips_through_views(read in seq(260), k in 1usize..=48, p_frac in 0usize..=100) {
        let p = 1 + (p_frac * (k - 1)).div_ceil(100).min(k - 1);
        let scanner = SuperkmerScanner::new(k, p).unwrap();
        let encode = |read: &PackedSeq, first: usize, last: usize| {
            let left = first.checked_sub(1).map(|i| read.base(i));
            let right = (last + k < read.len()).then(|| read.base(last + k));
            let mut record = Vec::new();
            encode_superkmer_slice(read, first, last, k, left, right, &mut record);
            record
        };
        let twin = read.revcomp();
        for (first, last, _) in streamed_runs(&scanner, &read) {
            let record = encode(&read, first, last);
            prop_assert_eq!(record.len(), msp::encoded_len(last - first + k));
            let (view, used) = SuperkmerView::parse(&record, k).unwrap();
            prop_assert_eq!(used, record.len());
            prop_assert_eq!(view.kmer_count(), last - first + 1);
            let (core, left, right) = canonical_span(&read, first, last - first + k, k);
            prop_assert_eq!((view.left_ext(), view.right_ext()), (left, right));
            let bases: PackedSeq = view.bases().collect();
            prop_assert_eq!(bases, core.clone(), "run {}..={} of k={} p={}", first, last, k, p);
            for i in 0..view.core_len() {
                prop_assert_eq!(view.base(i), core.base(i));
            }
            if !k.is_multiple_of(2) {
                let mirror = read.len() - k;
                let twin_record = encode(&twin, mirror - last, mirror - first);
                prop_assert_eq!(twin_record, record, "run {}..={} of k={} p={}", first, last, k, p);
            }
        }
    }

    #[test]
    fn routing_is_reverse_complement_stable(read in seq(150), n in 1usize..12) {
        // Each canonical kmer must land in one partition, whichever strand
        // the read came in on.
        let k = 9;
        let p = 5;
        prop_assume!(read.len() >= k);
        let mut home: std::collections::HashMap<dna::Kmer, usize> = Default::default();
        for strand in [read.clone(), read.revcomp()] {
            for (part, records) in partition_in_memory(&[strand], k, p, n).unwrap().iter().enumerate() {
                for view in PartitionSlices::index(records, k, p).unwrap().iter() {
                    let core: PackedSeq = view.bases().collect();
                    for kmer in core.kmers(k) {
                        let canon = kmer.canonical().0;
                        if let Some(&prev) = home.get(&canon) {
                            prop_assert_eq!(prev, part, "vertex {} split across partitions", canon);
                        } else {
                            home.insert(canon, part);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn partition_in_memory_is_strand_union_consistent(reads in prop::collection::vec(seq(100), 0..6)) {
        let (k, p, n) = (7, 4, 5);
        let parts = partition_in_memory(&reads, k, p, n).unwrap();
        let total: usize =
            parts.iter().map(|b| PartitionSlices::index(b, k, p).unwrap().total_kmers()).sum();
        let expected: usize = reads.iter().map(|r| (r.len() + 1).saturating_sub(k)).sum();
        prop_assert_eq!(total, expected);
    }

    /// The streaming cursor (single monotone deque over canonical p-mers)
    /// must cut exactly the runs of the brute-force per-kmer scan — the
    /// invariant the entire zero-allocation Step-1 path rests on.
    #[test]
    fn streaming_runs_equal_naive_runs(read in seq(300), k in 1usize..=64, p_frac in 0usize..=100) {
        let p = 1 + (p_frac * (k - 1)).div_ceil(100).min(k - 1);
        let scanner = SuperkmerScanner::new(k, p).unwrap();
        prop_assert_eq!(streamed_runs(&scanner, &read), naive_runs(k, p, &read));
    }

    /// Same invariant on adversarially low-complexity input: homopolymers
    /// (one global run), short-period repeats, and a planted mutation.
    #[test]
    fn streaming_runs_equal_naive_runs_low_complexity(
        unit in prop::collection::vec(base(), 1..5),
        reps in 1usize..120,
        flip in 0usize..1000,
        k in 1usize..=64,
        p_frac in 0usize..=100,
    ) {
        let mut bases: Vec<Base> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        if let Some(b) = bases.get_mut(flip % reps.max(1)) {
            *b = b.complement();
        }
        let read: PackedSeq = bases.into_iter().collect();
        let p = 1 + (p_frac * (k - 1)).div_ceil(100).min(k - 1);
        let scanner = SuperkmerScanner::new(k, p).unwrap();
        prop_assert_eq!(streamed_runs(&scanner, &read), naive_runs(k, p, &read));
    }
}

/// Deterministic low-complexity edge cases the fuzzers may not pin down:
/// reads shorter than k (no runs), reads of exactly k bases (one run),
/// and pure homopolymers (every k-mer shares the minimizer → one run).
#[test]
fn streaming_runs_low_complexity_edges() {
    let cases: Vec<(PackedSeq, usize, usize)> = vec![
        (PackedSeq::from_ascii(&b"A".repeat(300)), 21, 11),
        (PackedSeq::from_ascii(&b"ACGT".repeat(64)), 31, 15),
        (PackedSeq::from_ascii(&b"AT".repeat(100)), 33, 7),
        (PackedSeq::from_ascii(b"ACG"), 7, 3),   // shorter than k
        (PackedSeq::from_ascii(b"TGATGGA"), 7, 3), // exactly k
        (PackedSeq::from_ascii(b"G"), 1, 1),     // k = p = 1
    ];
    for (read, k, p) in cases {
        let scanner = SuperkmerScanner::new(k, p).unwrap();
        let got = streamed_runs(&scanner, &read);
        assert_eq!(got, naive_runs(k, p, &read), "k={k} p={p} len={}", read.len());
        if read.len() >= k {
            assert!(!got.is_empty());
        } else {
            assert!(got.is_empty());
        }
    }
    // A homopolymer is a single maximal run covering every k-mer.
    let homo = PackedSeq::from_ascii(&b"T".repeat(200));
    let scanner = SuperkmerScanner::new(9, 4).unwrap();
    let runs = streamed_runs(&scanner, &homo);
    assert_eq!(runs.len(), 1);
    assert_eq!((runs[0].0, runs[0].1), (0, 200 - 9));
}
