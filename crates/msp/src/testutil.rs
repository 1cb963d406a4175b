//! Shared fixtures for this crate's unit tests.

use dna::{Kmer, PackedSeq};

use crate::{encode_superkmer_slice, MinimizerCursor};

/// One read's superkmers in scan order, each as `(minimizer, its encoded
/// record, its k-mer count)` — for tests that append or frame records
/// one at a time.
pub(crate) fn records_of(read: &PackedSeq, k: usize, p: usize) -> Vec<(Kmer, Vec<u8>, u64)> {
    let mut out = Vec::new();
    MinimizerCursor::new(k, p).unwrap().scan_runs(read, |first, last, minimizer| {
        let left = first.checked_sub(1).map(|i| read.base(i));
        let right = (last + k < read.len()).then(|| read.base(last + k));
        let mut record = Vec::new();
        encode_superkmer_slice(read, first, last, k, left, right, &mut record);
        out.push((minimizer, record, (last - first + 1) as u64));
    });
    out
}
