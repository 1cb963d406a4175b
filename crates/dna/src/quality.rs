//! Phred quality scores and per-read error expectations.
//!
//! FASTQ quality characters encode the probability that a base call is
//! wrong (`p = 10^(−Q/10)`, Phred+33 ASCII). Summing `p` over a read gives
//! its expected error count — the per-read λ that Property 1 (the
//! graph-size estimate `Θ(λ/4·LN + Ge)`) needs. This module converts
//! scores and estimates λ from a read set, so hash tables can be sized
//! from the *actual* input rather than a guessed constant.

use crate::SeqRead;

/// Offset of the Phred+33 encoding (Sanger/Illumina 1.8+).
pub const PHRED33_OFFSET: u8 = 33;

/// Decodes one Phred+33 quality character to its integer score,
/// saturating at 0 for out-of-range input.
///
/// # Examples
///
/// ```
/// use dna::quality::phred_score;
///
/// assert_eq!(phred_score(b'!'), 0);  // p = 1.0
/// assert_eq!(phred_score(b'I'), 40); // p = 1e-4
/// assert_eq!(phred_score(b' '), 0);  // below range: saturate
/// ```
#[inline]
pub fn phred_score(ch: u8) -> u8 {
    ch.saturating_sub(PHRED33_OFFSET)
}

/// The error probability a Phred score encodes: `10^(−Q/10)`.
///
/// # Examples
///
/// ```
/// use dna::quality::error_probability;
///
/// assert!((error_probability(10) - 0.1).abs() < 1e-12);
/// assert!((error_probability(30) - 0.001).abs() < 1e-12);
/// ```
#[inline]
pub fn error_probability(score: u8) -> f64 {
    10f64.powf(-(score as f64) / 10.0)
}

/// Encodes a Phred score back to its Phred+33 character (clamped to the
/// printable range 0..=93).
///
/// # Examples
///
/// ```
/// use dna::quality::{phred_char, phred_score};
///
/// assert_eq!(phred_char(40), b'I');
/// assert_eq!(phred_score(phred_char(17)), 17);
/// assert_eq!(phred_char(200), b'~'); // clamped
/// ```
#[inline]
pub fn phred_char(score: u8) -> u8 {
    score.min(93) + PHRED33_OFFSET
}

/// The Phred score whose error probability is closest to `p` (clamped to
/// 0..=93).
///
/// # Examples
///
/// ```
/// use dna::quality::score_for_probability;
///
/// assert_eq!(score_for_probability(0.001), 30);
/// assert_eq!(score_for_probability(1.0), 0);
/// ```
pub fn score_for_probability(p: f64) -> u8 {
    if p <= 0.0 {
        return 93;
    }
    let q = -10.0 * p.log10();
    q.round().clamp(0.0, 93.0) as u8
}

/// Expected number of erroneous bases in one read: Σ 10^(−Qᵢ/10) over its
/// quality string. Returns `None` for reads without quality data.
///
/// # Examples
///
/// ```
/// use dna::quality::expected_errors;
/// use dna::SeqRead;
///
/// // Four bases at Q10 (10% error each): one expected error.
/// let r = SeqRead::from_ascii("r", b"ACGT").with_quality(vec![b'+'; 4]);
/// assert!((expected_errors(&r).unwrap() - 0.4).abs() < 1e-9);
/// ```
pub fn expected_errors(read: &SeqRead) -> Option<f64> {
    let qual = read.quality()?;
    Some(qual.iter().map(|&q| error_probability(phred_score(q))).sum())
}

/// Estimates the dataset λ — the average expected errors per read, the
/// parameter of Property 1 — from up to `sample` reads carrying quality
/// strings. Returns `None` when no sampled read has quality data.
///
/// # Examples
///
/// ```
/// use dna::quality::estimate_lambda;
/// use dna::SeqRead;
///
/// let reads: Vec<SeqRead> = (0..10)
///     .map(|i| SeqRead::from_ascii(format!("r{i}"), b"ACGTACGT").with_quality(vec![b'+'; 8]))
///     .collect();
/// // 8 bases at 10% error: λ = 0.8.
/// let lambda = estimate_lambda(&reads, 100).unwrap();
/// assert!((lambda - 0.8).abs() < 1e-9);
/// ```
pub fn estimate_lambda(reads: &[SeqRead], sample: usize) -> Option<f64> {
    let mut total = 0.0;
    let mut counted = 0usize;
    for read in reads.iter().take(sample.max(1)) {
        if let Some(e) = expected_errors(read) {
            total += e;
            counted += 1;
        }
    }
    if counted == 0 {
        None
    } else {
        Some(total / counted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_char_roundtrip() {
        for q in 0u8..=93 {
            assert_eq!(phred_score(phred_char(q)), q);
        }
    }

    #[test]
    fn probability_is_monotone_decreasing() {
        let mut prev = f64::INFINITY;
        for q in 0u8..=60 {
            let p = error_probability(q);
            assert!(p < prev);
            prev = p;
        }
        assert_eq!(error_probability(0), 1.0);
    }

    #[test]
    fn probability_score_roundtrip() {
        for q in 0u8..=93 {
            assert_eq!(score_for_probability(error_probability(q)), q);
        }
        assert_eq!(score_for_probability(0.0), 93);
        assert_eq!(score_for_probability(-0.5), 93);
        assert_eq!(score_for_probability(2.0), 0, "p > 1 clamps to Q0");
    }

    #[test]
    fn expected_errors_none_without_quality() {
        assert!(expected_errors(&SeqRead::from_ascii("r", b"ACGT")).is_none());
    }

    #[test]
    fn expected_errors_sums_per_base() {
        let r = SeqRead::from_ascii("r", b"AC")
            .with_quality(vec![phred_char(10), phred_char(20)]);
        let e = expected_errors(&r).unwrap();
        assert!((e - 0.11).abs() < 1e-9);
    }

    #[test]
    fn lambda_estimation_ignores_quality_free_reads() {
        let reads = vec![
            SeqRead::from_ascii("plain", b"ACGT"),
            SeqRead::from_ascii("q", b"ACGT").with_quality(vec![phred_char(10); 4]),
        ];
        let lambda = estimate_lambda(&reads, 10).unwrap();
        assert!((lambda - 0.4).abs() < 1e-9);
        assert!(estimate_lambda(&reads[..1], 10).is_none());
        assert!(estimate_lambda(&[], 10).is_none());
    }

    #[test]
    fn sampling_limit_respected() {
        let mut reads: Vec<SeqRead> = vec![
            SeqRead::from_ascii("good", b"ACGT").with_quality(vec![phred_char(40); 4]);
            5
        ];
        reads.push(SeqRead::from_ascii("bad", b"ACGT").with_quality(vec![phred_char(0); 4]));
        // Sampling only the first 5 reads excludes the terrible one.
        let lambda = estimate_lambda(&reads, 5).unwrap();
        assert!(lambda < 0.01, "λ={lambda}");
        let with_bad = estimate_lambda(&reads, 6).unwrap();
        assert!(with_bad > 0.5, "λ={with_bad}");
    }
}
