//! Word-parallel kernels for the ASCII→2-bit packing hot path.
//!
//! # Kernel design
//!
//! The packer transforms 32 ASCII bases into one packed `u64`
//! (LSB-first, the [`crate::PackedSeq`] layout) per iteration instead of
//! one base at a time, with portable `u64` byte-parallel (SWAR)
//! arithmetic, 8 bases per step and no intrinsics: the 2-bit code of an
//! ASCII base is `y ^ (y >> 1)` where `y = (ch >> 1) & 3`, validity is an
//! exact byte-equality test against `{A,C,G,T}` after masking to
//! uppercase, and the eight 2-bit codes are gathered with one carry-free
//! multiply. The original per-base loop is the test tree's reference;
//! the unit tests compare the two byte for byte.
//!
//! Invalid bases (anything outside `acgtACGT`, including `N`) are
//! detected by mask and forced to code 0, exactly matching
//! [`crate::Base::from_ascii`]'s "unknown normalises to `A`" rule.

const BASES_PER_WORD: usize = 32;
const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Appends the packed words of `ascii` to `words` (LSB-first layout,
/// exactly `ascii.len().div_ceil(32)` words, unused high bits of the
/// last word zero), 8 ASCII bytes per `u64` step.
///
/// This is the engine under [`crate::PackedSeq::from_ascii`]; callers
/// appending to a non-empty sequence must be word-aligned (the sequence
/// length a multiple of 32) or take the per-base path.
pub fn pack_ascii(ascii: &[u8], words: &mut Vec<u64>) {
    words.reserve(ascii.len().div_ceil(BASES_PER_WORD));
    let mut blocks = ascii.chunks_exact(BASES_PER_WORD);
    for block in blocks.by_ref() {
        let mut word = 0u64;
        for (g, chunk) in block.chunks_exact(8).enumerate() {
            let x = u64::from_le_bytes(chunk.try_into().unwrap());
            word |= pack8_swar(x) << (16 * g);
        }
        words.push(word);
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        words.push(pack_tail(tail));
    }
}

/// Reverses the order of the 32 two-bit base codes in `w` (code `i`
/// moves to field `31 − i`) in six bit-ops: the word-parallel bridge
/// between the LSB-first packed-payload layout and the MSB-first
/// left-aligned `Kmer` word layout. Self-inverse.
#[inline]
pub fn reverse_codes(mut w: u64) -> u64 {
    // Swap adjacent 2-bit fields, then adjacent nibbles: every byte now
    // holds its four codes reversed; swapping the bytes finishes the job.
    w = ((w & 0x3333_3333_3333_3333) << 2) | ((w >> 2) & 0x3333_3333_3333_3333);
    w = ((w & 0x0F0F_0F0F_0F0F_0F0F) << 4) | ((w >> 4) & 0x0F0F_0F0F_0F0F_0F0F);
    w.swap_bytes()
}

/// Index of the first `\n` in `bytes`, 8 bytes per `u64` step (an exact
/// byte-equality mask, its lowest set byte the first hit), the last few
/// bytes one at a time. The FASTQ line splitter's search.
#[inline]
pub fn find_newline(bytes: &[u8]) -> Option<usize> {
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in words.by_ref() {
        let hits = byte_eq(u64::from_le_bytes(word.try_into().unwrap()), b'\n');
        if hits != 0 {
            return Some(at + hits.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    words.remainder().iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// Exact SWAR zero-byte detector: `0x80` in every byte of `x` that is
/// zero, `0x00` elsewhere. The `| HIGHS` pre-set keeps the per-byte
/// subtraction borrow-free, so unlike the classic approximate
/// `(x - ONES) & !x & HIGHS` there are no false positives.
#[inline]
fn zero_bytes(x: u64) -> u64 {
    !(x | ((x | HIGHS).wrapping_sub(ONES))) & HIGHS
}

#[inline]
fn byte_eq(x: u64, b: u8) -> u64 {
    zero_bytes(x ^ (ONES * b as u64))
}

/// Packs 8 ASCII bytes (little-endian in `x`) into 16 bits of 2-bit
/// codes (base *i* at bits `2i`), invalid bytes forced to `A`.
#[inline]
fn pack8_swar(x: u64) -> u64 {
    // Uppercase fold, then exact membership in {A, C, G, T}.
    let upper = x & 0xDFDF_DFDF_DFDF_DFDF;
    let valid = byte_eq(upper, b'A') | byte_eq(upper, b'C') | byte_eq(upper, b'G') | byte_eq(upper, b'T');
    // y = (ch >> 1) & 3 maps A→0 C→1 T→2 G→3; y ^ (y >> 1) converts that
    // Gray-ish order to the A=0 C=1 G=2 T=3 code of `Base`.
    let y = (x >> 1) & 0x0303_0303_0303_0303;
    let code = (y ^ ((y >> 1) & ONES)) & ((valid >> 7) * 3);
    // Gather the four low-byte codes into one byte with a carry-free
    // multiply: contributions land at bits 24..32 and the worst-case sum
    // of the lower cross terms (16 576 704) stays below 2^24.
    let lo = ((code & 0xFFFF_FFFF) * 0x0104_1040) >> 24 & 0xFF;
    let hi = ((code >> 32) * 0x0104_1040) >> 24 & 0xFF;
    lo | (hi << 8)
}

/// Packs a final partial block (1..=31 bytes) into one word.
fn pack_tail(ascii: &[u8]) -> u64 {
    debug_assert!(!ascii.is_empty() && ascii.len() < BASES_PER_WORD);
    let mut word = 0u64;
    let mut shift = 0u32;
    let mut chunks = ascii.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let x = u64::from_le_bytes(chunk.try_into().unwrap());
        word |= pack8_swar(x) << shift;
        shift += 16;
    }
    for &ch in chunks.remainder() {
        word |= (crate::Base::from_ascii(ch).code() as u64) << shift;
        shift += 2;
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-base reference packer: one base per iteration,
    /// byte-identical to a [`crate::PackedSeq::push`] loop.
    fn pack_ascii_scalar(ascii: &[u8], words: &mut Vec<u64>) {
        let mut word = 0u64;
        let mut shift = 0u32;
        for &ch in ascii {
            word |= (crate::Base::from_ascii(ch).code() as u64) << shift;
            shift += 2;
            if shift == 64 {
                words.push(word);
                word = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            words.push(word);
        }
    }

    /// The newline search against the byte loop it replaces: every line
    /// length 0..=130 at every alignment of a word, each line followed by
    /// a newline and more text, or ending the slice with none.
    #[test]
    fn find_newline_matches_the_byte_loop() {
        let byte_loop = |bytes: &[u8]| bytes.iter().position(|&b| b == b'\n');
        for len in 0..=130usize {
            for align in 0..8 {
                let mut text: Vec<u8> = (0..align).map(|i| b'A' + i as u8).collect();
                text.extend((0..len).map(|i| b"ACGT+@I\r"[i % 8]));
                let unterminated = text.len();
                text.extend_from_slice(b"\nTTG\nA");
                let (head, tail) = (&text[..unterminated], &text[align..unterminated]);
                for bytes in [&text[..], &text[align..], head, tail] {
                    assert_eq!(find_newline(bytes), byte_loop(bytes), "len={len} align={align}");
                }
            }
        }
        assert_eq!(find_newline(b""), None);
        assert_eq!(find_newline(b"\n\n"), Some(0));
    }

    /// Packs with the SWAR kernel and checks it against the per-base
    /// reference byte for byte.
    fn check_all_kernels(ascii: &[u8]) {
        let mut want = Vec::new();
        pack_ascii_scalar(ascii, &mut want);
        let mut swar = Vec::new();
        pack_ascii(ascii, &mut swar);
        assert_eq!(swar, want, "swar vs scalar, len={}", ascii.len());
    }

    #[test]
    fn every_byte_value_in_every_lane() {
        // One block per byte value, the value sweeping all 32 lanes.
        for b in 0u8..=255 {
            let mut block = [b'C'; 32];
            for lane in 0..32 {
                block[lane] = b;
                check_all_kernels(&block);
                block[lane] = b'C';
            }
        }
    }

    #[test]
    fn lengths_straddling_word_boundaries() {
        let pattern: Vec<u8> =
            (0..200).map(|i| b"ACGTacgtNn-@ACGT"[i % 16]).collect();
        for len in [0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128, 129, 200] {
            check_all_kernels(&pattern[..len]);
        }
    }

    #[test]
    fn reverse_codes_reverses_every_field() {
        // Reference: move field i to field 31 − i, one field at a time.
        let reference = |w: u64| -> u64 {
            let mut out = 0u64;
            for i in 0..32 {
                out |= ((w >> (2 * i)) & 3) << (2 * (31 - i));
            }
            out
        };
        let mut x: u64 = 0x243F_6A88_85A3_08D3; // arbitrary pi digits
        for _ in 0..64 {
            assert_eq!(reverse_codes(x), reference(x), "w={x:#018x}");
            assert_eq!(reverse_codes(reverse_codes(x)), x, "self-inverse at {x:#018x}");
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        }
        assert_eq!(reverse_codes(0), 0);
        assert_eq!(reverse_codes(u64::MAX), u64::MAX);
        assert_eq!(reverse_codes(3), 3 << 62);
    }
}
