//! Word-parallel kernels for the ASCII→2-bit packing hot path, plus the
//! global `PARAHASH_FORCE_SCALAR` escape hatch every vectorized kernel in
//! the workspace is gated on.
//!
//! # Kernel design
//!
//! The packing kernels transform 32 ASCII bases into one packed `u64`
//! (LSB-first, the [`crate::PackedSeq`] layout) per iteration instead of
//! one base at a time. Three implementations share one contract:
//!
//! * **scalar** — the original per-base loop, kept verbatim as the
//!   differential-testing reference and the `PARAHASH_FORCE_SCALAR` path;
//! * **SWAR** — portable `u64` byte-parallel arithmetic (8 bases per
//!   step): the 2-bit code of an ASCII base is `y ^ (y >> 1)` where
//!   `y = (ch >> 1) & 3`, validity is an exact byte-equality test against
//!   `{A,C,G,T}` after masking to uppercase, and the eight 2-bit codes
//!   are gathered with one carry-free multiply;
//! * **SSE2/AVX2** (`x86_64` only, runtime-detected) — 16/32 bases per
//!   step: the same code derivation in byte lanes, then `movemask` on the
//!   two code bits and a bit-interleave to assemble the packed word.
//!
//! Invalid bases (anything outside `acgtACGT`, including `N`) are
//! detected by mask and forced to code 0, exactly matching
//! [`crate::Base::from_ascii`]'s "unknown normalises to `A`" rule.
//!
//! # Scalar-fallback policy
//!
//! Setting the environment variable `PARAHASH_FORCE_SCALAR` (to anything
//! but `""`/`0`) routes every gated kernel — packing here, the range
//! serializer in [`crate::PackedSeq::write_packed_range`], the rolling
//! canonical windows in [`crate::CanonicalKmerCursor`], the minimizer
//! scan fast path in `msp`, table prefetching in `hashgraph`, and the
//! mmap-chunked parallel FASTQ ingest in `parahash` — back to the scalar
//! reference implementation. The determinism suites run both ways and
//! the outputs must agree byte-for-byte. The flag is read once and
//! cached; [`set_force_scalar_override`] exists for tests that need to
//! flip it within one process.

use std::sync::atomic::{AtomicU8, Ordering};

const MODE_UNSET: u8 = 0;
const MODE_SCALAR: u8 = 1;
const MODE_VECTOR: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// Whether `PARAHASH_FORCE_SCALAR` is in effect: every vectorized kernel
/// in the workspace consults this (usually once, at construction time)
/// and falls back to its scalar reference path when it returns `true`.
#[inline]
pub fn force_scalar() -> bool {
    match MODE.load(Ordering::Relaxed) {
        MODE_VECTOR => false,
        MODE_SCALAR => true,
        _ => init_mode(),
    }
}

#[cold]
fn init_mode() -> bool {
    let scalar =
        std::env::var_os("PARAHASH_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
    MODE.store(if scalar { MODE_SCALAR } else { MODE_VECTOR }, Ordering::Relaxed);
    scalar
}

/// Test hook: pins [`force_scalar`] to the given value (`None`
/// re-arms the environment lookup). Process-global — callers that flip it
/// must serialise themselves and restore the previous state. Kernels that
/// capture the mode at construction (cursors, scanners, tables) only see
/// a change made *before* they are built.
/// Serialises tests that flip [`set_force_scalar_override`]
/// within one process: hold the returned guard across the set → use →
/// restore sequence. Poisoning is ignored — the lock only orders access.
#[doc(hidden)]
pub fn override_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[doc(hidden)]
pub fn set_force_scalar_override(force: Option<bool>) {
    let mode = match force {
        Some(true) => MODE_SCALAR,
        Some(false) => MODE_VECTOR,
        None => MODE_UNSET,
    };
    MODE.store(mode, Ordering::Relaxed);
}

const BASES_PER_WORD: usize = 32;
const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Appends the packed words of `ascii` to `words` (LSB-first layout,
/// exactly `ascii.len().div_ceil(32)` words, unused high bits of the
/// last word zero), dispatching to the best available kernel.
///
/// This is the engine under [`crate::PackedSeq::from_ascii`]; callers
/// appending to a non-empty sequence must be word-aligned (the sequence
/// length a multiple of 32) or take the per-base path.
pub fn pack_ascii(ascii: &[u8], words: &mut Vec<u64>) {
    words.reserve(ascii.len().div_ceil(BASES_PER_WORD));
    if force_scalar() {
        pack_ascii_scalar(ascii, words);
    } else {
        pack_ascii_vector(ascii, words);
    }
}

/// The scalar reference packer: one base per iteration, byte-identical
/// to a [`crate::PackedSeq::push`] loop.
pub fn pack_ascii_scalar(ascii: &[u8], words: &mut Vec<u64>) {
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

/// The best vector kernel for this machine, ignoring the scalar gate
/// (the parity tests call this directly to compare against the scalar
/// reference).
pub fn pack_ascii_vector(ascii: &[u8], words: &mut Vec<u64>) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { x86::pack_ascii_avx2(ascii, words) }
        } else {
            // SAFETY: SSE2 is part of the x86_64 baseline.
            unsafe { x86::pack_ascii_sse2(ascii, words) }
        }
        return;
    }
    #[allow(unreachable_code)]
    pack_ascii_swar(ascii, words)
}

/// Portable SWAR packer: 8 ASCII bytes per `u64` step, no `std::arch`.
pub fn pack_ascii_swar(ascii: &[u8], words: &mut Vec<u64>) {
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

/// Spreads the low 32 bits of `x` onto the even bit positions of a
/// `u64` (bit *i* → bit *2i*).
#[inline]
fn spread_bits(x: u32) -> u64 {
    let mut x = x as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Interleaves two per-base bitmasks (bit *i* = code bit 0/1 of base
/// *i*) into a packed word: base *i* at bits `2i..2i+2`.
#[inline]
fn interleave_bits(bit0: u32, bit1: u32) -> u64 {
    spread_bits(bit0) | (spread_bits(bit1) << 1)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{interleave_bits, pack_tail, BASES_PER_WORD};

    /// AVX2 packer: 32 ASCII bytes → one packed word per iteration.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pack_ascii_avx2(ascii: &[u8], words: &mut Vec<u64>) {
        let mut blocks = ascii.chunks_exact(BASES_PER_WORD);
        for block in blocks.by_ref() {
            let v = _mm256_loadu_si256(block.as_ptr() as *const __m256i);
            let upper = _mm256_and_si256(v, _mm256_set1_epi8(0xDFu8 as i8));
            let valid = _mm256_or_si256(
                _mm256_or_si256(
                    _mm256_cmpeq_epi8(upper, _mm256_set1_epi8(b'A' as i8)),
                    _mm256_cmpeq_epi8(upper, _mm256_set1_epi8(b'C' as i8)),
                ),
                _mm256_or_si256(
                    _mm256_cmpeq_epi8(upper, _mm256_set1_epi8(b'G' as i8)),
                    _mm256_cmpeq_epi8(upper, _mm256_set1_epi8(b'T' as i8)),
                ),
            );
            // Per-byte y = (ch >> 1) & 3, code = y ^ (y >> 1): epi16
            // shifts leak bits across the byte pair, so mask after each.
            let y = _mm256_and_si256(_mm256_srli_epi16::<1>(v), _mm256_set1_epi8(0x03));
            let code = _mm256_xor_si256(
                y,
                _mm256_and_si256(_mm256_srli_epi16::<1>(y), _mm256_set1_epi8(0x01)),
            );
            let code = _mm256_and_si256(code, valid);
            // movemask reads bit 7 of each byte; shift code bit 0 / bit 1
            // up to bit 7 (cross-byte spill inside the epi16 lane never
            // reaches another byte's bit 7).
            let bit0 = _mm256_movemask_epi8(_mm256_slli_epi16::<7>(code)) as u32;
            let bit1 = _mm256_movemask_epi8(_mm256_slli_epi16::<6>(code)) as u32;
            words.push(interleave_bits(bit0, bit1));
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            words.push(pack_tail(tail));
        }
    }

    /// SSE2 packer: two 16-byte halves per packed word. SSE2 is part of
    /// the `x86_64` baseline, so this is always callable there.
    ///
    /// # Safety
    ///
    /// `x86_64` targets always have SSE2; kept `unsafe` for symmetry
    /// with the `target_feature` mechanism.
    #[target_feature(enable = "sse2")]
    pub unsafe fn pack_ascii_sse2(ascii: &[u8], words: &mut Vec<u64>) {
        let mut blocks = ascii.chunks_exact(BASES_PER_WORD);
        for block in blocks.by_ref() {
            let lo = pack_block16_sse2(block.as_ptr());
            let hi = pack_block16_sse2(block.as_ptr().add(16));
            words.push(lo as u64 | (hi as u64) << 32);
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            words.push(pack_tail(tail));
        }
    }

    #[target_feature(enable = "sse2")]
    unsafe fn pack_block16_sse2(ptr: *const u8) -> u32 {
        let v = _mm_loadu_si128(ptr as *const __m128i);
        let upper = _mm_and_si128(v, _mm_set1_epi8(0xDFu8 as i8));
        let valid = _mm_or_si128(
            _mm_or_si128(
                _mm_cmpeq_epi8(upper, _mm_set1_epi8(b'A' as i8)),
                _mm_cmpeq_epi8(upper, _mm_set1_epi8(b'C' as i8)),
            ),
            _mm_or_si128(
                _mm_cmpeq_epi8(upper, _mm_set1_epi8(b'G' as i8)),
                _mm_cmpeq_epi8(upper, _mm_set1_epi8(b'T' as i8)),
            ),
        );
        let y = _mm_and_si128(_mm_srli_epi16::<1>(v), _mm_set1_epi8(0x03));
        let code =
            _mm_xor_si128(y, _mm_and_si128(_mm_srli_epi16::<1>(y), _mm_set1_epi8(0x01)));
        let code = _mm_and_si128(code, valid);
        let bit0 = _mm_movemask_epi8(_mm_slli_epi16::<7>(code)) as u32 as u16;
        let bit1 = _mm_movemask_epi8(_mm_slli_epi16::<6>(code)) as u32 as u16;
        interleave_bits(bit0 as u32, bit1 as u32) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packs with every kernel and checks them against the scalar
    /// reference byte-for-byte.
    fn check_all_kernels(ascii: &[u8]) {
        let mut want = Vec::new();
        pack_ascii_scalar(ascii, &mut want);

        let mut swar = Vec::new();
        pack_ascii_swar(ascii, &mut swar);
        assert_eq!(swar, want, "swar vs scalar, len={}", ascii.len());

        let mut vector = Vec::new();
        pack_ascii_vector(ascii, &mut vector);
        assert_eq!(vector, want, "vector vs scalar, len={}", ascii.len());

        #[cfg(target_arch = "x86_64")]
        {
            let mut sse2 = Vec::new();
            unsafe { x86::pack_ascii_sse2(ascii, &mut sse2) };
            assert_eq!(sse2, want, "sse2 vs scalar, len={}", ascii.len());
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut avx2 = Vec::new();
                unsafe { x86::pack_ascii_avx2(ascii, &mut avx2) };
                assert_eq!(avx2, want, "avx2 vs scalar, len={}", ascii.len());
            }
        }
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

    #[test]
    fn scalar_override_routes_pack_ascii() {
        let _guard = override_guard();
        // The dispatcher must obey the override in both directions.
        let ascii = b"ACGTNNNNacgtACGTACGTACGTACGTACGTACGT";
        let mut want = Vec::new();
        pack_ascii_scalar(ascii, &mut want);
        for force in [Some(true), Some(false)] {
            set_force_scalar_override(force);
            let mut got = Vec::new();
            pack_ascii(ascii, &mut got);
            assert_eq!(got, want, "force={force:?}");
        }
        set_force_scalar_override(None);
    }
}
