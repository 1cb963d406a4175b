//! CRC-32/ISO-HDLC (the zlib/PNG polynomial): the one checksum behind
//! partition-file frames, run-journal records, subgraph trailers and the
//! shard wire frames. It lives in this crate because `msp` (whose
//! `msp::crc32` is the name most callers know it by) and the wire codec
//! in [`crate::shard`] both sit on top of it.
//!
//! Two loops over one set of tables: [`crc32`] takes eight bytes per step
//! (slicing-by-8), [`crc32_bytewise`] one — the sliced loop's tail
//! handler, the `PARAHASH_FORCE_SCALAR` twin `msp::crc32` switches to,
//! and the reference the sliced loop is tested against.

/// Slicing-by-8 lookup tables. `CRC_TABLES[0]` is the classic byte-wise
/// table (the CRC of the single byte `i`); `CRC_TABLES[j][i]` is the CRC
/// of byte `i` followed by `j` zero bytes, so eight lookups — one per
/// table — advance the register over eight input bytes at once. Same
/// polynomial, so the sliced and byte-wise loops agree on every input.
const CRC_TABLES: [[u32; 256]; 8] = make_crc_tables();

const fn make_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

/// Advances the (pre-complemented) CRC register over `bytes` one byte at
/// a time.
fn update_bytewise(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32/ISO-HDLC of `bytes` (polynomial `0xEDB88320`, init/final
/// complement) — the same variant zlib and PNG use.
///
/// Eight bytes per step (slicing-by-8): the register is folded into the
/// first four bytes of each chunk and all eight bytes index their own
/// table, so the loop-carried dependency is one XOR tree per 8 bytes
/// instead of one table load per byte.
///
/// # Examples
///
/// ```
/// assert_eq!(pipeline::crc::crc32(b""), 0);
/// assert_eq!(pipeline::crc::crc32(b"123456789"), 0xCBF4_3926); // the standard check value
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    !update_bytewise(c, chunks.remainder())
}

/// [`crc32`] one byte per step: the same value on every input, from the
/// loop that needs no argument about slicing.
pub fn crc32_bytewise(bytes: &[u8]) -> u32 {
    !update_bytewise(0xFFFF_FFFF, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The known vectors, then sliced == byte-wise for every length
    /// 0..=96 at every start offset 0..8 of a pseudo-random buffer, so
    /// every head alignment and tail length meets the 8-byte loop.
    #[test]
    fn sliced_matches_bytewise_and_known_vectors() {
        let fox = b"The quick brown fox jumps over the lazy dog";
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(fox), 0x414F_A339);
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..104)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=96 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "start={start} len={len}");
            }
        }
    }
}
