//! CRC-32 (IEEE 802.3 polynomial), table-driven, computed at compile time.
//!
//! Every log frame checksums its payload and every checkpoint file checksums
//! its whole body with this function, so a single flipped bit anywhere in
//! either is detected before a record or chunk is believed.
//!
//! The kernel is slice-by-16: sixteen 256-entry tables, where `TABLES[k][b]`
//! is the CRC contribution of byte `b` followed by `k` zero bytes. A 16-byte
//! block then folds into the running CRC with sixteen independent lookups
//! instead of sixteen dependent ones, and the remainder runs byte at a time
//! through `TABLES[0]`. Same polynomial, same result as the byte-at-a-time
//! loop, so every checksum on disk is unchanged.

/// The reflected IEEE polynomial used by zip, ethernet, zlib, ...
const POLYNOMIAL: u32 = 0xEDB8_8320;

/// Bytes folded per step of the main loop.
const SLICE: usize = 16;

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLYNOMIAL
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // table k: table k-1 advanced by one more zero byte
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = build_tables();

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(SLICE);
    for block in &mut blocks {
        let block: &[u8; SLICE] = block.try_into().expect("chunks_exact yields whole blocks");
        // the running CRC folds into the block's first four bytes; byte j
        // is then followed by 15 - j more bytes of this block
        let head = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][block[4] as usize]
            ^ t[10][block[5] as usize]
            ^ t[9][block[6] as usize]
            ^ t[8][block[7] as usize]
            ^ t[7][block[8] as usize]
            ^ t[6][block[9] as usize]
            ^ t[5][block[10] as usize]
            ^ t[4][block[11] as usize]
            ^ t[3][block[12] as usize]
            ^ t[2][block[13] as usize]
            ^ t[1][block[14] as usize]
            ^ t[0][block[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the slice-by-16 kernel replaced: the
    /// reference every checksum on disk was written with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (splitmix64).
    fn random_bytes(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // the classic check value for this polynomial
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    #[test]
    fn slice_by_16_equals_the_bytewise_loop_at_every_length_and_offset() {
        const MAX_LEN: usize = 4096;
        let bytes = random_bytes(MAX_LEN + SLICE, 0xC0FF_EE00);
        for offset in 0..SLICE {
            for len in 0..=MAX_LEN {
                let input = &bytes[offset..offset + len];
                assert_eq!(
                    crc32(input),
                    crc32_bytewise(input),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"adaptive indexing".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "byte {i} bit {bit}");
            }
        }
    }
}
