//! End-to-end checkpoint integrity: CRC-64 checksums computed at commit
//! time and verified at restore time, on both the local NVM path and
//! the remote I/O path.
//!
//! A checkpoint that restores *wrong* is strictly worse than one that
//! fails to restore (silent corruption propagates into the recomputed
//! science). The stores therefore carry a checksum per object and every
//! read path re-verifies before handing data to the application.

/// CRC-64/XZ (ECMA-182 polynomial, reflected), table-driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc64(u64);

const POLY: u64 = 0xC96C_5795_D787_0F42; // reflected ECMA-182

/// Slicing-by-16 tables (const-evaluated at compile time).
/// `TABLES[k][i]` is the CRC state after byte `i` followed by `k` zero
/// bytes, so `TABLES[0]` is the classic byte-at-a-time table and one
/// 16-byte block folds in with 16 independent lookups instead of a
/// chain of 16 dependent ones.
static TABLES: [[u64; 256]; 16] = build_tables();

const fn build_tables() -> [[u64; 256]; 16] {
    let mut t = [[0u64; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc64 {
    /// Starts a new checksum.
    pub fn new() -> Self {
        Crc64(u64::MAX)
    }

    /// Feeds bytes (streamable: blocks may arrive one at a time).
    ///
    /// Slicing-by-16: each 16-byte block is read as two little-endian
    /// words; byte `j` of the block still has `15 - j` bytes to pass
    /// through, so it is looked up in `TABLES[15 - j]`. The CRC is
    /// linear over GF(2), so XORing the 16 lookups is bit-identical to
    /// feeding the bytes one at a time. The byte loop handles the tail
    /// of fewer than 16 bytes.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.0;
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            let (lo, hi) = block.split_at(8);
            let a = crc ^ u64::from_le_bytes(lo.try_into().expect("8 bytes"));
            let b = u64::from_le_bytes(hi.try_into().expect("8 bytes"));
            crc = 0;
            for j in 0..8 {
                crc ^= t[15 - j][(a >> (8 * j)) as u8 as usize]
                    ^ t[7 - j][(b >> (8 * j)) as u8 as usize];
            }
        }
        for &byte in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ byte as u64) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// Finalizes to the checksum value.
    pub fn finish(&self) -> u64 {
        self.0 ^ u64::MAX
    }

    /// One-shot checksum of a buffer.
    pub fn of(data: &[u8]) -> u64 {
        let mut c = Crc64::new();
        c.update(data);
        c.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // CRC-64/XZ of "123456789" is 0x995DC9BBDF1939FA.
        assert_eq!(Crc64::of(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn empty_input() {
        assert_eq!(Crc64::of(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..10_000).map(|i| (i * 31 % 251) as u8).collect();
        let one_shot = Crc64::of(&data);
        let mut streamed = Crc64::new();
        for chunk in data.chunks(97) {
            streamed.update(chunk);
        }
        assert_eq!(streamed.finish(), one_shot);
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = vec![0xA5u8; 4096];
        let base = Crc64::of(&data);
        for pos in [0usize, 1, 100, 4095] {
            for bit in 0..8 {
                let mut tampered = data.clone();
                tampered[pos] ^= 1 << bit;
                assert_ne!(
                    Crc64::of(&tampered),
                    base,
                    "flip at {pos}:{bit} undetected"
                );
            }
        }
    }

    /// Bit-at-a-time CRC-64/XZ register update, independent of the
    /// const tables: the reference the slicing kernel must match.
    fn reference_update(mut crc: u64, data: &[u8]) -> u64 {
        for &byte in data {
            crc ^= byte as u64;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    fn reference_of(data: &[u8]) -> u64 {
        reference_update(u64::MAX, data) ^ u64::MAX
    }

    #[test]
    fn slice_tables_match_the_bitwise_reference() {
        for (k, table) in TABLES.iter().enumerate() {
            for (i, &entry) in table.iter().enumerate() {
                let mut input = vec![0u8; k + 1];
                input[0] = i as u8;
                assert_eq!(entry, reference_update(0, &input), "T[{k}][{i}]");
            }
        }
    }

    #[test]
    fn kernel_matches_reference_at_every_length_and_offset() {
        let buf: Vec<u8> =
            (0..16 + 257).map(|i| (i * 167 + 13) as u8).collect();
        for offset in 0..16 {
            for len in 0..=257 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    Crc64::of(data),
                    reference_of(data),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn update_split_anywhere_equals_one_shot() {
        let data: Vec<u8> = (0..200).map(|i| (i * 89 + 7) as u8).collect();
        let one_shot = Crc64::of(&data);
        for split in 0..=data.len() {
            let mut c = Crc64::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), one_shot, "split at {split}");
        }
    }

    #[test]
    fn swapped_blocks_are_detected() {
        let mut a = vec![1u8; 1000];
        a.extend(vec![2u8; 1000]);
        let mut b = vec![2u8; 1000];
        b.extend(vec![1u8; 1000]);
        assert_ne!(Crc64::of(&a), Crc64::of(&b));
    }
}
