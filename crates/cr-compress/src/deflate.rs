//! `gz` — a DEFLATE-family codec: LZSS over a 32 KiB window with
//! hash-chain match finding and lazy matching, followed by per-block
//! canonical Huffman coding of a literal/length alphabet and a distance
//! alphabet with DEFLATE's extra-bits bucketing. Levels 1–9 trade chain
//! depth and lazy evaluation for ratio, mirroring `gzip`'s levels.
//!
//! The container is this crate's own (byte header + one continuous bit
//! stream of blocks), not RFC 1951 — both directions are implemented
//! here, so wire compatibility is not needed.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{Decoder, Encoder};
use crate::lz::{tokenize, LzParams, Token};
use crate::{Codec, CodecError};

const MAGIC: u8 = 0x47; // 'G'
const BLOCK_SIZE: usize = 1 << 18;
const WINDOW: usize = 1 << 15;
const MAX_MATCH: usize = 258;
const EOB: usize = 256;
const NUM_LITLEN: usize = 286;
const NUM_DIST: usize = 30;
const CODE_LEN_BITS: u32 = 4;
const MAX_CODE_LEN: u32 = 15;

/// Length-code bucketing: `(base_length, extra_bits)` for codes
/// 257..=285 mapped to indices 0..=28.
fn length_table() -> [(u32, u32); 29] {
    let mut t = [(0u32, 0u32); 29];
    let mut len = 3u32;
    for (i, slot) in t.iter_mut().enumerate() {
        let extra = if i < 8 {
            0
        } else {
            (i as u32 - 4) / 4
        };
        *slot = (len, extra);
        len += 1 << extra;
    }
    // Code 285 is the special "length 258, 0 extra bits" case.
    t[28] = (258, 0);
    t
}

/// Distance-code bucketing: `(base_distance, extra_bits)` for codes
/// 0..=29.
fn dist_table() -> [(u32, u32); 30] {
    let mut t = [(0u32, 0u32); 30];
    let mut dist = 1u32;
    for (i, slot) in t.iter_mut().enumerate() {
        let extra = if i < 4 { 0 } else { (i as u32 - 2) / 2 };
        *slot = (dist, extra);
        dist += 1 << extra;
    }
    t
}

/// Finds the code index for a length, returning `(index, extra_value)`.
#[inline]
fn length_code(tables: &[(u32, u32); 29], len: u32) -> (usize, u32) {
    debug_assert!((3..=258).contains(&len));
    if len == 258 {
        return (28, 0);
    }
    // Binary search over bases.
    let mut idx = match tables.binary_search_by_key(&len, |&(b, _)| b) {
        Ok(i) => i,
        Err(i) => i - 1,
    };
    if idx == 28 {
        idx = 27; // 258 handled above; bucket 27 ends at 257
    }
    (idx, len - tables[idx].0)
}

/// Finds the code index for a distance, returning `(index, extra_value)`.
#[inline]
fn dist_code(tables: &[(u32, u32); 30], dist: u32) -> (usize, u32) {
    debug_assert!(dist >= 1);
    let idx = match tables.binary_search_by_key(&dist, |&(b, _)| b) {
        Ok(i) => i,
        Err(i) => i - 1,
    };
    (idx, dist - tables[idx].0)
}

/// The `gz` codec at a given level (1..=9).
#[derive(Debug, Clone, Copy)]
pub struct Deflate {
    level: u32,
}

impl Deflate {
    /// Creates the codec; `level` must be in `1..=9`.
    pub fn new(level: u32) -> Self {
        assert!((1..=9).contains(&level), "gz level must be 1..=9");
        Deflate { level }
    }

    fn lz_params(&self) -> LzParams {
        let (max_chain, nice_len, lazy) = match self.level {
            1 => (8, 16, false),
            2 => (16, 32, false),
            3 => (32, 32, false),
            4 => (32, 64, true),
            5 => (64, 96, true),
            6 => (128, 128, true),
            7 => (256, 196, true),
            8 => (512, 258, true),
            _ => (1024, 258, true),
        };
        LzParams {
            window: WINDOW,
            max_match: MAX_MATCH,
            max_chain,
            nice_len,
            lazy,
        }
    }
}

fn write_lengths(w: &mut BitWriter, lengths: &[u32]) {
    for &l in lengths {
        debug_assert!(l <= MAX_CODE_LEN);
        w.write_bits(l as u64, CODE_LEN_BITS);
    }
}

fn read_lengths(
    r: &mut BitReader<'_>,
    n: usize,
) -> Result<Vec<u32>, CodecError> {
    (0..n)
        .map(|_| r.read_bits(CODE_LEN_BITS).map(|v| v as u32))
        .collect()
}

fn compress_impl(codec: &Deflate, input: &[u8], out: &mut Vec<u8>) {
    out.push(MAGIC);
    out.push(codec.level as u8);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());
    if input.is_empty() {
        return;
    }

    let ltab = length_table();
    let dtab = dist_table();
    let params = codec.lz_params();
    let mut w = BitWriter::new();
    let mut tokens = Vec::new();

    for block in input.chunks(BLOCK_SIZE) {
        tokens.clear();
        {
            let mut t = cr_obs::stage::timer(cr_obs::stage::Stage::Tokenize);
            tokenize(block, params, &mut tokens);
            if let Some(t) = t.as_mut() {
                t.add_bytes(block.len() as u64);
            }
        }
        let mut entropy_t =
            cr_obs::stage::timer(cr_obs::stage::Stage::Entropy);

        // Frequency pass.
        let mut lit_freq = vec![0u64; NUM_LITLEN];
        let mut dist_freq = vec![0u64; NUM_DIST];
        for t in &tokens {
            match *t {
                Token::Literal(b) => lit_freq[b as usize] += 1,
                Token::Match { len, dist } => {
                    lit_freq[257 + length_code(&ltab, len).0] += 1;
                    dist_freq[dist_code(&dtab, dist).0] += 1;
                }
            }
        }
        lit_freq[EOB] += 1;

        let (lit_enc, lit_lens) =
            Encoder::from_freqs(&lit_freq, MAX_CODE_LEN);
        let (dist_enc, dist_lens) =
            Encoder::from_freqs(&dist_freq, MAX_CODE_LEN);
        write_lengths(&mut w, &lit_lens);
        write_lengths(&mut w, &dist_lens);

        for t in &tokens {
            match *t {
                Token::Literal(b) => lit_enc.write(&mut w, b as usize),
                Token::Match { len, dist } => {
                    let (lc, lextra) = length_code(&ltab, len);
                    lit_enc.write(&mut w, 257 + lc);
                    if ltab[lc].1 > 0 {
                        w.write_bits(lextra as u64, ltab[lc].1);
                    }
                    let (dc, dextra) = dist_code(&dtab, dist);
                    dist_enc.write(&mut w, dc);
                    if dtab[dc].1 > 0 {
                        w.write_bits(dextra as u64, dtab[dc].1);
                    }
                }
            }
        }
        lit_enc.write(&mut w, EOB);
        if let Some(t) = entropy_t.as_mut() {
            t.add_bytes(block.len() as u64);
        }
        drop(entropy_t);
    }
    out.extend_from_slice(&w.finish());
}

fn decompress_impl(input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    if input.len() < 10 || input[0] != MAGIC {
        return Err(CodecError::new("bad gz header"));
    }
    let total = u64::from_le_bytes(input[2..10].try_into().unwrap()) as usize;
    crate::reserve_declared(out, total, input.len());
    if total == 0 {
        return Ok(());
    }
    let ltab = length_table();
    let dtab = dist_table();
    let mut r = BitReader::new(&input[10..]);

    while out.len() < total {
        let block_start = out.len();
        let block_limit = (total - block_start).min(BLOCK_SIZE);
        let lit_lens = read_lengths(&mut r, NUM_LITLEN)?;
        let dist_lens = read_lengths(&mut r, NUM_DIST)?;
        let lit_dec = Decoder::from_lengths(&lit_lens)?;
        let dist_dec = Decoder::from_lengths(&dist_lens)?;

        loop {
            let sym = lit_dec.read(&mut r)? as usize;
            if sym == EOB {
                break;
            }
            if sym < 256 {
                out.push(sym as u8);
            } else {
                let lc = sym - 257;
                if lc >= 29 {
                    return Err(CodecError::new("invalid length code"));
                }
                let (base, extra) = ltab[lc];
                let len = base + r.read_bits(extra)? as u32;
                let dc = dist_dec.read(&mut r)? as usize;
                if dc >= NUM_DIST {
                    return Err(CodecError::new("invalid distance code"));
                }
                let (dbase, dextra) = dtab[dc];
                let dist = (dbase + r.read_bits(dextra)? as u32) as usize;
                let within = out.len() - block_start;
                if dist == 0 || dist > within {
                    return Err(CodecError::new("distance out of block"));
                }
                let start = out.len() - dist;
                for i in 0..len as usize {
                    let b = out[start + i];
                    out.push(b);
                }
            }
            if out.len() - block_start > block_limit {
                return Err(CodecError::new("block overruns declared size"));
            }
        }
        if out.len() - block_start != block_limit {
            return Err(CodecError::new("block size mismatch"));
        }
    }
    Ok(())
}

impl Codec for Deflate {
    fn name(&self) -> &'static str {
        "gz"
    }

    fn level(&self) -> u32 {
        self.level
    }

    fn compress(&self, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        compress_impl(self, input, out);
    }

    fn compress_append(&self, input: &[u8], out: &mut Vec<u8>) {
        compress_impl(self, input, out);
    }

    fn decompress(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        out.clear();
        decompress_impl(input, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_level(data: &[u8], level: u32) -> usize {
        let c = Deflate::new(level);
        let compressed = c.compress_to_vec(data);
        let restored = c.decompress_to_vec(&compressed).unwrap();
        assert_eq!(restored, data, "level {level}");
        compressed.len()
    }

    fn round_trip(data: &[u8]) -> usize {
        round_trip_level(data, 6)
    }

    #[test]
    fn bucket_tables_match_deflate_spec() {
        let lt = length_table();
        assert_eq!(lt[0], (3, 0));
        assert_eq!(lt[7], (10, 0));
        assert_eq!(lt[8], (11, 1));
        assert_eq!(lt[27], (227, 5));
        assert_eq!(lt[28], (258, 0));
        let dt = dist_table();
        assert_eq!(dt[0], (1, 0));
        assert_eq!(dt[3], (4, 0));
        assert_eq!(dt[4], (5, 1));
        assert_eq!(dt[29], (24_577, 13));
    }

    #[test]
    fn code_lookup_inverts_tables() {
        let lt = length_table();
        for len in 3..=258u32 {
            let (idx, extra) = length_code(&lt, len);
            assert_eq!(lt[idx].0 + extra, len, "len {len}");
            assert!(extra < (1 << lt[idx].1) || lt[idx].1 == 0);
        }
        let dt = dist_table();
        for dist in (1..=32_768u32).step_by(7) {
            let (idx, extra) = dist_code(&dt, dist);
            assert_eq!(dt[idx].0 + extra, dist, "dist {dist}");
        }
    }

    #[test]
    fn empty_and_tiny() {
        round_trip(b"");
        round_trip(b"x");
        round_trip(b"ab");
    }

    #[test]
    fn text_compresses_well() {
        let data = b"It involves saving the state of the application \
                     required to resume the application to stable storage."
            .repeat(200);
        let n = round_trip(&data);
        assert!(n < data.len() / 10, "{n} of {}", data.len());
    }

    #[test]
    fn all_levels_round_trip() {
        let data: Vec<u8> = (0..50_000u32)
            .flat_map(|i| ((i as f64 / 100.0).sin() as f32).to_le_bytes())
            .collect();
        let mut sizes = Vec::new();
        for level in 1..=9 {
            sizes.push(round_trip_level(&data, level));
        }
        // Higher levels never much worse than level 1.
        assert!(*sizes.last().unwrap() <= sizes[0] + sizes[0] / 20);
    }

    #[test]
    fn multi_block_inputs() {
        // Exceeds BLOCK_SIZE to exercise block framing.
        let data = b"0123456789abcdef".repeat(40_000); // 640 KB
        assert!(data.len() > BLOCK_SIZE);
        let n = round_trip(&data);
        assert!(n < data.len() / 20);
    }

    #[test]
    fn incompressible_data_survives() {
        let mut x = 0xDEADBEEFu64;
        let data: Vec<u8> = (0..300_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        let n = round_trip(&data);
        // Huffman on random bytes: small overhead only.
        assert!(n < data.len() + data.len() / 10);
    }

    #[test]
    fn zeros_compress_to_almost_nothing() {
        let data = vec![0u8; 1 << 20];
        let n = round_trip(&data);
        assert!(n < 2048, "1 MiB of zeros -> {n} bytes");
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let c = Deflate::new(6);
        assert!(c.decompress_to_vec(b"nope").is_err());
        let data = b"some compressible payload ".repeat(100);
        let compressed = c.compress_to_vec(&data);
        for cut in [0, 1, 9, 10, compressed.len() / 2] {
            assert!(
                c.decompress_to_vec(&compressed[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn corrupt_bitstream_is_an_error_not_a_panic() {
        let c = Deflate::new(3);
        let data = b"abcdefgh".repeat(1000);
        let mut compressed = c.compress_to_vec(&data);
        let len = compressed.len();
        for i in (10..len).step_by(97) {
            compressed[i] ^= 0x55;
            let _ = c.decompress_to_vec(&compressed); // must not panic
            compressed[i] ^= 0x55;
        }
    }

    #[test]
    #[should_panic(expected = "gz level")]
    fn invalid_level_panics() {
        let _ = Deflate::new(0);
    }
}
