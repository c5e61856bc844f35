//! `bwz` — a bzip2-family block codec: Burrows–Wheeler transform of
//! cyclic rotations (suffix ranking by prefix doubling), move-to-front,
//! bzip2-style zero run-length encoding (RUNA/RUNB bijective base-2),
//! and canonical Huffman coding. Levels 1–9 select the block size
//! (`level × 100 kB`), exactly as bzip2's levels do.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{Decoder, Encoder};
use crate::{Codec, CodecError};

const MAGIC: u8 = 0x42; // 'B'
const BLOCK_UNIT: usize = 100_000;
const RUNA: usize = 256;
const RUNB: usize = 257;
const EOB: usize = 258;
const ALPHABET: usize = 259;
const CODE_LEN_BITS: u32 = 4;
const MAX_CODE_LEN: u32 = 15;

/// The `bwz` codec at a given level (1..=9).
#[derive(Debug, Clone, Copy)]
pub struct Bwz {
    level: u32,
}

impl Bwz {
    /// Creates the codec; `level` selects the block size
    /// (`level × 100 kB`).
    pub fn new(level: u32) -> Self {
        assert!((1..=9).contains(&level), "bwz level must be 1..=9");
        Bwz { level }
    }

    fn block_size(&self) -> usize {
        self.level as usize * BLOCK_UNIT
    }
}

/// Sorts the cyclic rotations of `data` by prefix doubling and returns
/// `(bwt_last_column, primary_index)`.
fn bwt_forward(data: &[u8]) -> (Vec<u8>, u32) {
    let n = data.len();
    debug_assert!(n > 0);
    if n == 1 {
        return (vec![data[0]], 0);
    }

    // rank[i] = equivalence class of rotation i under the first 2^k
    // chars; sa = rotations sorted by current rank pair.
    let mut rank: Vec<u32> = data.iter().map(|&b| b as u32).collect();
    let mut sa: Vec<u32> = (0..n as u32).collect();
    let mut tmp: Vec<u32> = vec![0; n];
    let mut pairs: Vec<(u32, u32)> = vec![(0, 0); n];
    let mut step = 1usize;

    loop {
        for i in 0..n {
            let j = (i + step) % n;
            pairs[i] = (rank[i], rank[j]);
        }
        sa.sort_unstable_by_key(|&i| pairs[i as usize]);

        // Re-rank.
        let mut r = 0u32;
        tmp[sa[0] as usize] = 0;
        for w in 1..n {
            if pairs[sa[w] as usize] != pairs[sa[w - 1] as usize] {
                r += 1;
            }
            tmp[sa[w] as usize] = r;
        }
        std::mem::swap(&mut rank, &mut tmp);
        if r as usize == n - 1 {
            break; // all rotations distinct
        }
        step *= 2;
        if step >= 2 * n {
            // Fully periodic input: ranks have converged; ties are
            // between identical rotations, so any order is correct.
            break;
        }
    }

    let mut last = Vec::with_capacity(n);
    let mut primary = 0u32;
    for (row, &start) in sa.iter().enumerate() {
        let s = start as usize;
        last.push(data[(s + n - 1) % n]);
        if s == 0 {
            primary = row as u32;
        }
    }
    (last, primary)
}

/// Inverts the BWT given the last column and the primary index.
fn bwt_inverse(last: &[u8], primary: u32) -> Result<Vec<u8>, CodecError> {
    let n = last.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    if primary as usize >= n {
        return Err(CodecError::new("primary index out of range"));
    }
    // cnt[c] = rows whose first char sorts before c; lf[i] = row of the
    // rotation starting one char earlier.
    let mut counts = [0u32; 256];
    for &b in last {
        counts[b as usize] += 1;
    }
    let mut starts = [0u32; 256];
    let mut acc = 0u32;
    for c in 0..256 {
        starts[c] = acc;
        acc += counts[c];
    }
    let mut lf = vec![0u32; n];
    let mut seen = [0u32; 256];
    for (i, &b) in last.iter().enumerate() {
        lf[i] = starts[b as usize] + seen[b as usize];
        seen[b as usize] += 1;
    }

    let mut out = vec![0u8; n];
    let mut row = primary as usize;
    for k in (0..n).rev() {
        out[k] = last[row];
        row = lf[row] as usize;
    }
    Ok(out)
}

/// Move-to-front transform.
fn mtf_forward(data: &[u8]) -> Vec<u8> {
    let mut order: Vec<u8> = (0..=255).collect();
    data.iter()
        .map(|&b| {
            let idx = order.iter().position(|&x| x == b).unwrap();
            order.copy_within(0..idx, 1);
            order[0] = b;
            idx as u8
        })
        .collect()
}

/// Inverse move-to-front.
fn mtf_inverse(data: &[u8]) -> Vec<u8> {
    let mut order: Vec<u8> = (0..=255).collect();
    data.iter()
        .map(|&i| {
            let idx = i as usize;
            let b = order[idx];
            order.copy_within(0..idx, 1);
            order[0] = b;
            b
        })
        .collect()
}

/// bzip2-style RLE of MTF zeros: a run of `n` zeros becomes bijective
/// base-2 digits (RUNA = 1, RUNB = 2, least significant first); nonzero
/// MTF byte `v` becomes symbol `v`.
fn rle_encode(mtf: &[u8], symbols: &mut Vec<u16>) {
    let mut run = 0u64;
    let flush = |run: &mut u64, symbols: &mut Vec<u16>| {
        let mut n = *run;
        while n > 0 {
            // Bijective base-2 digit: 1 -> RUNA, 2 -> RUNB.
            if n % 2 == 1 {
                symbols.push(RUNA as u16);
                n = (n - 1) / 2;
            } else {
                symbols.push(RUNB as u16);
                n = (n - 2) / 2;
            }
        }
        *run = 0;
    };
    for &b in mtf {
        if b == 0 {
            run += 1;
        } else {
            flush(&mut run, symbols);
            symbols.push(b as u16);
        }
    }
    flush(&mut run, symbols);
}

/// Inverse of [`rle_encode`].
fn rle_decode(symbols: &[u16], out: &mut Vec<u8>) -> Result<(), CodecError> {
    let mut run = 0u64;
    let mut place = 1u64;
    let flush = |run: &mut u64, place: &mut u64, out: &mut Vec<u8>| {
        for _ in 0..*run {
            out.push(0);
        }
        *run = 0;
        *place = 1;
    };
    for &s in symbols {
        match s as usize {
            RUNA => {
                run += place;
                place *= 2;
            }
            RUNB => {
                run += 2 * place;
                place *= 2;
            }
            v if v < 256 && v > 0 => {
                flush(&mut run, &mut place, out);
                out.push(v as u8);
            }
            _ => return Err(CodecError::new("invalid RLE symbol")),
        }
    }
    flush(&mut run, &mut place, out);
    Ok(())
}

fn compress_impl(codec: &Bwz, input: &[u8], out: &mut Vec<u8>) {
    out.push(MAGIC);
    out.push(codec.level as u8);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());
    if input.is_empty() {
        return;
    }
    let mut w = BitWriter::new();
    let mut symbols: Vec<u16> = Vec::new();
    for block in input.chunks(codec.block_size()) {
        let (last, primary) = bwt_forward(block);
        let mtf = mtf_forward(&last);
        symbols.clear();
        rle_encode(&mtf, &mut symbols);

        w.write_bits(block.len() as u64, 32);
        w.write_bits(primary as u64, 32);

        let mut freqs = vec![0u64; ALPHABET];
        for &s in &symbols {
            freqs[s as usize] += 1;
        }
        freqs[EOB] += 1;
        let (enc, lens) = Encoder::from_freqs(&freqs, MAX_CODE_LEN);
        for &l in &lens {
            w.write_bits(l as u64, CODE_LEN_BITS);
        }
        for &s in &symbols {
            enc.write(&mut w, s as usize);
        }
        enc.write(&mut w, EOB);
    }
    out.extend_from_slice(&w.finish());
}

fn decompress_impl(input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    if input.len() < 10 || input[0] != MAGIC {
        return Err(CodecError::new("bad bwz header"));
    }
    let total = u64::from_le_bytes(input[2..10].try_into().unwrap()) as usize;
    crate::reserve_declared(out, total, input.len());
    if total == 0 {
        return Ok(());
    }
    let mut r = BitReader::new(&input[10..]);
    let mut symbols: Vec<u16> = Vec::new();
    while out.len() < total {
        let block_len = r.read_bits(32)? as usize;
        let primary = r.read_bits(32)? as u32;
        if block_len == 0 || out.len() + block_len > total {
            return Err(CodecError::new("invalid block length"));
        }
        let mut lens = vec![0u32; ALPHABET];
        for l in lens.iter_mut() {
            *l = r.read_bits(CODE_LEN_BITS)? as u32;
        }
        let dec = Decoder::from_lengths(&lens)?;
        symbols.clear();
        loop {
            let s = dec.read(&mut r)?;
            if s as usize == EOB {
                break;
            }
            symbols.push(s);
            if symbols.len() > 2 * block_len + 64 {
                return Err(CodecError::new("symbol stream overruns block"));
            }
        }
        let mut mtf = Vec::with_capacity(block_len);
        rle_decode(&symbols, &mut mtf)?;
        if mtf.len() != block_len {
            return Err(CodecError::new("MTF length mismatch"));
        }
        let last = mtf_inverse(&mtf);
        let data = bwt_inverse(&last, primary)?;
        out.extend_from_slice(&data);
    }
    Ok(())
}

impl Codec for Bwz {
    fn name(&self) -> &'static str {
        "bwz"
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

    #[test]
    fn bwt_known_example() {
        // Classic example: "banana" rotations sorted ->
        // last column "nnbaaa", primary index 3.
        let (last, primary) = bwt_forward(b"banana");
        assert_eq!(&last, b"nnbaaa");
        assert_eq!(primary, 3);
        let back = bwt_inverse(&last, primary).unwrap();
        assert_eq!(&back, b"banana");
    }

    #[test]
    fn bwt_round_trips_edge_cases() {
        for data in [
            b"a".to_vec(),
            b"ab".to_vec(),
            b"aaaa".to_vec(),        // fully periodic
            b"abababab".to_vec(),    // periodic, period 2
            b"abcabcabc".to_vec(),   // periodic, period 3
            (0u8..=255).collect::<Vec<u8>>(),
            vec![0u8; 1000],
        ] {
            let (last, primary) = bwt_forward(&data);
            let back = bwt_inverse(&last, primary).unwrap();
            assert_eq!(back, data, "failed on {data:?}");
        }
    }

    #[test]
    fn bwt_random_round_trip() {
        let mut x = 7u64;
        let data: Vec<u8> = (0..30_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 40) as u8 % 16 // small alphabet -> many ties
            })
            .collect();
        let (last, primary) = bwt_forward(&data);
        assert_eq!(bwt_inverse(&last, primary).unwrap(), data);
    }

    #[test]
    fn mtf_round_trip_and_zeros() {
        let data = b"aaabbbcccaaa".to_vec();
        let mtf = mtf_forward(&data);
        // Repeated symbols become zeros after the first occurrence.
        assert_eq!(mtf[1], 0);
        assert_eq!(mtf[2], 0);
        assert_eq!(mtf_inverse(&mtf), data);
    }

    #[test]
    fn rle_round_trip_runs() {
        for run_len in [1usize, 2, 3, 4, 7, 8, 100, 1000] {
            let mut mtf = vec![0u8; run_len];
            mtf.push(5);
            mtf.extend(vec![0u8; run_len / 2]);
            let mut syms = Vec::new();
            rle_encode(&mtf, &mut syms);
            let mut back = Vec::new();
            rle_decode(&syms, &mut back).unwrap();
            assert_eq!(back, mtf, "run_len {run_len}");
        }
    }

    #[test]
    fn rle_long_runs_are_logarithmic() {
        let mtf = vec![0u8; 1_000_000];
        let mut syms = Vec::new();
        rle_encode(&mtf, &mut syms);
        assert!(syms.len() <= 21, "run encoded in {} symbols", syms.len());
    }

    fn round_trip_level(data: &[u8], level: u32) -> usize {
        let c = Bwz::new(level);
        let compressed = c.compress_to_vec(data);
        let restored = c.decompress_to_vec(&compressed).unwrap();
        assert_eq!(restored, data, "level {level}");
        compressed.len()
    }

    #[test]
    fn empty_and_tiny() {
        round_trip_level(b"", 1);
        round_trip_level(b"z", 1);
        round_trip_level(b"zz", 9);
    }

    #[test]
    fn text_compresses_better_than_half() {
        let data = b"multilevel checkpointing stores frequent checkpoints \
                     to node-local storage and occasional checkpoints to \
                     the parallel file system. "
            .repeat(500);
        let n = round_trip_level(&data, 1);
        assert!(n < data.len() / 8, "{n} of {}", data.len());
    }

    #[test]
    fn multi_block_input() {
        let data = b"block boundary test ".repeat(12_000); // 240 kB, 3 blocks at level 1
        let n = round_trip_level(&data, 1);
        assert!(n < data.len() / 8);
    }

    #[test]
    fn level9_beats_level1_on_large_structured_data() {
        let data: Vec<u8> = (0..60_000u32)
            .flat_map(|i| ((i / 7) as f64).sqrt().to_le_bytes())
            .collect(); // 480 kB
        let n1 = round_trip_level(&data, 1);
        let n9 = round_trip_level(&data, 9);
        assert!(
            n9 <= n1 + n1 / 50,
            "level 9 ({n9}) much worse than level 1 ({n1})"
        );
    }

    #[test]
    fn incompressible_data_survives() {
        let mut x = 3u64;
        let data: Vec<u8> = (0..150_000)
            .map(|_| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                (x >> 33) as u8
            })
            .collect();
        let n = round_trip_level(&data, 1);
        assert!(n < data.len() + data.len() / 10);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        let c = Bwz::new(1);
        assert!(c.decompress_to_vec(b"junk").is_err());
        let data = b"hello bwz hello bwz ".repeat(50);
        let compressed = c.compress_to_vec(&data);
        for cut in [0, 3, 10, compressed.len() / 2] {
            assert!(c.decompress_to_vec(&compressed[..cut]).is_err());
        }
    }

    #[test]
    fn corrupt_primary_index_detected() {
        let c = Bwz::new(1);
        let data = b"abcdefgh".repeat(100);
        let mut compressed = c.compress_to_vec(&data);
        // Flip bits in the primary index field (after the 10-byte
        // header, second 32-bit bit-field). Must error or produce wrong
        // output, never panic.
        compressed[14] ^= 0xFF;
        let _ = c.decompress_to_vec(&compressed);
    }
}
