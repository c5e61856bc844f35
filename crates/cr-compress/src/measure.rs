//! Measurement harness for the compression study (§5): compression
//! factor and single-thread compression/decompression speed of a codec
//! on a data set, the quantities reported in Table 2.

use std::time::Instant;

use crate::{compression_factor, Codec};

/// One measurement of a codec on one input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Input size, bytes.
    pub input_bytes: usize,
    /// Compressed size, bytes.
    pub compressed_bytes: usize,
    /// Compression factor `1 − compressed/uncompressed`.
    pub factor: f64,
    /// Single-thread compression speed, bytes/s of input consumed.
    pub compress_rate: f64,
    /// Single-thread decompression speed, bytes/s of output produced.
    pub decompress_rate: f64,
}

/// Compresses and decompresses `data` once, timing both directions and
/// verifying the round trip.
///
/// # Panics
///
/// Panics if the codec fails to reproduce its input — a measurement of a
/// broken codec would be meaningless.
pub fn measure(codec: &dyn Codec, data: &[u8]) -> Measurement {
    let mut compressed = Vec::new();
    let t0 = Instant::now();
    codec.compress(data, &mut compressed);
    let compress_secs = t0.elapsed().as_secs_f64();

    let mut restored = Vec::new();
    let t1 = Instant::now();
    codec
        .decompress(&compressed, &mut restored)
        .expect("measurement input failed to decompress");
    let decompress_secs = t1.elapsed().as_secs_f64();
    assert!(restored == data, "codec {} corrupted data", codec.label());

    Measurement {
        input_bytes: data.len(),
        compressed_bytes: compressed.len(),
        factor: compression_factor(data.len(), compressed.len()),
        compress_rate: rate(data.len(), compress_secs),
        decompress_rate: rate(data.len(), decompress_secs),
    }
}

/// Averages measurements over several inputs (the paper measures three
/// checkpoints per mini-app and reports per-app aggregates). Rates are
/// byte-weighted; the factor is computed over the pooled sizes.
pub fn measure_many<'a>(
    codec: &dyn Codec,
    inputs: impl IntoIterator<Item = &'a [u8]>,
) -> Measurement {
    let mut total_in = 0usize;
    let mut total_out = 0usize;
    let mut comp_secs = 0.0;
    let mut decomp_secs = 0.0;
    for data in inputs {
        let mut compressed = Vec::new();
        let t0 = Instant::now();
        codec.compress(data, &mut compressed);
        comp_secs += t0.elapsed().as_secs_f64();
        let mut restored = Vec::new();
        let t1 = Instant::now();
        codec
            .decompress(&compressed, &mut restored)
            .expect("measurement input failed to decompress");
        decomp_secs += t1.elapsed().as_secs_f64();
        assert!(restored == data, "codec {} corrupted data", codec.label());
        total_in += data.len();
        total_out += compressed.len();
    }
    Measurement {
        input_bytes: total_in,
        compressed_bytes: total_out,
        factor: compression_factor(total_in, total_out),
        compress_rate: rate(total_in, comp_secs),
        decompress_rate: rate(total_in, decomp_secs),
    }
}

impl Measurement {
    /// Compression throughput in decimal MB/s (the paper's unit),
    /// via the workspace-shared converter.
    pub fn compress_mb_per_s(&self) -> f64 {
        self.compress_rate / 1e6
    }

    /// Decompression throughput in decimal MB/s.
    pub fn decompress_mb_per_s(&self) -> f64 {
        self.decompress_rate / 1e6
    }
}

/// Division-safe bytes/s via the workspace-shared units helper, so this
/// crate and the `cr_obs` stage profiler agree on edge-case semantics
/// (0 bytes → 0.0 even at zero elapsed; nonzero bytes at zero elapsed
/// → ∞).
fn rate(bytes: usize, secs: f64) -> f64 {
    cr_obs::units::bytes_per_s(bytes as u64, secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lzf::Lzf;

    #[test]
    fn measure_reports_consistent_fields() {
        let data = b"measure me measure me measure me ".repeat(1000);
        let m = measure(&Lzf::new(), &data);
        assert_eq!(m.input_bytes, data.len());
        assert!(m.compressed_bytes < data.len());
        assert!((m.factor
            - (1.0 - m.compressed_bytes as f64 / m.input_bytes as f64))
            .abs()
            < 1e-12);
        assert!(m.compress_rate > 0.0);
        assert!(m.decompress_rate > 0.0);
    }

    #[test]
    fn measure_many_pools_sizes() {
        let a = b"aaaaaaaaaaaaaaaaaaaaaaaa".repeat(100);
        let b = b"bcdefghijklmnopqrstuvwxy".repeat(100);
        let inputs: Vec<&[u8]> = vec![&a, &b];
        let m = measure_many(&Lzf::new(), inputs);
        assert_eq!(m.input_bytes, a.len() + b.len());
        assert!(m.factor > 0.0);
    }

    #[test]
    fn empty_input_measures_cleanly() {
        let m = measure(&Lzf::new(), b"");
        assert_eq!(m.input_bytes, 0);
        assert_eq!(m.factor, 0.0);
        // Regression: zero bytes must rate as 0.0 even if the coarse
        // clock reports zero elapsed (previously NaN-or-∞ territory).
        assert!(m.compress_rate == 0.0 || m.compress_rate.is_finite());
        assert_eq!(rate(0, 0.0), 0.0);
        // Nonzero work in unmeasurably little time is ∞, not a panic.
        assert!(rate(1, 0.0).is_infinite());
    }

    #[test]
    fn mb_accessors_share_workspace_units() {
        let data = b"units units units units units units ".repeat(500);
        let m = measure(&Lzf::new(), &data);
        // Same decimal-MB definition as cr_obs::units: bytes/s
        // divided by 1e6.
        assert!((m.compress_mb_per_s() - m.compress_rate / 1e6).abs() < 1e-12);
        assert!(
            (m.decompress_mb_per_s() - m.decompress_rate / 1e6).abs() < 1e-12
        );
    }
}
