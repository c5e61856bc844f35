//! Shared throughput unit conversions.
//!
//! The paper reports compression and drain rates in **decimal**
//! megabytes per second (1 MB = 10⁶ bytes). Both the stage profiler
//! ([`crate::stage`]) and `cr_compress::measure` delegate here so the
//! per-stage rates and the Table 2 reproduction can never diverge on
//! units, and so the
//! division-by-zero edge (coarse clocks measuring `elapsed == 0`) is
//! handled once:
//!
//! * zero bytes → `0.0` regardless of elapsed time (including the
//!   `0 / 0` case, which naive division turns into `NaN` or a bogus
//!   `∞` rate);
//! * nonzero bytes in zero (or negative) time → `f64::INFINITY`,
//!   signalling "too fast for this clock" rather than a crash or a
//!   garbage number.

/// Bytes per second, division-safe (see module docs for the edges).
pub fn bytes_per_s(bytes: u64, secs: f64) -> f64 {
    if bytes == 0 {
        0.0
    } else if secs <= 0.0 {
        f64::INFINITY
    } else {
        bytes as f64 / secs
    }
}

/// Decimal megabytes per second (1 MB = 10⁶ bytes), division-safe.
pub fn mb_per_s(bytes: u64, secs: f64) -> f64 {
    bytes_per_s(bytes, secs) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_megabytes_match_the_paper() {
        // 64 MB in 0.1 s = 640 MB/s — the §3.5 host-compression rate.
        assert_eq!(mb_per_s(64_000_000, 0.1), 640.0);
        assert_eq!(bytes_per_s(1_000_000, 1.0), 1e6);
    }

    #[test]
    fn zero_elapsed_with_work_is_infinite_not_nan() {
        assert!(mb_per_s(1, 0.0).is_infinite());
        assert!(bytes_per_s(123, -1.0).is_infinite());
    }

    #[test]
    fn zero_bytes_is_zero_even_with_zero_elapsed() {
        // The 0/0 case a coarse clock can produce: must be 0, not NaN
        // and not infinity (no work happened).
        assert_eq!(mb_per_s(0, 0.0), 0.0);
        assert_eq!(bytes_per_s(0, 0.0), 0.0);
        assert_eq!(mb_per_s(0, 1.0), 0.0);
    }
}
