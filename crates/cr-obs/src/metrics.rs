//! Metrics registry: counters, gauges, and log2-bucketed histograms,
//! snapshotted to the `metrics/v1` JSON schema.
//!
//! The registry is deliberately simple and deterministic: names are
//! stored in `BTreeMap`s so iteration (and therefore the JSON
//! snapshot) is in sorted order, and histogram bucketing is integer
//! bit math (`leading_zeros`), so bucket boundaries are identical on
//! every platform — no float log, no libm variance.

use std::collections::BTreeMap;

use crate::json::Value;

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]`, up to bucket 64 for
/// values in `[2^63, u64::MAX]`.
pub const HIST_BUCKETS: usize = 65;

/// A fixed log2-bucket histogram over `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

/// Bucket index for a value: `0` for 0, else `64 - leading_zeros`,
/// i.e. one plus the position of the highest set bit. Pure integer
/// math, so platform-independent by construction.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`: `0` for bucket 0, `2^i - 1`
/// for `1 ≤ i ≤ 63`, and `u64::MAX` for bucket 64.
pub fn bucket_bound(i: usize) -> u64 {
    debug_assert!(i < HIST_BUCKETS);
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Hist {
    /// New empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Quantile estimate with **bucket-midpoint semantics**: the
    /// observation of rank `⌈q·count⌉` (1-based, clamped to
    /// `[1, count]`) is located in its bucket, and the estimate
    /// returned is that bucket's midpoint — `0.0` for bucket 0 and
    /// `(2^(i-1) + 2^i − 1) / 2` for bucket `i ≥ 1`. The true value is
    /// within 2× of the estimate, which is the resolution log2 buckets
    /// buy.
    ///
    /// `q` is clamped to `[0, 1]`; `q = 0` is the smallest recorded
    /// bucket's midpoint and `q = 1` the largest. Returns `None` for
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(bucket_midpoint(i));
            }
        }
        // Unreachable: cum reaches self.count by construction.
        None
    }
}

/// Midpoint of bucket `i` in `f64`: `0.0` for bucket 0, else the mean
/// of the bucket's inclusive bounds `[2^(i-1), 2^i − 1]`.
fn bucket_midpoint(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        let lo = 2f64.powi(i as i32 - 1);
        let hi = 2f64.powi(i as i32) - 1.0;
        (lo + hi) / 2.0
    }
}

/// A named registry of counters, gauges and histograms.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Hist>,
}

impl Metrics {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `name` (created at zero on first use).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets gauge `name` to `v` (last write wins).
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records `v` into histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.hists.entry(name.to_string()).or_default().observe(v);
    }

    /// Counter value (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram by name, if any observation was recorded.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Renders the registry as a `metrics/v1` JSON document in the
    /// [`Value::render`] layout; in compact form:
    ///
    /// ```json
    /// {"schema": "metrics/v1", "label": "...",
    ///  "counters": {"name": 3}, "gauges": {"name": 1.5},
    ///  "histograms": {"name": {"count": 4, "sum": 10,
    ///                          "buckets": [{"le": 3, "count": 4}]}}}
    /// ```
    ///
    /// Keys are sorted, empty buckets are omitted, and non-finite
    /// gauges render as `null`, so the same registry always produces
    /// the same bytes. Integers at or above 2⁵³ render rounded (see
    /// [`Value::Num`]).
    pub fn to_json(&self, label: &str) -> String {
        let n = |v: u64| Value::Num(v as f64);
        let hist = |h: &Hist| {
            let buckets = (0..HIST_BUCKETS)
                .filter(|&i| h.buckets[i] != 0)
                .map(|i| {
                    Value::Obj(vec![
                        ("le".into(), n(bucket_bound(i))),
                        ("count".into(), n(h.buckets[i])),
                    ])
                })
                .collect();
            Value::Obj(vec![
                ("count".into(), n(h.count)),
                ("sum".into(), n(h.sum)),
                ("buckets".into(), Value::Arr(buckets)),
            ])
        };
        let counters = self.counters.iter().map(|(k, &v)| (k.clone(), n(v)));
        let gauges = self.gauges.iter().map(|(k, &v)| (k.clone(), Value::Num(v)));
        let hists = self.hists.iter().map(|(k, h)| (k.clone(), hist(h)));
        Value::Obj(vec![
            ("schema".into(), Value::Str("metrics/v1".into())),
            ("label".into(), Value::Str(label.into())),
            ("counters".into(), Value::Obj(counters.collect())),
            ("gauges".into(), Value::Obj(gauges.collect())),
            ("histograms".into(), Value::Obj(hists.collect())),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // The boundary cases that would differ if bucketing used a
        // float log: exact powers of two land in the bucket whose
        // *lower* bound they are.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1 << 20), 21);
        assert_eq!(bucket_index((1 << 20) - 1), 20);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
    }

    #[test]
    fn bucket_bounds_cover_the_domain_without_gaps() {
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(63), (1u64 << 63) - 1);
        assert_eq!(bucket_bound(64), u64::MAX);
        // Every value's bucket bound is ≥ the value, and the previous
        // bucket's bound is < the value.
        for v in [1u64, 2, 3, 4, 1000, 1 << 33, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_bound(i) >= v);
            assert!(bucket_bound(i - 1) < v);
        }
    }

    #[test]
    fn histogram_counts_and_sums() {
        let mut h = Hist::new();
        for v in [0u64, 1, 1, 5, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1031);
        assert_eq!(h.bucket(0), 1); // the 0
        assert_eq!(h.bucket(1), 2); // the 1s
        assert_eq!(h.bucket(3), 1); // 5 ∈ [4,7]
        assert_eq!(h.bucket(11), 1); // 1024 ∈ [1024, 2047]
    }

    #[test]
    fn quantile_boundaries_and_midpoints() {
        let mut h = Hist::new();
        // Observations: 0, 1, 5, 5, 1024 → sorted ranks 1..=5.
        for v in [0u64, 1, 5, 5, 1024] {
            h.observe(v);
        }
        // q=0 clamps to rank 1 → the 0 observation → bucket 0 midpoint.
        assert_eq!(h.quantile(0.0), Some(0.0));
        // q=0.5 → rank 3 → a 5 → bucket [4,7] midpoint 5.5.
        assert_eq!(h.quantile(0.5), Some(5.5));
        // q=1 → rank 5 → 1024 → bucket [1024,2047] midpoint 1535.5.
        assert_eq!(h.quantile(1.0), Some(1535.5));
        // Out-of-range q clamps rather than panics.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Hist::new();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), None);
        }
    }

    #[test]
    fn quantile_single_observation_is_its_bucket_midpoint() {
        let mut h = Hist::new();
        h.observe(6); // bucket [4,7], midpoint 5.5
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), Some(5.5));
        }
    }

    #[test]
    fn snapshot_is_deterministic_and_sorted() {
        let mut m = Metrics::new();
        m.inc("z_last", 2);
        m.inc("a_first", 1);
        m.gauge("ratio", 1.5);
        m.gauge("weird", f64::INFINITY);
        m.observe("lat", 3);
        m.observe("lat", 300);
        let a = m.to_json("test");
        let b = m.to_json("test");
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"schema\": \"metrics/v1\""));
        // Sorted keys: a_first before z_last.
        assert!(a.find("a_first").unwrap() < a.find("z_last").unwrap());
        assert!(a.contains("\"weird\": null"));
        // Every number parses back to what the registry holds.
        let doc = crate::json::parse(&a).unwrap();
        let section = |name: &str| doc.get(name).unwrap();
        let len = |name: &str| section(name).as_obj().unwrap().len();
        let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap();
        assert_eq!(len("counters"), m.counters.len());
        for (k, &v) in &m.counters {
            assert_eq!(num(section("counters").get(k)), v as f64, "{k}");
        }
        assert_eq!(len("gauges"), m.gauges.len());
        for (k, &v) in &m.gauges {
            let want = if v.is_finite() { Value::Num(v) } else { Value::Null };
            assert_eq!(section("gauges").get(k), Some(&want), "{k}");
        }
        assert_eq!(len("histograms"), m.hists.len());
        for (k, h) in &m.hists {
            let got = section("histograms").get(k).unwrap();
            assert_eq!(num(got.get("count")), h.count() as f64, "{k}");
            assert_eq!(num(got.get("sum")), h.sum() as f64, "{k}");
            let buckets: Vec<(f64, f64)> = got
                .get("buckets")
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|b| (num(b.get("le")), num(b.get("count"))))
                .collect();
            let want: Vec<(f64, f64)> = (0..HIST_BUCKETS)
                .filter(|&i| h.bucket(i) != 0)
                .map(|i| (bucket_bound(i) as f64, h.bucket(i) as f64))
                .collect();
            assert_eq!(buckets, want, "{k}");
        }
    }

    #[test]
    fn empty_registry_renders_empty_sections() {
        let m = Metrics::new();
        assert!(m.is_empty());
        let j = m.to_json("empty");
        assert!(j.contains("\"counters\": {}"));
        assert!(j.contains("\"gauges\": {}"));
        assert!(j.contains("\"histograms\": {}"));
    }

    #[test]
    fn counter_and_gauge_accessors() {
        let mut m = Metrics::new();
        m.inc("hits", 1);
        m.inc("hits", 4);
        m.gauge("mb_s", 12.5);
        assert_eq!(m.counter("hits"), 5);
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.gauge_value("mb_s"), Some(12.5));
        assert!(m.hist("absent").is_none());
    }
}
