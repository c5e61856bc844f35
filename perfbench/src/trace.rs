//! In-memory spans recorded by the benchmark around its calls into each
//! layer.
//!
//! A span has a layer (the crate module it calls into), a name, a start
//! and end relative to the tracer's origin, and the span that was open
//! when it was recorded. A layer's self time is the time its spans cover
//! minus the part their child spans cover; the root span's self time is
//! the benchmark's own glue, reported as `trace.unattributed_share`.
//! Self times sum to the root span's duration by construction, which
//! [`Tracer::self_times`] callers check as the reconciliation.
//!
//! With tracing off nothing is stored; callers still time their calls
//! with [`Tracer::now`], which is what the untraced latency samples use.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer the span is charged to (`node`, `ndp`, `engine`, ...).
    pub layer: String,
    /// Operation within the layer.
    pub name: String,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Span recorder. Single-threaded: spans from worker threads are timed
/// by the caller and added with [`Tracer::record`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses the spans recorded until
    /// [`Tracer::exit`].
    pub fn enter(&mut self, layer: &str, name: &str) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            layer: layer.to_string(),
            name: name.to_string(),
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end_ns = end;
    }

    /// Records a leaf span the caller timed, under the innermost open
    /// span.
    pub fn record(&mut self, layer: &str, name: &str, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            layer: layer.to_string(),
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    /// Times `f` as a leaf span and returns its result with the elapsed
    /// seconds (measured whether or not tracing is on).
    pub fn time<R>(&mut self, layer: &str, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = self.now();
        let r = f();
        let t1 = self.now();
        self.record(layer, name, t0, t1);
        (r, (t1 - t0) as f64 / 1e9)
    }

    /// Drops every recorded span (set-up spans before the timed path).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear inside an open span");
        self.spans.clear();
    }

    /// Recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self seconds per layer: each span's duration minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.secs();
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry(s.layer.clone()).or_insert(0.0) += s.secs() - child[i];
    }
    out
}

/// Summed seconds and call count of every span with this layer and name.
pub fn busy(spans: &[Span], layer: &str, name: &str) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_root() {
        let mut tr = Tracer::new(true);
        tr.enter("bench", "pass");
        let t0 = tr.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t1 = tr.now();
        tr.record("node", "checkpoint", t0, t1);
        tr.enter("ndp", "drain");
        tr.record("ndp", "step", tr.now(), tr.now() + 1000);
        tr.exit();
        tr.exit();
        let st = self_times(tr.spans());
        let total: f64 = st.values().sum();
        let root = tr.spans()[0].secs();
        assert!((total - root).abs() < 1e-9, "{total} vs {root}");
        assert!(st["node"] >= 0.002);
        assert_eq!(busy(tr.spans(), "ndp", "step").1, 1);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut tr = Tracer::new(false);
        tr.enter("bench", "pass");
        let (v, secs) = tr.time("node", "x", || 7);
        tr.exit();
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
