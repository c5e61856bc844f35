//! What one pass (one child process) reports to the orchestrating
//! parent, as plain text lines:
//!
//! ```text
//! scalar <key> <value>      one number (phase walls, byte counts, ...)
//! sample <key> <value>      one latency sample, repeated
//! check <0|1> <message>     one output check and its verdict
//! digest <hex>              hash of the pass's outputs
//! span <layer> <name> <start_ns> <end_ns> <parent|->
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::Span;

/// The result of one pass.
#[derive(Debug, Default, Clone)]
pub struct PassReport {
    /// Named numbers; `add` accumulates.
    pub scalars: BTreeMap<String, f64>,
    /// Named latency samples.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Output checks made.
    pub attempted: u64,
    /// Messages of the checks that failed.
    pub fails: Vec<String>,
    /// Hash of the pass's outputs (same seed ⇒ same digest).
    pub digest: String,
    /// Spans of a traced pass.
    pub spans: Vec<Span>,
}

impl PassReport {
    /// Sets a scalar.
    pub fn set(&mut self, key: &str, v: f64) {
        self.scalars.insert(key.to_string(), v);
    }

    /// Adds to a scalar (missing counts as 0).
    pub fn add(&mut self, key: &str, v: f64) {
        *self.scalars.entry(key.to_string()).or_insert(0.0) += v;
    }

    /// A scalar, 0 when absent.
    pub fn get(&self, key: &str) -> f64 {
        self.scalars.get(key).copied().unwrap_or(0.0)
    }

    /// Appends a latency sample.
    pub fn sample(&mut self, key: &str, v: f64) {
        self.samples.entry(key.to_string()).or_default().push(v);
    }

    /// Samples of a key (empty when absent).
    pub fn samples_of(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Counts one output check; a failed one keeps its message.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fails.push(msg().replace('\n', " "));
        }
    }

    /// Renders the line protocol.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.scalars {
            let _ = writeln!(out, "scalar {k} {v}");
        }
        for (k, vs) in &self.samples {
            for v in vs {
                let _ = writeln!(out, "sample {k} {v}");
            }
        }
        let passed = self.attempted - self.fails.len() as u64;
        for _ in 0..passed {
            out.push_str("check 1 ok\n");
        }
        for m in &self.fails {
            let _ = writeln!(out, "check 0 {m}");
        }
        if !self.digest.is_empty() {
            let _ = writeln!(out, "digest {}", self.digest);
        }
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "span {} {} {} {} {parent}",
                s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Parses [`PassReport::render`] output.
    pub fn parse(text: &str) -> Result<PassReport, String> {
        let mut r = PassReport::default();
        for line in text.lines() {
            let mut f = line.splitn(2, ' ');
            let tag = f.next().unwrap_or("");
            let rest = f.next().unwrap_or("");
            let bad = || format!("malformed report line {line:?}");
            let num = |s: Option<&str>| -> Result<f64, String> {
                s.and_then(|s| s.parse().ok()).ok_or_else(bad)
            };
            match tag {
                "scalar" | "sample" => {
                    let mut p = rest.split(' ');
                    let key = p.next().ok_or_else(bad)?;
                    let v = num(p.next())?;
                    if tag == "scalar" {
                        r.set(key, v);
                    } else {
                        r.sample(key, v);
                    }
                }
                "check" => {
                    let (verdict, msg) = rest.split_once(' ').ok_or_else(bad)?;
                    r.check(verdict == "1", || msg.to_string());
                }
                "digest" => r.digest = rest.to_string(),
                "span" => {
                    let p: Vec<&str> = rest.split(' ').collect();
                    if p.len() != 5 {
                        return Err(bad());
                    }
                    r.spans.push(Span {
                        layer: p[0].to_string(),
                        name: p[1].to_string(),
                        start_ns: p[2].parse().map_err(|_| bad())?,
                        end_ns: p[3].parse().map_err(|_| bad())?,
                        parent: p[4].parse().ok(),
                    });
                }
                "" => {}
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }
}

/// FNV-1a over a byte stream: a stable digest for output comparison.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds the exact bits of a float.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    /// Hex digest.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut r = PassReport::default();
        r.set("phase1_s", 1.25);
        r.add("bytes", 3.0);
        r.add("bytes", 4.0);
        r.sample("commit_ms", 0.5);
        r.sample("commit_ms", 0.75);
        r.check(true, || "fine".into());
        r.check(false, || "restore of a/0\nmismatched".into());
        r.digest = "00ff".into();
        r.spans.push(Span {
            layer: "node".into(),
            name: "checkpoint".into(),
            start_ns: 5,
            end_ns: 9,
            parent: None,
        });
        let back = PassReport::parse(&r.render()).unwrap();
        assert_eq!(back.scalars, r.scalars);
        assert_eq!(back.samples, r.samples);
        assert_eq!(back.attempted, 2);
        assert_eq!(back.fails, vec!["restore of a/0 mismatched".to_string()]);
        assert_eq!(back.digest, "00ff");
        assert_eq!(back.spans, r.spans);
        assert!(PassReport::parse("bogus line").is_err());
    }
}
