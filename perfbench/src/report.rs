//! The raw measurements of one run, written as one JSON document on
//! standard output. `perfbench/run.py` turns them into the named metrics.

use crate::trace::Span;
use crate::Pass;
use std::collections::BTreeMap;
use std::fmt::Write;

/// One output check: its name, whether it held, and what was compared.
pub struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

/// One pass over the whole horizon.
pub struct Horizon {
    /// Seconds inside the timed calls.
    pub wall_s: f64,
    /// Reports delivered to the server.
    pub reports: u64,
    pub pass: Pass,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    /// Workload parameters, as JSON values.
    pub params: Vec<(&'static str, String)>,
    /// Seconds per repetition of the input generation.
    pub setup_s: Vec<f64>,
    pub ops: u64,
    pub ops_failed: u64,
    pub checks: Vec<Check>,
    pub horizons: Vec<Horizon>,
    /// Latency samples, milliseconds.
    pub close_ms: Vec<f64>,
    /// Per close sample, the number of orders whose interval closed.
    pub close_orders: Vec<u32>,
    pub recovery_ms: Vec<f64>,
    /// Per-layer counts, per horizon (or per setup for set-up layers).
    pub counters: BTreeMap<&'static str, f64>,
    /// The second execution path: engine name, seconds, reports.
    pub reference: (&'static str, f64, u64),
    pub spans: Vec<Span>,
    pub peak_rss_kb: u64,
    /// `calibration_ms` (integer loop, scattered reads) before and after
    /// the workload.
    pub calibration_ms: [[f64; 2]; 2],
}

impl Report {
    pub fn param(&mut self, key: &'static str, value: impl ToString) {
        self.params.push((key, value.to_string()));
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counters.insert(name, value);
    }

    pub fn to_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut o = String::new();
        let _ = write!(
            o,
            "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace}",
            quote(workload)
        );
        o.push_str(",\"params\":{");
        for (i, (k, v)) in self.params.iter().enumerate() {
            let _ = write!(o, "{}{}:{v}", comma(i), quote(k));
        }
        let _ = write!(o, "}},\"setup_s\":{}", floats(&self.setup_s));
        let _ = write!(
            o,
            ",\"ops\":{},\"ops_failed\":{}",
            self.ops, self.ops_failed
        );
        o.push_str(",\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            let _ = write!(
                o,
                "{}{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                comma(i),
                quote(c.name),
                c.ok,
                quote(&c.detail)
            );
        }
        o.push_str("],\"horizons\":[");
        for (i, h) in self.horizons.iter().enumerate() {
            let _ = write!(
                o,
                "{}{{\"wall_s\":{},\"reports\":{},\"pass\":\"{}\"}}",
                comma(i),
                float(h.wall_s),
                h.reports,
                h.pass.name()
            );
        }
        let _ = write!(
            o,
            "],\"close_ms\":{},\"close_orders\":{:?},\"recovery_ms\":{}",
            floats(&self.close_ms),
            self.close_orders,
            floats(&self.recovery_ms)
        );
        o.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let _ = write!(o, "{}{}:{}", comma(i), quote(k), float(*v));
        }
        let (engine, wall, reports) = self.reference;
        let _ = write!(
            o,
            "}},\"reference\":{{\"engine\":{},\"wall_s\":{},\"reports\":{reports}}}",
            quote(engine),
            float(wall)
        );
        let _ = write!(
            o,
            ",\"peak_rss_kb\":{},\"calibration_ms\":{{\"before\":{},\"after\":{}}}",
            self.peak_rss_kb,
            floats(&self.calibration_ms[0]),
            floats(&self.calibration_ms[1])
        );
        // Spans as rows over a name table: [name, op, id, parent, thread, start_ns, end_ns].
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        o.push_str(",\"span_names\":[");
        for (i, n) in names.iter().enumerate() {
            let _ = write!(o, "{}{}", comma(i), quote(n));
        }
        o.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let name = names
                .binary_search(&s.name)
                .expect("every span name is in the table");
            let _ = write!(
                o,
                "{}[{name},{},{},{},{},{},{}]",
                comma(i),
                s.op,
                s.id,
                s.parent,
                s.thread,
                s.start_ns,
                s.end_ns
            );
        }
        o.push_str("]}");
        o
    }
}

fn comma(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        ","
    }
}

fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".into()
    }
}

fn floats(vs: &[f64]) -> String {
    let parts: Vec<String> = vs.iter().map(|&v| float(v)).collect();
    format!("[{}]", parts.join(","))
}

fn quote(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}
