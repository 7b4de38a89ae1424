//! The metric catalogue and the result row.
//!
//! `BENCHMARK.json` lists the same names and units; the self-test holds
//! every workload's output to this catalogue.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use switchpointer::query::QUERY_CLASS_NAMES;

/// End-to-end metrics, reported by every untraced run, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("capacity_qps", "1/s"),
    ("window_p50_ms", "ms"),
    ("window_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run, with their units.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| v.push((n.to_string(), u));
    add("setup.sim_s", "s");
    add("setup.capture_s", "s");
    add("setup.launch_s", "s");
    for c in QUERY_CLASS_NAMES {
        add(&format!("core.exec_us.{c}"), "us");
    }
    for c in QUERY_CLASS_NAMES {
        add(&format!("router.rpcs_per_query.{c}"), "count");
    }
    for c in QUERY_CLASS_NAMES {
        add(&format!("router.rounds_per_query.{c}"), "count");
    }
    add("router.wave_rpcs_per_query", "count");
    for c in QUERY_CLASS_NAMES {
        add(&format!("wire.front_exec_us.{c}"), "us");
    }
    add("wire.client_hop_us", "us");
    add("wire.rtt_p50_us", "us");
    add("wire.rtt_p90_us", "us");
    add("wire.serve_us", "us");
    add("wire.decode_us", "us");
    add("wire.encode_us", "us");
    add("wire.unattributed_pct", "%");
    add("wire.frames_per_wave", "count");
    add("wire.bytes_per_query", "bytes");
    add("pool.busy_pct", "%");
    add("pool.idle_pct", "%");
    add("pool.steals_per_batch", "count");
    add("queryplane.exec_share", "ratio");
    add("stream.close_ms", "ms");
    add("stream.drain_us", "us");
    add("stream.evaluations_per_window", "count");
    add("stream.incidents_per_window", "count");
    add("repl.publish_p50_ms", "ms");
    add("repl.publish_p90_ms", "ms");
    add("repl.apply_us", "us");
    add("repl.cloned_records_per_window", "count");
    add("repl.bootstraps", "count");
    add("repl.lag_end", "count");
    add("trace.overhead_pct", "%");
    add("gen.open_p50_us", "us");
    add("gen.open_p90_us", "us");
    add("gen.late_p99_us", "us");
    add("gen.achieved_over_offered", "ratio");
    v
}

/// Layer groups, by metric-name prefix. A workload names the groups it
/// exercises; the metrics of every other group read 0 ("not exercised
/// here"), and a missing metric of an exercised group is a bug the
/// self-test catches.
const GROUPS: [&str; 10] = [
    "setup.",
    "core.",
    "router.",
    "wire.",
    "pool.",
    "queryplane.",
    "stream.",
    "repl.",
    "trace.",
    "gen.",
];

/// One run's result row.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Whole-run checks beyond per-operation verdicts (e.g. incident
    /// stream parity); any failure makes the run incorrect.
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result row.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records one operation outcome.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty() && self.attempted > 0
    }

    /// Fills every metric of a group the workload does not exercise
    /// with 0.
    pub fn zero_unexercised(&mut self, exercised: &[&str]) {
        for (name, _) in per_layer() {
            let group = GROUPS
                .iter()
                .find(|g| name.starts_with(*g))
                .expect("every per-layer metric belongs to a group");
            if !exercised.contains(group) {
                self.metrics.entry(name).or_insert(0.0);
            }
        }
    }

    /// The catalogue the run reports against: end-to-end metrics for an
    /// untraced run, per-layer metrics for a traced one.
    pub fn catalogue(traced: bool) -> Vec<(String, &'static str)> {
        if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        }
    }

    /// Names of catalogue metrics that are missing or not finite.
    pub fn invalid(&self, traced: bool) -> Vec<String> {
        Self::catalogue(traced)
            .into_iter()
            .filter(|(n, _)| !self.metrics.get(n).is_some_and(|v| v.is_finite()))
            .map(|(n, _)| n)
            .collect()
    }

    /// The result row: one JSON object with exactly the catalogue's
    /// metrics.
    pub fn json(&self, traced: bool) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        )
        .unwrap();
        for (i, (name, unit)) in Self::catalogue(traced).iter().enumerate() {
            let v = self.metrics.get(name).copied().unwrap_or(f64::NAN);
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            )
            .unwrap();
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (a bug the self-test catches) print as null.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// JSON string escaping for the metadata row and span file.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
