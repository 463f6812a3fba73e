//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json` (a test keeps
//! them equal). A run with `--trace 0` prints every end-to-end metric,
//! a run with `--trace 1` every per-layer metric; a per-layer metric of
//! a layer the workload bypasses reads 0.

use evs::telemetry::{ProcessReport, Telemetry};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.token_visit_ns", "ns"),
    ("core.data_frame_ns", "ns"),
    ("core.submit_ns", "ns"),
    ("core.timer_ns", "ns"),
    ("core.timer_calls_per_s", "1/s"),
    ("core.busy_ns_per_msg", "ns"),
    ("core.deliveries_per_callback", "count"),
    ("core.dispatch_ns_per_msg", "ns"),
    ("order.rotation_us", "us"),
    ("order.msgs_per_rotation", "count"),
    ("order.stamped_per_visit_p50", "count"),
    ("order.retrans_per_kmsg", "count"),
    ("order.idle_rotation_share", "share"),
    ("live.wake_lag_us", "us"),
    ("live.invoke_ns", "ns"),
    ("live.parked_share", "share"),
    ("live.driver_ns_per_msg", "ns"),
    ("live.deliver_p99_us", "us"),
    ("live.deliver_p999_us", "us"),
    ("live.deliver_samples", "count"),
    ("broker.submit_ns", "ns"),
    ("broker.submit_ns_growth", "ratio"),
    ("broker.take_replies_ns_per_op", "ns"),
    ("broker.ops_per_batch", "count"),
    ("broker.backpressure_share", "share"),
    ("broker.deduped", "count"),
    ("sim.pump_ns_per_op", "ns"),
    ("sim.msgs_sent_per_op", "count"),
    ("sim.tokens_per_op", "count"),
    ("sim.reply_p50_ticks", "ticks"),
    ("sim.reply_p99_ticks", "ticks"),
    ("net.recv_ns_per_msg", "ns"),
    ("net.send_ns_per_msg", "ns"),
    ("net.park_share", "share"),
    ("net.inspect_rtt_us", "us"),
    ("wire.decode_ns_per_msg", "ns"),
    ("store.wal_appends_per_msg", "count"),
    ("store.wal_ns_per_msg", "ns"),
    ("store.wal_sync_p50_us", "us"),
    ("store.wal_sync_max_us", "us"),
    ("store.replay_records", "count"),
    ("fault.outage_ms", "ms"),
    ("fault.rejoin_ms", "ms"),
    ("memb.detect_ms", "ms"),
    ("memb.install_ms", "ms"),
    ("memb.merge_ms", "ms"),
    ("memb.configs_delivered", "count"),
    ("recovery.steps_entered", "count"),
    ("mem.rss_kb_per_kmsg", "kB"),
    ("gen.late_p99_us", "us"),
    ("trace.overhead_share", "share"),
    ("bench.failed_share", "share"),
];

/// What one run measured: metric values by name, plus the op counts.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Ops (messages or client ops) the run attempted.
    pub attempted: u64,
    /// Attempted ops not delivered (or replied) by the drain deadline.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
}

impl Outcome {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Reads a recorded metric (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Takes the metrics of `other` whose names start with one of
    /// `prefixes`, and its op counts and correctness; `bench.failed_share`
    /// then covers both runs.
    pub fn absorb(&mut self, other: &Outcome, prefixes: &[&str]) {
        for (name, value) in &other.metrics {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.metrics.insert(name, *value);
            }
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct &= other.correct;
        self.set(
            "bench.failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the metric set of the requested mode. End-to-end
    /// metrics must all have been measured; an unmeasured per-layer
    /// metric (a layer the workload bypasses) reads 0.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let set = if trace { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in set.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {name} is not finite: {v}")),
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Sums counter `name` over `maps`, the counter tables of telemetry
/// snapshots or `OBS?` expositions; a table without it reads 0. Pass one
/// table, an `Option` of one, or an iterator over several.
pub fn counter<'a>(maps: impl IntoIterator<Item = &'a BTreeMap<String, u64>>, name: &str) -> u64 {
    maps.into_iter().filter_map(|m| m.get(name)).sum()
}

/// Snapshots every enabled telemetry handle.
pub fn snapshots(handles: &[Telemetry]) -> Vec<ProcessReport> {
    handles.iter().filter_map(Telemetry::snapshot).collect()
}

/// A finite float as a JSON number with every digit Rust prints.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue must equal the metric lists in `BENCHMARK.json`.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let listed = |section: &str| -> Vec<(String, String)> {
            let body = &text[text.find(&format!("\"{section}\"")).expect(section)..];
            let body = &body[..body.find(']').expect("section end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
                        let rest = &entry[at..];
                        let start = rest.find('"').expect("value") + 1;
                        let end = start + rest[start..].find('"').expect("value end");
                        rest[start..end].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn counters_sum_over_tables_and_read_missing_as_zero() {
        let a: BTreeMap<String, u64> = [("x".to_string(), 3), ("y".to_string(), 1)].into();
        let b: BTreeMap<String, u64> = [("x".to_string(), 4)].into();
        assert_eq!(counter([&a, &b], "x"), 7);
        assert_eq!(counter([&a, &b], "y"), 1);
        assert_eq!(counter(Some(&b), "y"), 0);
        assert_eq!(counter(None, "x"), 0);
    }

    #[test]
    fn absorbing_takes_prefixed_metrics_and_counts() {
        let mut ring = Outcome {
            attempted: 90,
            failed: 0,
            correct: true,
            ..Outcome::default()
        };
        ring.set("core.submit_ns", 1.0);
        ring.set("mem.rss_kb_per_kmsg", 2.0);
        let mut clients = Outcome {
            attempted: 10,
            failed: 5,
            correct: false,
            ..Outcome::default()
        };
        clients.set("broker.submit_ns", 3.0);
        clients.set("mem.rss_kb_per_kmsg", 4.0);
        ring.absorb(&clients, &["broker."]);
        assert_eq!(ring.get("core.submit_ns"), 1.0);
        assert_eq!(ring.get("broker.submit_ns"), 3.0);
        assert_eq!(ring.get("mem.rss_kb_per_kmsg"), 2.0);
        assert_eq!((ring.attempted, ring.failed, ring.correct), (100, 5, false));
        assert_eq!(ring.get("bench.failed_share"), 0.05);
    }

    #[test]
    fn result_line_carries_the_requested_set() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            correct: true,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.25);
        }
        o.set("core.submit_ns", 812.5);
        let e2e = o.result_line(false).unwrap();
        assert!(e2e.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1,"));
        assert!(e2e.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!e2e.contains("core.submit_ns"));
        let layer = o.result_line(true).unwrap();
        assert!(layer.contains("\"core.submit_ns\": {\"value\": 812.5, \"unit\": \"ns\"}"));
        assert!(layer.contains("\"net.park_share\": {\"value\": 0.0, \"unit\": \"share\"}"));
        assert!(!layer.contains("setup_s"));
        o.metrics.remove("throughput_per_s");
        assert!(o.result_line(false).is_err(), "a missing end-to-end metric");
        o.set("throughput_per_s", f64::NAN);
        assert!(o.result_line(false).is_err(), "a non-finite value");
    }
}
