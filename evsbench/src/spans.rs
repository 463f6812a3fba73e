//! The benchmark's own spans, recorded around calls into the program's
//! public functions (never inside the program).
//!
//! A span has a name, a start, an end, a parent (the span open on the
//! same thread when it began) and an id naming the message or op it
//! served. A layer's *self time* is its spans' duration minus the part
//! their child spans cover. Self time is aggregated online as spans close
//! (so the aggregate covers every span), while the raw spans are kept in
//! memory up to a cap and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept per log for the dump file; aggregates cover all spans.
const KEEP_SPANS: usize = 20_000;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.submit`.
    pub name: &'static str,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<usize>,
    /// The message or op the span served (0 when it served none).
    pub id: u64,
}

/// Per-name aggregate of closed spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time covered by their children.
    pub self_ns: u64,
}

impl SpanStat {
    /// Mean self time per span, in ns (0 when none closed).
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }

    fn add(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

/// An open span: where it is stored (if kept) and its children's time.
struct Open {
    name: &'static str,
    start_ns: u64,
    stored: Option<usize>,
    child_ns: u64,
}

/// One thread's span log. Disabled logs record nothing and cost one
/// branch per call.
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<Open>,
    stats: BTreeMap<&'static str, SpanStat>,
}

impl SpanLog {
    /// A log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> SpanLog {
        SpanLog {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            stats: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the currently open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().and_then(|o| o.stored);
        let stored = (self.spans.len() < KEEP_SPANS).then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                id,
            });
            self.spans.len() - 1
        });
        self.open.push(Open {
            name,
            start_ns,
            stored,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("exit without enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(i) = open.stored {
            self.spans[i].end_ns = end_ns;
        }
        let stat = self.stats.entry(open.name).or_default();
        stat.count += 1;
        stat.total_ns += dur;
        stat.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Per-name aggregates of every closed span.
    pub fn stats(&self) -> &BTreeMap<&'static str, SpanStat> {
        &self.stats
    }

    /// The raw spans kept (the first [`KEEP_SPANS`]).
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends the kept spans as tab-separated lines
    /// `log name start_ns end_ns parent id` (parent `-` for a root).
    pub fn write_tsv(&self, log: &str, out: &mut String) {
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{log}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
    }
}

/// Merges per-name aggregates of several logs.
pub fn merge_stats<'a>(
    logs: impl IntoIterator<Item = &'a BTreeMap<&'static str, SpanStat>>,
) -> BTreeMap<&'static str, SpanStat> {
    let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
    for log in logs {
        for (name, stat) in log {
            out.entry(name).or_default().add(stat);
        }
    }
    out
}

#[cfg(test)]
/// Self time per name computed from raw spans: each span's duration
/// minus the durations of the spans whose parent it is.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SpanStat> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let stat = out.entry(s.name).or_default();
        stat.count += 1;
        stat.total_ns += dur;
        stat.self_ns += dur.saturating_sub(child);
    }
    out
}

/// Measured cost of one enter/exit pair on this machine, in ns: the
/// tracing overhead per span.
pub fn calibrate() -> f64 {
    const PAIRS: u64 = 200_000;
    let mut log = SpanLog::new(Instant::now(), true);
    let start = Instant::now();
    for i in 0..PAIRS {
        log.enter("calibrate", i);
        log.exit();
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(log.stats());
    ns / PAIRS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // invoke [0,100) holds submit [10,40) and submit [50,90);
        // submit [50,90) holds wal [60,70).
        let spans = vec![
            span("invoke", 0, 100, None),
            span("submit", 10, 40, Some(0)),
            span("submit", 50, 90, Some(0)),
            span("wal", 60, 70, Some(2)),
            span("timer", 200, 230, None),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["invoke"],
            SpanStat {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["submit"],
            SpanStat {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(t["wal"].self_ns, 10);
        assert_eq!(t["timer"].self_ns, 30);
        assert_eq!(t["submit"].mean_self_ns(), 30.0);
    }

    #[test]
    fn online_aggregate_matches_offline_self_time() {
        let mut log = SpanLog::new(Instant::now(), true);
        for i in 0..50 {
            log.enter("outer", i);
            log.enter("inner", i);
            log.enter("leaf", i);
            log.exit();
            log.exit();
            log.enter("inner", i);
            log.exit();
            log.exit();
        }
        assert_eq!(log.spans().len(), 200);
        assert_eq!(log.spans()[1].parent, Some(0));
        assert_eq!(log.spans()[2].parent, Some(1));
        assert_eq!(log.spans()[3].parent, Some(0));
        assert_eq!(*log.stats(), self_times(log.spans()));
        let mut tsv = String::new();
        log.write_tsv("t0", &mut tsv);
        assert_eq!(tsv.lines().count(), 200);
        assert!(tsv.lines().next().unwrap().starts_with("t0\touter\t"));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), false);
        log.enter("x", 1);
        log.exit();
        assert!(log.spans().is_empty() && log.stats().is_empty());
    }

    #[test]
    fn merged_stats_add_up() {
        let mut a = BTreeMap::new();
        a.insert(
            "x",
            SpanStat {
                count: 1,
                total_ns: 10,
                self_ns: 5,
            },
        );
        let b = a.clone();
        let m = merge_stats([&a, &b]);
        assert_eq!(
            m["x"],
            SpanStat {
                count: 2,
                total_ns: 20,
                self_ns: 10
            }
        );
        assert!(calibrate() > 0.0);
    }
}
