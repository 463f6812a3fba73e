//! Workload `clients`: the deterministic simulator's `BrokerCluster`
//! with 3 daemons, 3 brokers and a million client sessions.
//!
//! Closed loop: each client sends its next 8-byte op only after the
//! reply to its previous one. Client `c` talks to broker `c % 3`. The
//! run is sized in ops, not wall time, and the simulated network has a
//! fixed seed of its own ([`SIM_SEED`]: its jitter is a property of the
//! simulated deployment, not an input), so the simulated execution — and
//! with it every count and tick — repeats exactly; only the wall-clock
//! figures vary. The workload seed picks the op bytes.
//!
//! A run is a few independent cycles, each on a freshly built cluster.
//! Throughput and latency are medians over the windows of every cycle,
//! which spreads the samples over the whole run; every other metric is
//! the median over the cycles. A cycle's set-up builds the cluster, forms
//! the daemon group and opens every client's session.
//!
//! 1. **fill** (untimed) — every client submits its first op, and the
//!    closed loop runs until every client has had one reply. The burst
//!    of a million first ops drains here, so the timed phase starts with
//!    one op per client spread evenly through the pipeline.
//! 2. **steady** — the next `steady_ops` replies. Throughput is replies
//!    per wall second over sliding windows of one round (a window starts
//!    at every pump step and ends once the fleet has had as many replies
//!    as it has clients), so each window covers the pipeline's whole
//!    period. Latency is the wall time from submit to routed reply, in
//!    windows of the ops submitted at one pump step.
//! 3. **drain** — no new ops; every outstanding op must be replied.
//!
//! The check (outside the timed region): no daemon applied an op twice,
//! and every daemon applied every op — each daemon's applied count equals
//! the accepted ops, so `applied_total == ops × daemons`; the ops are
//! looked up one by one, to count the missing, only when a count falls
//! short.
//! `BrokerCluster::check()`, the full specification checker over the
//! daemon group's trace, runs on the short `--conformance` run: on a
//! million sessions it takes minutes.

use crate::report::{counter, snapshots, Outcome};
use crate::spans::{self, SpanLog};
use crate::stats::{self, median};
use crate::sys;
use evs::broker::{BrokerCluster, BrokerClusterConfig, BrokerParams, SubmitOutcome};
use evs::core::Payload;
use evs::telemetry::{names, Telemetry};
use std::time::Instant;

/// Daemons in the ordering group.
const DAEMONS: usize = 3;
/// Broker front-ends.
const BROKERS: usize = 3;
/// Bytes per client op.
const OP_BYTES: usize = 8;
/// Distinct op payloads generated per run; client `c` sends op
/// `c % OP_POOL`.
const OP_POOL: usize = 256;
/// Seed of the simulated network (latency jitter).
pub const SIM_SEED: u64 = 0xC11E;
/// Simulated ticks per pump call: replies are harvested, and the next
/// ops submitted, this often.
const PUMP_TICKS: u64 = 16;
/// Simulated ticks the drain may take before the run counts as stalled.
const BUDGET_TICKS: u64 = 5_000_000;

/// The size of one run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Client sessions.
    pub sessions: u64,
    /// Replies in the steady phase, which starts once every client has
    /// had its fill op replied.
    pub steady_ops: u64,
    /// Independent cycles, each on a freshly built cluster (and so each a
    /// measured set-up); metrics are medians over them.
    pub cycles: usize,
    /// Run the full specification checker over the daemon trace.
    pub conformance: bool,
}

impl Plan {
    /// The plan for a run of about `seconds` on a 2-core machine, whose
    /// broker tier completes about 300k ops/s at this session count. A
    /// cycle replies about twice the fleet untimed (the fill round and
    /// the drain) around its steady phase. Resident memory grows about
    /// 0.5 kB per op, so the steady phase stops growing at two rounds,
    /// which give about seven sliding one-round windows.
    pub fn for_seconds(seconds: u64) -> Plan {
        let sessions = 1_000_000;
        Plan {
            sessions,
            steady_ops: sessions * (seconds / 10).clamp(1, 2),
            cycles: 3,
            conformance: false,
        }
    }

    /// One cycle with one timed round: enough for the per-layer figures
    /// `ring`'s traced run takes from this workload.
    pub fn layers() -> Plan {
        Plan {
            cycles: 1,
            ..Plan::for_seconds(10)
        }
    }

    /// A short run for the full specification checker.
    pub fn conformance() -> Plan {
        Plan {
            sessions: 2_000,
            steady_ops: 4_000,
            cycles: 1,
            conformance: true,
        }
    }
}

/// Per-client closed-loop state.
struct Client {
    /// Wall ns (since the epoch) of the outstanding op's submit.
    sent_ns: u64,
    /// Simulated tick of the outstanding op's submit.
    sent_tick: u64,
    /// Sequence number of the first and the latest accepted op.
    first_seq: u64,
    last_seq: u64,
    /// True while an op is outstanding.
    waiting: bool,
    /// Replies this client has had.
    replies: u32,
}

/// One replied op.
#[derive(Clone, Copy, Debug)]
struct Done {
    /// Wall ns (since the epoch) of its submit.
    sent_ns: u64,
    /// Submit → reply, wall ns.
    wall_ns: u64,
    /// Submit → reply, simulated ticks.
    ticks: u64,
}

/// A cycle's steady phase, window by window.
#[derive(Debug, Default)]
struct Windows {
    /// Replies per wall second of each one-round window.
    rates: Vec<f64>,
    /// Latency percentiles of the ops submitted at each pump step, ns.
    p50_ns: Vec<f64>,
    p90_ns: Vec<f64>,
}

/// Reply rates (per second) over sliding windows of one round: from each
/// mark `(ns, replies so far)` to the first later mark at least `round`
/// replies on. Windows that would run past the last mark are left out.
fn round_rates(marks: &[(u64, u64)], round: u64) -> Vec<f64> {
    let mut out = Vec::new();
    for (i, &(t0, r0)) in marks.iter().enumerate() {
        let Some(&(t1, r1)) = marks[i + 1..].iter().find(|m| m.1 - r0 >= round) else {
            break;
        };
        out.push((r1 - r0) as f64 * 1e9 / (t1 - t0).max(1) as f64);
    }
    out
}

/// Splits the replied ops' latencies by the window they were submitted
/// in: window `i` spans `bounds[i]..bounds[i + 1]` (ns); ops submitted
/// before the first bound or after the last belong to none.
fn by_window(done: &[Done], bounds: &[u64]) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); bounds.len().saturating_sub(1)];
    for d in done {
        let w = bounds.partition_point(|&b| b <= d.sent_ns);
        if let Some(samples) = w.checked_sub(1).and_then(|w| out.get_mut(w)) {
            samples.push(d.wall_ns);
        }
    }
    out
}

/// The closed loop's driver: the cluster plus every client's state.
struct Loop {
    bc: BrokerCluster,
    clients: Vec<Client>,
    ops: Vec<Payload>,
    epoch: Instant,
    spans: SpanLog,
    /// Clients to (re)submit after the next pump.
    ready: Vec<u64>,
    attempted: u64,
    accepted: u64,
    backpressured: u64,
    replied: u64,
    /// Clients that have had at least one reply.
    answered: u64,
}

impl Loop {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Submits the next op of every ready client; a backpressured client
    /// stays ready and retries after the next pump.
    fn submit_ready(&mut self) {
        let ready = std::mem::take(&mut self.ready);
        let tick = self.bc.now_ticks();
        for c in ready {
            self.attempted += 1;
            self.spans.enter("broker.submit", c);
            let outcome = self.bc.submit(
                (c % BROKERS as u64) as usize,
                c,
                self.ops[c as usize % OP_POOL].clone(),
            );
            self.spans.exit();
            match outcome {
                SubmitOutcome::Accepted { seq } => {
                    self.accepted += 1;
                    let now = self.now_ns();
                    let cl = &mut self.clients[c as usize];
                    if cl.first_seq == 0 {
                        cl.first_seq = seq;
                    }
                    cl.last_seq = seq;
                    cl.sent_ns = now;
                    cl.sent_tick = tick;
                    cl.waiting = true;
                }
                SubmitOutcome::Backpressure => {
                    self.backpressured += 1;
                    self.ready.push(c);
                }
            }
        }
    }

    /// One pump step: advance the simulation, harvest replies into `out`,
    /// and submit each replied client's next op (when `resubmit`).
    fn step(&mut self, resubmit: bool, out: &mut Vec<Done>) {
        self.spans.enter("bench.step", 0);
        self.spans.enter("sim.pump", 0);
        self.bc.pump(PUMP_TICKS);
        self.spans.exit();
        self.spans.enter("broker.take_replies", 0);
        let replies = self.bc.take_replies();
        self.spans.exit();
        let now = self.now_ns();
        for r in replies {
            let cl = &mut self.clients[r.client as usize];
            if !cl.waiting || r.seq != cl.last_seq {
                // A replayed reply after the broker reconnected.
                continue;
            }
            cl.waiting = false;
            if cl.replies == 0 {
                self.answered += 1;
            }
            cl.replies += 1;
            self.replied += 1;
            out.push(Done {
                sent_ns: cl.sent_ns,
                wall_ns: now.saturating_sub(cl.sent_ns),
                ticks: r.at.saturating_sub(cl.sent_tick),
            });
            if resubmit {
                self.ready.push(r.client);
            }
        }
        if resubmit {
            self.submit_ready();
        }
        self.spans.exit();
    }
}

/// Sums counter `name` over the snapshots of `handles`.
fn sum_counter(handles: &[Telemetry], name: &str) -> u64 {
    counter(snapshots(handles).iter().map(|r| &r.counters), name)
}

/// Daemon messages sent and tokens forwarded so far.
fn ring_counts(daemons: &[Telemetry]) -> (u64, u64) {
    (
        sum_counter(daemons, names::MESSAGES_SENT),
        sum_counter(daemons, names::TOKENS_FORWARDED),
    )
}

/// Builds the cluster, forms the daemon group and opens every client's
/// session (client `c` at broker `c % 3`). Returns the cluster, the
/// seconds it took, and the session-opening time per decile of the
/// fleet, which shows how admission scales with the session table.
fn build(plan: &Plan) -> Result<(BrokerCluster, f64, [u64; 10]), String> {
    let begin = Instant::now();
    let per_broker = (plan.sessions as usize).div_ceil(BROKERS);
    let mut bc = BrokerCluster::new(BrokerClusterConfig {
        daemons: DAEMONS,
        brokers: BROKERS,
        seed: SIM_SEED,
        broker: BrokerParams {
            // One op in flight per client: the broker-wide budget admits
            // the broker's whole share of the fleet.
            broker_inflight: per_broker.max(BrokerParams::default().broker_inflight),
            ..BrokerParams::default()
        },
        telemetry: true,
        ..BrokerClusterConfig::default()
    });
    if !bc.form(1_000_000) {
        return Err("daemon group formation stalled".into());
    }
    let mut decile_ns = [0u64; 10];
    for c in 0..plan.sessions {
        let t = Instant::now();
        bc.connect((c % BROKERS as u64) as usize, c);
        decile_ns[(c * 10 / plan.sessions) as usize] += t.elapsed().as_nanos() as u64;
    }
    Ok((bc, begin.elapsed().as_secs_f64(), decile_ns))
}

/// Runs the workload: [`Plan::cycles`] independent cycles, each on a
/// freshly built cluster. Every metric is the median over the cycles;
/// attempts and failures add up.
pub fn run(seed: u64, plan: Plan, trace: bool) -> Result<Outcome, String> {
    let mut windows = Windows::default();
    let mut cycles = Vec::new();
    for _ in 0..plan.cycles {
        let (out, w) = cycle(seed, &plan, trace)?;
        cycles.push(out);
        windows.rates.extend(w.rates);
        windows.p50_ns.extend(w.p50_ns);
        windows.p90_ns.extend(w.p90_ns);
    }
    let mut out = Outcome {
        correct: cycles.iter().all(|c| c.correct),
        attempted: cycles.iter().map(|c| c.attempted).sum(),
        failed: cycles.iter().map(|c| c.failed).sum(),
        ..Outcome::default()
    };
    for name in cycles[0].metrics.keys() {
        let values: Vec<f64> = cycles.iter().map(|c| c.get(name)).collect();
        out.set(name, median(&values));
    }
    out.set("throughput_per_s", median(&windows.rates));
    out.set("latency_p50_us", median(&windows.p50_ns) / 1e3);
    out.set("latency_p90_us", median(&windows.p90_ns) / 1e3);
    println!(
        "clients: {} cycles; throughput is the median over {} one-round windows, latency over \
         {} pump-step windows",
        plan.cycles,
        windows.rates.len(),
        windows.p50_ns.len()
    );
    Ok(out)
}

/// One cycle: set-up, fill, steady closed loop, drain, check.
fn cycle(seed: u64, plan: &Plan, trace: bool) -> Result<(Outcome, Windows), String> {
    let (bc, setup_secs, decile_ns) = build(plan)?;
    let epoch = Instant::now();
    let mut rng = crate::gen::Rng::new(seed);
    let ops: Vec<Payload> = (0..OP_POOL as u64)
        .map(|k| Payload::from(crate::gen::body(&mut rng, k, OP_BYTES)))
        .collect();
    let mut lp = Loop {
        bc,
        clients: (0..plan.sessions)
            .map(|_| Client {
                sent_ns: 0,
                sent_tick: 0,
                first_seq: 0,
                last_seq: 0,
                waiting: false,
                replies: 0,
            })
            .collect(),
        ops,
        epoch,
        spans: SpanLog::new(epoch, trace),
        ready: Vec::with_capacity(plan.sessions as usize),
        attempted: 0,
        accepted: 0,
        backpressured: 0,
        replied: 0,
        answered: 0,
    };
    let daemon_tel = lp.bc.daemon_telemetry();
    let broker_tel: Vec<Telemetry> = lp.bc.broker_telemetry().to_vec();
    let mut out = Outcome::default();
    let mut stalls = Vec::new();

    // Sized for the steady replies and the drain's, so the harness's
    // share of resident memory does not grow or reallocate.
    let mut done: Vec<Done> = Vec::with_capacity((plan.steady_ops + plan.sessions) as usize);

    // Phase 1: fill, untimed. Every client submits its first op; the
    // closed loop runs until each has had a reply.
    lp.ready.extend(0..plan.sessions);
    lp.submit_ready();
    let fill_tick = lp.bc.now_ticks();
    while lp.answered < plan.sessions {
        lp.step(true, &mut done);
        if lp.bc.now_ticks() - fill_tick > BUDGET_TICKS {
            stalls.push("fill");
            break;
        }
    }
    done.clear();

    // Phase 2: steady closed loop, timed at every pump step.
    let steady_start_ns = lp.now_ns();
    let before = ring_counts(&daemon_tel);
    let first_reply = lp.replied;
    // `(ns, replies so far)` at the start and after every pump step.
    let mut marks = vec![(steady_start_ns, lp.replied)];
    while stalls.is_empty() && lp.replied - first_reply < plan.steady_ops {
        lp.step(true, &mut done);
        marks.push((lp.now_ns(), lp.replied));
    }
    let steady_ops = (lp.replied - first_reply).max(1) as f64;
    let after = ring_counts(&daemon_tel);

    // Phase 3: drain every outstanding op. The replies still count for
    // latency: every op submitted in the steady phase is timed, not only
    // the ones that happened to finish inside it.
    let drain_tick = lp.bc.now_ticks();
    while lp.replied < lp.accepted {
        lp.step(false, &mut done);
        if lp.bc.now_ticks() - drain_tick > BUDGET_TICKS {
            stalls.push("drain");
            break;
        }
    }
    // Agreed delivery reaches the daemons at different times, and a reply
    // only waits for the broker's own daemon: let every daemon apply every
    // op (or the budget run out) before checking what each applied.
    let owed = lp.accepted * DAEMONS as u64;
    while lp.bc.applied_total() < owed || !lp.bc.cluster_mut().settled() {
        lp.bc.pump(PUMP_TICKS);
        if lp.bc.now_ticks() - drain_tick > BUDGET_TICKS {
            stalls.push("apply");
            break;
        }
    }
    let peak_rss_kb = sys::peak_rss_kb();
    let harness_bytes = lp.clients.capacity() * std::mem::size_of::<Client>()
        + done.capacity() * std::mem::size_of::<Done>()
        + lp.ready.capacity() * 8;

    // ---- output check (outside the timed region) ----
    let check_start = Instant::now();
    let mut violations = Vec::new();
    let dups = lp.bc.duplicate_applications();
    if !dups.is_empty() {
        violations.push(format!(
            "{} ops applied twice, e.g. {:?}",
            dups.len(),
            dups[0]
        ));
    }
    // Each daemon counts its applications. With no op applied twice, a
    // daemon that counts every accepted op applied each of them; only
    // when one falls short are the ops looked up one by one, to count
    // the missing.
    let per_daemon: Vec<u64> = snapshots(&daemon_tel)
        .iter()
        .map(|r| counter([&r.counters], names::BROKER_OPS_APPLIED))
        .collect();
    let mut missing = 0u64;
    if !dups.is_empty()
        || per_daemon.len() != DAEMONS
        || per_daemon.iter().any(|&a| a != lp.accepted)
    {
        for (c, cl) in lp.clients.iter().enumerate() {
            if cl.first_seq == 0 {
                continue;
            }
            for seq in cl.first_seq..=cl.last_seq {
                if (0..DAEMONS).any(|d| !lp.bc.applied_at(d, c as u64, seq)) {
                    missing += 1;
                }
            }
        }
    }
    let applied = lp.bc.applied_total();
    if missing == 0 && applied != lp.accepted * DAEMONS as u64 {
        violations.push(format!(
            "{applied} applications for {} ops over {DAEMONS} daemons",
            lp.accepted
        ));
    }
    let conformance_start = Instant::now();
    if plan.conformance {
        match lp.bc.check() {
            Ok(()) => println!("clients conformance (Specs 1.1-7.2 over the daemon trace): hold"),
            Err(e) => violations.push(format!("conformance: {e:?}")),
        }
    }
    let conformance_secs = conformance_start.elapsed().as_secs_f64();
    for v in &violations {
        eprintln!("clients: CHECK FAILED: {v}");
    }
    out.correct = violations.is_empty();
    out.attempted = lp.accepted;
    out.failed = (lp.accepted - lp.replied).max(missing);

    // ---- end-to-end metrics ----
    // Latency of the ops submitted in the steady phase (the drain submits
    // none).
    let mut lat_ns: Vec<u64> = done
        .iter()
        .filter(|d| d.sent_ns >= steady_start_ns)
        .map(|d| d.wall_ns)
        .collect();
    let lat = stats::summarize(&mut lat_ns);
    let mut windows = Windows {
        rates: round_rates(&marks, plan.sessions),
        ..Windows::default()
    };
    let bounds: Vec<u64> = marks.iter().map(|m| m.0).collect();
    for mut samples in by_window(&done, &bounds)
        .into_iter()
        .filter(|w| !w.is_empty())
    {
        let s = stats::summarize(&mut samples);
        windows.p50_ns.push(s.p50 as f64);
        windows.p90_ns.push(s.p90 as f64);
    }
    out.set("setup_s", setup_secs);
    out.set("peak_rss_mb", peak_rss_kb as f64 / 1024.0);

    // ---- per-layer metrics ----
    let stat = |name: &str| lp.spans.stats().get(name).copied().unwrap_or_default();
    let ops = lp.replied.max(1) as f64;
    out.set("broker.submit_ns", stat("broker.submit").mean_self_ns());
    out.set(
        "broker.submit_ns_growth",
        decile_ns[9] as f64 / decile_ns[0].max(1) as f64,
    );
    out.set(
        "broker.take_replies_ns_per_op",
        stat("broker.take_replies").total_ns as f64 / ops,
    );
    out.set("sim.pump_ns_per_op", stat("sim.pump").total_ns as f64 / ops);
    out.set(
        "sim.msgs_sent_per_op",
        (after.0 - before.0) as f64 / steady_ops,
    );
    out.set(
        "sim.tokens_per_op",
        (after.1 - before.1) as f64 / steady_ops,
    );
    let mut ticks: Vec<u64> = done
        .iter()
        .filter(|d| d.sent_ns >= steady_start_ns)
        .map(|d| d.ticks)
        .collect();
    let ticks = stats::summarize(&mut ticks);
    out.set("sim.reply_p50_ticks", ticks.p50 as f64);
    out.set("sim.reply_p99_ticks", ticks.p99.unwrap_or(ticks.max) as f64);
    let batches = sum_counter(&broker_tel, names::BROKER_BATCHES_FLUSHED);
    out.set(
        "broker.ops_per_batch",
        sum_counter(&broker_tel, names::BROKER_OPS_SUBMITTED) as f64 / batches.max(1) as f64,
    );
    out.set(
        "broker.backpressure_share",
        lp.backpressured as f64 / lp.attempted.max(1) as f64,
    );
    out.set(
        "broker.deduped",
        sum_counter(&daemon_tel, names::BROKER_OPS_DEDUPED) as f64,
    );
    out.set(
        "mem.rss_kb_per_kmsg",
        peak_rss_kb as f64 / (lp.accepted.max(1) as f64 / 1000.0),
    );
    out.set(
        "bench.failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if trace {
        let span_count: u64 = lp.spans.stats().values().map(|s| s.count).sum();
        let traced_ns: u64 = lp.spans.stats().values().map(|s| s.self_ns).sum();
        out.set(
            "trace.overhead_share",
            span_count as f64 * spans::calibrate() / (traced_ns as f64).max(1.0),
        );
        let mut tsv = String::new();
        lp.spans.write_tsv("harness", &mut tsv);
        crate::write_span_file("clients", &tsv);
    }
    println!(
        "clients: {} sessions; {} ops accepted, {} replied; steady {} replies after the fill \
         round, {} one-round windows; latency over {} samples; reply p50 {} ticks; \
         backpressured {}, deduped {}; harness buffers {:.1} MB of peak RSS {:.1} MB; check \
         {:.2} s (conformance {:.2} s); stalls: {}",
        plan.sessions,
        lp.accepted,
        lp.replied,
        steady_ops,
        windows.rates.len(),
        lat.count,
        ticks.p50,
        lp.backpressured,
        out.get("broker.deduped"),
        harness_bytes as f64 / (1 << 20) as f64,
        peak_rss_kb as f64 / 1024.0,
        check_start.elapsed().as_secs_f64(),
        conformance_secs,
        if stalls.is_empty() {
            "none".to_string()
        } else {
            stalls.join(", ")
        },
    );
    Ok((out, windows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_split_by_submit_window() {
        let op = |sent_ns, wall_ns| Done {
            sent_ns,
            wall_ns,
            ticks: 0,
        };
        let done = [
            op(5, 1),
            op(10, 2),
            op(19, 3),
            op(20, 4),
            op(29, 5),
            op(30, 6),
        ];
        assert_eq!(
            by_window(&done, &[10, 20, 30]),
            vec![vec![2, 3], vec![4, 5]]
        );
        assert!(by_window(&done, &[10]).is_empty());
    }

    #[test]
    fn rates_slide_over_whole_rounds() {
        // Marks every second; 10 replies make a round.
        let marks = [
            (0, 0),
            (1_000_000_000, 4),
            (2_000_000_000, 10),
            (3_000_000_000, 14),
            (4_000_000_000, 24),
        ];
        // From 0: round done at 2 s (10 in 2 s); from 1 s: at 3 s (10 in
        // 2 s); from 2 s: at 4 s (14 in 2 s); from 3 s: at 4 s (10 in
        // 1 s); from 4 s: no full round.
        assert_eq!(round_rates(&marks, 10), vec![5.0, 5.0, 7.0, 10.0]);
        assert!(round_rates(&marks, 100).is_empty());
    }
}
