//! Workload `ring`: three `LiveNet` threads in one process.
//!
//! After set-up the run repeats two phases for a few cycles:
//!
//! 1. **open loop** — messages due at a fixed rate, origins round-robin
//!    over all members, 3 agreed : 1 safe. Latency runs from each
//!    message's due instant to its delivery at the origin, stamped by
//!    [`BenchNode`], a wrapper around `EvsProcess` that drains
//!    `take_deliveries()` after every callback the way an application
//!    would.
//! 2. **closed loop** — a fixed window of outstanding messages; the
//!    saturated rate is messages delivered at every member per second.
//!
//! Nothing crosses a socket, a disk, a broker or a membership change:
//! the token ring (`evs-order`), the engine (`evs-core`) and the
//! `LiveNet` driver do the work.
//!
//! Outputs are checked after the timed region: one order, no duplicates,
//! and every message delivered by every member that owes it (all of them
//! unless the configuration changes; see [`crate::check`]). A message
//! undelivered by the drain deadline is a failure, counted, never
//! retried. No fault is injected, so any configuration change after the
//! ring formed is unprovoked; the run counts them.

use crate::check::{self, History};
use crate::gen::{self, Msg, Rng, Schedule};
use crate::report::{counter, snapshots, Outcome};
use crate::spans::{self, SpanLog, SpanStat};
use crate::stats::{self, median};
use crate::sys;
use evs::core::{
    checker, Delivery, EvsEvent, EvsMsg, EvsParams, EvsProcess, Payload, Service, Trace,
};
use evs::sim::{Ctx, LiveNet, Node, ProcessId, TimerKind};
use evs::telemetry::{names, HistogramSnapshot, Phase, ProcessReport};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

type ECtx<'a> = Ctx<'a, EvsMsg<Payload>, EvsEvent>;

/// Members of the ring.
const N: usize = 3;
/// Payload bytes per message.
const MSG_BYTES: usize = 256;
/// How long a phase boundary or the final drain may wait for the ring to
/// settle before the run counts as stalled.
const DRAIN: Duration = Duration::from_secs(10);
/// Rings formed per cycle only to time set-up, then shut down. Forming
/// takes about 11 ms, sometimes twice that, so `setup_s` needs more
/// samples than the cycles give.
const EXTRA_SETUPS: usize = 1;

/// How long each phase runs and at what load.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Open-loop rate, messages per second.
    pub rate: u64,
    /// Open-loop time per cycle.
    pub open: Duration,
    /// Closed-loop messages per cycle.
    pub closed_msgs: u64,
    /// Outstanding messages in the closed loop.
    pub window: usize,
    /// Messages per measurement window: latency percentiles and the
    /// saturated rate are medians over windows of this many messages.
    pub window_msgs: u64,
    /// Open-then-closed cycles, each on a freshly formed ring (and so
    /// each a measured set-up). Interleaving spreads both phases over the
    /// run, so a burst of noise from outside hits both alike.
    pub cycles: u32,
}

impl Plan {
    /// The plan for a run measuring about `seconds`.
    pub fn for_seconds(seconds: u64) -> Plan {
        let s = seconds.max(1) as f64;
        Plan {
            rate: 20_000,
            open: Duration::from_secs_f64(s * 0.06),
            closed_msgs: seconds.max(1) * 5_000,
            window: 512,
            window_msgs: 5_000,
            cycles: 10,
        }
    }

    /// Messages one cycle submits: the open loop's, the closed loop's
    /// and its window. Sizes the harness's own buffers up front.
    fn cycle_msgs(&self) -> usize {
        (self.rate as f64 * self.open.as_secs_f64()) as usize
            + self.closed_msgs as usize
            + self.window
    }

    /// A short plan whose trace the full specification checker can
    /// afford.
    pub fn conformance() -> Plan {
        Plan {
            rate: 500,
            open: Duration::from_millis(300),
            closed_msgs: 200,
            window: 8,
            window_msgs: 50,
            cycles: 1,
        }
    }
}

/// One own-message delivery: due and delivered, ns since the run epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamp {
    /// The message.
    pub seq: u64,
    /// When it was due to be sent.
    pub due_ns: u64,
    /// When its origin delivered it.
    pub at_ns: u64,
}

impl Stamp {
    /// Due → delivered latency in ns.
    pub fn latency_ns(&self) -> u64 {
        self.at_ns.saturating_sub(self.due_ns)
    }
}

/// State the harness reads while the nodes run.
struct Shared {
    epoch: Instant,
    /// Messages delivered by each member.
    delivered: [AtomicU64; N],
    /// True while the closed loop wants completions.
    closed: AtomicBool,
}

/// The benchmark-side node: `EvsProcess` plus the stamping and spans the
/// benchmark needs. Every callback ends by draining the engine's
/// deliveries, as an application would.
pub struct BenchNode {
    inner: EvsProcess<Payload>,
    me: usize,
    shared: Arc<Shared>,
    done: Sender<u64>,
    /// Own messages submitted and not yet delivered: seq → due ns.
    own: HashMap<u64, u64>,
    /// Own open-loop deliveries.
    stamps: Vec<Stamp>,
    /// Sequence numbers in delivery order, with the configurations
    /// installed between them.
    history: History,
    /// `LiveNet::invoke` call → closure start, ns, per open-loop submit.
    wake_lag_ns: Vec<u64>,
    spans: SpanLog,
    timer_calls: u64,
    delivering_callbacks: u64,
    deliveries: u64,
}

impl BenchNode {
    /// A node whose buffers hold a cycle of `msgs` messages without
    /// growing, so the harness's share of resident memory stays fixed.
    fn new(
        me: usize,
        shared: Arc<Shared>,
        done: Sender<u64>,
        trace: bool,
        msgs: usize,
    ) -> BenchNode {
        let own_msgs = msgs / N + 1;
        BenchNode {
            inner: EvsProcess::new(ProcessId::new(me as u32), EvsParams::default()),
            me,
            spans: SpanLog::new(shared.epoch, trace),
            shared,
            done,
            own: HashMap::with_capacity(own_msgs),
            stamps: Vec::with_capacity(own_msgs),
            history: History {
                order: Vec::with_capacity(msgs),
                ..History::default()
            },
            wake_lag_ns: Vec::with_capacity(own_msgs),
            timer_calls: 0,
            delivering_callbacks: 0,
            deliveries: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    /// Submits one generated message (runs on the node's thread).
    fn submit(&mut self, ctx: &mut ECtx<'_>, msg: Msg, due_ns: u64, called_ns: u64) {
        let start = self.now_ns();
        if !self.shared.closed.load(Ordering::Relaxed) {
            self.wake_lag_ns.push(start.saturating_sub(called_ns));
        }
        self.own.insert(msg.seq, due_ns);
        self.spans.enter("core.submit", msg.seq);
        self.inner.submit(ctx, msg.service, msg.payload);
        self.spans.exit();
        self.drain();
    }

    /// Takes the engine's deliveries and stamps them.
    fn drain(&mut self) {
        let delivered = self.inner.take_deliveries();
        if delivered.is_empty() {
            return;
        }
        self.spans.enter("bench.drain", 0);
        let at_ns = self.now_ns();
        self.delivering_callbacks += 1;
        let closed = self.shared.closed.load(Ordering::Relaxed);
        let mut msgs = 0;
        for d in delivered {
            match d {
                Delivery::Message { payload, .. } => {
                    let Some(seq) = gen::seq_of(&payload) else {
                        continue;
                    };
                    msgs += 1;
                    self.history.order.push(seq);
                    if let Some(due_ns) = self.own.remove(&seq) {
                        if closed {
                            let _ = self.done.send(seq);
                        } else {
                            self.stamps.push(Stamp { seq, due_ns, at_ns });
                        }
                    }
                }
                Delivery::Config(c) => self.history.configs.push((
                    self.history.order.len(),
                    c.id,
                    c.members.iter().map(|p| p.as_usize()).collect(),
                )),
            }
        }
        self.deliveries += msgs;
        self.shared.delivered[self.me].fetch_add(msgs, Ordering::Relaxed);
        self.spans.exit();
    }
}

impl Node for BenchNode {
    type Msg = EvsMsg<Payload>;
    type Ev = EvsEvent;

    fn on_start(&mut self, ctx: &mut ECtx<'_>) {
        self.inner.on_start(ctx);
        self.drain();
    }

    fn is_token(msg: &Self::Msg) -> bool {
        <EvsProcess<Payload> as Node>::is_token(msg)
    }

    fn on_message(&mut self, ctx: &mut ECtx<'_>, from: ProcessId, msg: Self::Msg) {
        let name = if Self::is_token(&msg) {
            "core.token_visit"
        } else {
            "core.data_frame"
        };
        self.spans.enter(name, 0);
        self.inner.on_message(ctx, from, msg);
        self.spans.exit();
        self.drain();
    }

    fn on_timer(&mut self, ctx: &mut ECtx<'_>, kind: TimerKind) {
        self.timer_calls += 1;
        self.spans.enter("core.timer", 0);
        self.inner.on_timer(ctx, kind);
        self.spans.exit();
        self.drain();
    }

    fn on_crash(&mut self, ctx: &mut ECtx<'_>) {
        self.inner.on_crash(ctx);
    }

    fn on_recover(&mut self, ctx: &mut ECtx<'_>) {
        self.inner.on_recover(ctx);
    }
}

/// The generator's side of the run: its span log and lateness samples.
struct Generator {
    rng: Rng,
    next_seq: u64,
    /// Origin and safe service of each message of the cycle, by `seq`
    /// less the cycle's first.
    sent: Vec<(usize, bool)>,
    spans: SpanLog,
    late_ns: Vec<u64>,
    epoch: Instant,
}

impl Generator {
    /// Submits the next message to `origin`, due at `due`.
    fn submit(&mut self, net: &LiveNet<BenchNode>, origin: usize, due: Instant) {
        let msg = gen::message(&mut self.rng, self.next_seq, MSG_BYTES);
        let due_ns = due.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.next_seq += 1;
        self.sent.push((origin, msg.service == Service::Safe));
        self.spans.enter("live.invoke", msg.seq);
        let called_ns = self.epoch.elapsed().as_nanos() as u64;
        net.invoke(ProcessId::new(origin as u32), move |n, ctx| {
            n.submit(ctx, msg, due_ns, called_ns)
        });
        self.spans.exit();
    }

    /// Open loop: message `k` due at `sched.due(k)`, origins round-robin,
    /// sent by a thread that sleeps between due times and never spins.
    /// Stops at the first message due at or after `stop`. Returns the
    /// sequence range it submitted.
    fn open_loop(
        &mut self,
        net: &LiveNet<BenchNode>,
        sched: Schedule,
        stop: Instant,
    ) -> std::ops::Range<u64> {
        let first = self.next_seq;
        let mut k = 0u64;
        loop {
            sched.sleep_until(k);
            let now = Instant::now();
            while sched.due(k) <= now {
                let due = sched.due(k);
                if due >= stop {
                    return first..self.next_seq;
                }
                self.late_ns
                    .push(now.saturating_duration_since(due).as_nanos() as u64);
                self.submit(net, (k % N as u64) as usize, due);
                k += 1;
            }
        }
    }
}

/// Spawns the ring and waits for one settled configuration of all
/// members. Returns the net and the seconds it took.
fn setup(
    plan: &Plan,
    trace: bool,
    shared: &Arc<Shared>,
    done: &Sender<u64>,
) -> Result<(LiveNet<BenchNode>, f64), String> {
    let begin = Instant::now();
    let msgs = plan.cycle_msgs();
    let net = LiveNet::spawn_with_telemetry(N, |p| {
        BenchNode::new(p.as_usize(), Arc::clone(shared), done.clone(), trace, msgs)
    });
    let formed = net.wait_until(Duration::from_secs(30), |n: &BenchNode| {
        n.inner.is_settled() && n.inner.current_config().members.len() == N
    });
    let secs = begin.elapsed().as_secs_f64();
    if !formed {
        net.shutdown();
        return Err("ring formation did not settle within 30 s".into());
    }
    Ok((net, secs))
}

/// Sums counter `name` over several snapshots.
fn sum(reports: &[ProcessReport], name: &str) -> u64 {
    counter(reports.iter().map(|r| &r.counters), name)
}

/// What the run keeps from each cycle's net after shutting it down.
#[derive(Default)]
struct Kept {
    /// Per window of open-loop messages: its p50 and p90 latency, ns.
    window_p50: Vec<f64>,
    window_p90: Vec<f64>,
    /// Latency of every open-loop message, ns.
    open_lat: Vec<u64>,
    wake_lag_ns: Vec<u64>,
    span_stats: Vec<BTreeMap<&'static str, SpanStat>>,
    timer_calls: u64,
    deliveries: u64,
    delivering_callbacks: u64,
    /// Counter deltas over each cycle, summed: name → value.
    counters: HashMap<&'static str, u64>,
    /// Token rotations over the open loops, per member.
    rotations: [u64; N],
    /// Messages stamped per token visit, merged over members and cycles.
    stamped: Option<HistogramSnapshot>,
    spans_tsv: String,
}

/// Runs the workload and measures it. With `conformance`, the run's
/// trace also goes through the full specification checker.
pub fn run(seed: u64, plan: Plan, trace: bool, conformance: bool) -> Result<Outcome, String> {
    let shared = Arc::new(Shared {
        epoch: Instant::now(),
        delivered: Default::default(),
        closed: AtomicBool::new(false),
    });
    let epoch = shared.epoch;
    let (done_tx, done_rx) = mpsc::channel::<u64>();
    let mut gen = Generator {
        rng: Rng::new(seed),
        next_seq: 0,
        sent: Vec::with_capacity(plan.cycle_msgs()),
        spans: SpanLog::new(epoch, trace),
        late_ns: Vec::new(),
        epoch,
    };
    let mut out = Outcome::default();
    let mut stalls = Vec::new();
    let open_msgs_per_cycle = (plan.rate as f64 * plan.open.as_secs_f64()) as usize + 1;
    let open_msgs_per_run = open_msgs_per_cycle * plan.cycles as usize;
    gen.late_ns.reserve(open_msgs_per_run);
    let mut kept = Kept {
        open_lat: Vec::with_capacity(open_msgs_per_run),
        wake_lag_ns: Vec::with_capacity(open_msgs_per_run),
        ..Kept::default()
    };
    // The harness's own buffers at their largest, bytes.
    let mut harness_bytes = 0;
    let mut setup_secs = Vec::new();
    let mut open_ranges = Vec::new();
    let mut open_wall = 0.0;
    let mut slopes = Vec::new();
    let mut rates = Vec::new();
    let mut closed_msgs = 0;
    let mut undelivered = 0;
    let mut reconfigs = 0;
    let counts = |sh: &Shared| -> [u64; N] {
        std::array::from_fn(|m| sh.delivered[m].load(Ordering::SeqCst))
    };
    let run_start = Instant::now();
    // Each cycle runs on a freshly formed ring, so every cycle is also a
    // measured set-up and no ring carries the history of another.
    for cycle in 0..plan.cycles {
        for _ in 0..EXTRA_SETUPS {
            let (net, secs) = setup(&plan, false, &shared, &done_tx)?;
            net.shutdown();
            setup_secs.push(secs);
        }
        let (net, secs) = setup(&plan, trace, &shared, &done_tx)?;
        setup_secs.push(secs);
        for d in &shared.delivered {
            d.store(0, Ordering::SeqCst);
        }
        let first_seq = gen.next_seq;
        gen.sent.clear();
        let handles = net.telemetry_handles();
        let before = snapshots(&handles);

        // Open loop. The main thread samples resident memory against
        // messages delivered while the generator runs.
        let open_start = Instant::now() + Duration::from_millis(5);
        let mut rss_points = Vec::new();
        let range = std::thread::scope(|s| {
            let g = s.spawn(|| {
                gen.open_loop(
                    &net,
                    Schedule {
                        start: open_start,
                        rate: plan.rate,
                    },
                    open_start + plan.open,
                )
            });
            while !g.is_finished() {
                std::thread::sleep(Duration::from_millis(50));
                let delivered = shared.delivered[0].load(Ordering::Relaxed) as f64;
                rss_points.push((delivered / 1000.0, sys::rss_kb() as f64));
            }
            g.join().expect("generator thread")
        });
        open_wall += open_start.elapsed().as_secs_f64();
        open_ranges.push(range.clone());
        slopes.push(sys::slope(&rss_points));
        let after_open = snapshots(&handles);
        for (m, (a, b)) in after_open.iter().zip(&before).enumerate() {
            kept.rotations[m] += counter([&a.counters], names::TOKEN_ROTATIONS)
                - counter([&b.counters], names::TOKEN_ROTATIONS);
        }
        for n in [
            names::RETRANSMISSIONS_SERVED,
            names::TOKEN_RETRANSMISSIONS,
            names::IDLE_ROTATIONS,
        ] {
            *kept.counters.entry(n).or_default() += sum(&after_open, n) - sum(&before, n);
        }
        if !net.wait_until(DRAIN, |n: &BenchNode| n.inner.is_settled()) {
            stalls.push("open-loop drain");
        }

        // Closed loop: a fixed window of outstanding messages, each
        // completion at its origin releasing the next. The rate of a
        // window is the slowest member's deliveries over its time.
        shared.closed.store(true, Ordering::SeqCst);
        let mut rr = 0;
        for _ in 0..plan.window {
            gen.submit(&net, rr, Instant::now());
            rr = (rr + 1) % N;
        }
        let mut mark = (Instant::now(), counts(&shared));
        let mut completed = 0u64;
        while completed < plan.closed_msgs {
            match done_rx.recv_timeout(DRAIN) {
                Ok(_) => {
                    completed += 1;
                    gen.submit(&net, rr, Instant::now());
                    rr = (rr + 1) % N;
                }
                Err(RecvTimeoutError::Timeout) => {
                    stalls.push("closed loop");
                    break;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("completion channel closed".into())
                }
            }
            if completed.is_multiple_of(plan.window_msgs) {
                let (now, c) = (Instant::now(), counts(&shared));
                let slowest = (0..N).map(|m| c[m] - mark.1[m]).min().unwrap_or(0);
                // The first window ramps up from an idle ring.
                if completed > plan.window_msgs {
                    rates.push(slowest as f64 / (now - mark.0).as_secs_f64());
                }
                mark = (now, c);
            }
        }
        closed_msgs += completed;
        shared.closed.store(false, Ordering::SeqCst);
        while done_rx.try_recv().is_ok() {}
        if !net.wait_until(DRAIN, |n: &BenchNode| n.inner.is_settled()) {
            stalls.push("closed-loop drain");
        }
        let after = snapshots(&handles);
        for h in after
            .iter()
            .filter_map(|r| r.histograms.get(names::STAMPED_PER_VISIT))
        {
            match &mut kept.stamped {
                None => kept.stamped = Some(h.clone()),
                Some(m) => m
                    .merge(h)
                    .map_err(|e| format!("stamped histogram: {e:?}"))?,
            }
        }
        for p in Phase::ALL {
            let n = p.counter_name();
            *kept.counters.entry(n).or_default() += sum(&after, n) - sum(&before, n);
        }
        let mut results = net.shutdown();

        // ---- output check of the cycle (outside the timed region) ----
        let submitted = gen.next_seq - first_seq;
        let histories: Vec<History> = results
            .iter_mut()
            .map(|(n, _)| {
                let mut h = std::mem::take(&mut n.history);
                for s in &mut h.order {
                    *s = s.wrapping_sub(first_seq);
                }
                h
            })
            .collect();
        // Configurations installed after a member's first delivery: the
        // ring had formed, and nothing provoked them.
        reconfigs += histories
            .iter()
            .map(|h| h.configs.iter().filter(|c| c.0 > 0).count())
            .sum::<usize>();
        let verdict = check::check(&histories, submitted, &|s| gen.sent[s as usize].0, &|s| {
            gen.sent[s as usize].1
        });
        for v in &verdict.violations {
            eprintln!("ring: cycle {cycle}: CHECK FAILED: {v}");
        }
        out.correct = verdict.violations.is_empty() && (cycle == 0 || out.correct);
        undelivered += verdict.undelivered;
        if conformance {
            let trace_events: Vec<_> = results.iter().map(|(_, t)| t.clone()).collect();
            match checker::check_all(&Trace::new(trace_events)) {
                Ok(()) => {
                    println!("ring conformance (Specs 1.1-7.2 over {submitted} messages): hold")
                }
                Err(v) => {
                    eprintln!("ring: conformance: {v:?}");
                    out.correct = false;
                }
            }
        }
        // Latency percentiles per window of the cycle's open-loop
        // messages; the run reports the median over all windows.
        let mut by_seq: HashMap<u64, u64> = results
            .iter()
            .flat_map(|(n, _)| n.stamps.iter().map(|s| (s.seq, s.latency_ns())))
            .collect();
        let seqs: Vec<u64> = range.clone().collect();
        for chunk in seqs.chunks(plan.window_msgs as usize) {
            let mut w: Vec<u64> = chunk.iter().filter_map(|s| by_seq.remove(s)).collect();
            kept.open_lat.extend_from_slice(&w);
            let ws = stats::summarize(&mut w);
            kept.window_p50.push(ws.p50 as f64);
            kept.window_p90.push(ws.p90 as f64);
        }
        let node_bytes: usize = results
            .iter()
            .zip(&histories)
            .map(|((n, _), h)| {
                n.stamps.capacity() * std::mem::size_of::<Stamp>()
                    + (h.order.capacity() + n.wake_lag_ns.capacity()) * 8
                    + n.own.capacity() * 16
            })
            .sum();
        harness_bytes = harness_bytes.max(
            node_bytes
                + (kept.open_lat.capacity() + kept.wake_lag_ns.capacity() + gen.late_ns.capacity())
                    * 8
                + gen.sent.capacity() * std::mem::size_of::<(usize, bool)>(),
        );
        for (node, _) in results {
            kept.wake_lag_ns.extend_from_slice(&node.wake_lag_ns);
            kept.timer_calls += node.timer_calls;
            kept.deliveries += node.deliveries;
            kept.delivering_callbacks += node.delivering_callbacks;
            if trace {
                node.spans.write_tsv(
                    &format!("cycle{cycle}.node{}", node.me),
                    &mut kept.spans_tsv,
                );
            }
            kept.span_stats.push(node.spans.stats().clone());
        }
    }
    let wall = run_start.elapsed().as_secs_f64();
    let peak_rss_kb = sys::peak_rss_kb();
    let submitted = gen.next_seq;
    out.attempted = submitted;
    out.failed = undelivered;

    // ---- end-to-end metrics ----
    // Latency: the median over windows of each window's percentile; the
    // tail over every open-loop message.
    let lat = stats::summarize(&mut kept.open_lat);
    out.set("setup_s", median(&setup_secs));
    out.set("latency_p50_us", median(&kept.window_p50) / 1e3);
    out.set("latency_p90_us", median(&kept.window_p90) / 1e3);
    out.set("throughput_per_s", median(&rates));
    out.set("peak_rss_mb", peak_rss_kb as f64 / 1024.0);

    // ---- per-layer metrics ----
    let span_stats = spans::merge_stats(kept.span_stats.iter().chain([gen.spans.stats()]));
    let stat = |name: &str| span_stats.get(name).copied().unwrap_or_default();
    let total_msgs = submitted.max(1) as f64;
    out.set(
        "core.token_visit_ns",
        stat("core.token_visit").mean_self_ns(),
    );
    out.set("core.data_frame_ns", stat("core.data_frame").mean_self_ns());
    out.set("core.submit_ns", stat("core.submit").mean_self_ns());
    out.set("core.timer_ns", stat("core.timer").mean_self_ns());
    out.set("core.timer_calls_per_s", kept.timer_calls as f64 / wall);
    let core_ns: u64 = [
        "core.token_visit",
        "core.data_frame",
        "core.submit",
        "core.timer",
    ]
    .iter()
    .map(|n| stat(n).total_ns)
    .sum();
    out.set("core.busy_ns_per_msg", core_ns as f64 / total_msgs);
    out.set(
        "core.deliveries_per_callback",
        kept.deliveries as f64 / kept.delivering_callbacks.max(1) as f64,
    );
    // Ring counters over the open loops; rotations counted by the member
    // that saw the most (each member counts the rotations it observes).
    let delta = |name: &str| kept.counters.get(name).copied().unwrap_or(0);
    let rotations = kept.rotations.into_iter().max().unwrap_or(0).max(1) as f64;
    let open_msgs = open_ranges.iter().map(|r| r.end - r.start).sum::<u64>();
    let per_open_msg = open_msgs.max(1) as f64;
    out.set("order.rotation_us", open_wall * 1e6 / rotations);
    out.set("order.msgs_per_rotation", per_open_msg / rotations);
    out.set(
        "order.stamped_per_visit_p50",
        kept.stamped
            .as_ref()
            .map_or(0.0, |h| h.percentile(0.5) as f64),
    );
    let retrans = delta(names::RETRANSMISSIONS_SERVED) + delta(names::TOKEN_RETRANSMISSIONS);
    out.set(
        "order.retrans_per_kmsg",
        retrans as f64 * 1000.0 / per_open_msg,
    );
    out.set(
        "order.idle_rotation_share",
        delta(names::IDLE_ROTATIONS) as f64 / rotations,
    );
    out.set(
        "live.wake_lag_us",
        stats::summarize(&mut kept.wake_lag_ns).p50 as f64 / 1e3,
    );
    out.set("live.invoke_ns", stat("live.invoke").mean_self_ns());
    let all_phase: u64 = Phase::ALL.iter().map(|p| delta(p.counter_name())).sum();
    let parked = delta(Phase::Park.counter_name());
    out.set("live.parked_share", parked as f64 / all_phase.max(1) as f64);
    // Driver time: the workers' loop time minus parked and blocked
    // receives (both waiting) minus the engine and the benchmark's own
    // drain, which run inside the dispatch phase.
    let waiting = parked + delta(Phase::Recv.counter_name());
    let engine_ns = core_ns + stat("bench.drain").total_ns;
    out.set(
        "live.driver_ns_per_msg",
        all_phase.saturating_sub(waiting).saturating_sub(engine_ns) as f64 / total_msgs,
    );
    out.set(
        "live.deliver_p99_us",
        lat.p99.map_or(0.0, |v| v as f64 / 1e3),
    );
    out.set(
        "live.deliver_p999_us",
        lat.p999.map_or(0.0, |v| v as f64 / 1e3),
    );
    out.set("live.deliver_samples", lat.count as f64);
    out.set("memb.configs_delivered", reconfigs as f64);
    out.set("mem.rss_kb_per_kmsg", median(&slopes));
    out.set(
        "gen.late_p99_us",
        stats::summarize(&mut gen.late_ns).p99.unwrap_or(0) as f64 / 1e3,
    );
    out.set(
        "bench.failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if trace {
        let count: u64 = span_stats.values().map(|s| s.count).sum();
        let traced: u64 = span_stats.values().map(|s| s.self_ns).sum();
        out.set(
            "trace.overhead_share",
            count as f64 * spans::calibrate() / (traced as f64).max(1.0),
        );
        gen.spans.write_tsv("generator", &mut kept.spans_tsv);
        crate::write_span_file("ring", &kept.spans_tsv);
    }
    println!(
        "ring: {submitted} messages in {} cycles; open loop {open_msgs} at {}/s: p50 {:.0} us, \
         p90 {:.0} us, p99 {} over {} samples, generator late p99 {:.0} us; closed loop \
         {closed_msgs} with window {}, median of {} windows; unprovoked configuration changes \
         {reconfigs}; undelivered {undelivered}; harness buffers {:.1} MB of peak RSS {:.1} MB; stalls: {}",
        plan.cycles,
        plan.rate,
        lat.p50 as f64 / 1e3,
        lat.p90 as f64 / 1e3,
        lat.p99.map_or("unsupported".to_string(), |v| format!(
            "{:.0} us",
            v as f64 / 1e3
        )),
        lat.count,
        out.get("gen.late_p99_us"),
        plan.window,
        rates.len(),
        harness_bytes as f64 / (1 << 20) as f64,
        peak_rss_kb as f64 / 1024.0,
        if stalls.is_empty() {
            "none".to_string()
        } else {
            stalls.join(", ")
        },
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_measure_from_due_time() {
        let s = Stamp {
            seq: 1,
            due_ns: 1_000,
            at_ns: 4_500,
        };
        assert_eq!(s.latency_ns(), 3_500);
        let early = Stamp {
            seq: 2,
            due_ns: 9_000,
            at_ns: 8_000,
        };
        assert_eq!(early.latency_ns(), 0);
    }
}
