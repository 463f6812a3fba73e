//! Workload `udp-kill`: three real `udp_cluster --child` OS processes on
//! loopback, each with its on-disk WAL and trace journal.
//!
//! The run spawns the cluster [`Plan::cycles`] times; every spawn is a
//! measured set-up (spawn → all three settled in one configuration).
//!
//! 1. **steady** (every cycle) — one generator socket sends 256-byte
//!    agreed `EVSC S` submits to child 0 at a fixed rate (open loop).
//!    Child 1 is the witness: a poller asks it for its `EVSC I` delivered
//!    count every [`Plan::poll`]; that interval is the resolution of every
//!    latency here. The count includes configuration deliveries, so it is
//!    mapped to messages through child 1's trace journal after the cycle
//!    (see [`delivery_times`]).
//! 2. **fault** (last cycle) — the benchmark SIGKILLs child 2 and respawns
//!    it on the same port; the reincarnation replays its WAL and rejoins.
//!    Outage runs from the SIGKILL to the witness delivering the first
//!    message due after it; rejoin from the respawn to all three children
//!    reporting a 3-member configuration.
//! 3. **saturation** (last cycle) — a fixed window of outstanding
//!    submits; the rate is witness deliveries per second.
//!
//! The check (outside the timed region) reads each cycle's three journals
//! back: one delivery order, no duplicates, and every message delivered
//! by every member that owes it, as the journals' configurations say (see
//! [`crate::check`]): all three unless the configuration changed; the
//! victim is excused from the configuration its reincarnation's journal
//! says it failed in, and any member a configuration change took away
//! from the others from what they delivered after they parted.

use crate::check::{self, History};
use crate::gen::{self, Rng, Schedule};
use crate::obs;
use crate::report::{counter, Outcome};
use crate::spans::{self, SpanLog};
use crate::stats::{self, median};
use crate::sys;
use evs::core::{trace_io, EvsEvent, Service, Trace};
use evs::membership::ConfigId;
use evs::obs::Exposition;
use evs::telemetry::names;
use std::collections::HashMap;
use std::fs;
use std::net::{SocketAddr, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Children in the group.
const N: usize = 3;
/// The child whose delivery count is polled.
const WITNESS: usize = 1;
/// The child killed and respawned.
const VICTIM: usize = 2;
/// The child every message is submitted to.
const ORIGIN: usize = 0;
/// Payload bytes per message.
const MSG_BYTES: usize = 256;
/// Magic of the children's control datagrams.
const CONTROL: &[u8; 4] = b"EVSC";
/// How long a membership step may take before the run counts as stalled.
const STEP_DEADLINE: Duration = Duration::from_secs(20);

/// How long each phase runs and at what load.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Open-loop rate, messages per second.
    pub rate: u64,
    /// Open-loop cycles, each on a freshly spawned cluster (and so each
    /// a measured set-up). How the children's clocks happen to align at
    /// spawn moves their latency for the cluster's whole life, so the
    /// latency windows are spread over several clusters.
    pub cycles: usize,
    /// Steady open loop per cycle (before the kill, in the last cycle).
    pub steady: Duration,
    /// Open loop kept running after the rejoin.
    pub tail: Duration,
    /// Closed-loop saturation phase.
    pub saturate: Duration,
    /// Outstanding messages in the saturation phase.
    pub window: u64,
    /// Witness poll interval: the latency resolution.
    pub poll: Duration,
    /// Messages per latency window: the percentiles are medians over
    /// windows of this many steady-phase messages.
    pub window_msgs: usize,
}

impl Plan {
    /// The plan for a run measuring about `seconds`.
    pub fn for_seconds(seconds: u64) -> Plan {
        let s = seconds.max(1) as f64;
        Plan {
            rate: 1_000,
            cycles: 10,
            steady: Duration::from_secs_f64(s * 0.1),
            tail: Duration::from_secs_f64(s * 0.025),
            saturate: Duration::from_secs_f64(s * 0.15),
            window: 32,
            poll: Duration::from_micros(500),
            window_msgs: 500,
        }
    }

    /// A short run for the full specification checker.
    pub fn conformance() -> Plan {
        Plan {
            rate: 200,
            cycles: 1,
            steady: Duration::from_millis(600),
            tail: Duration::from_millis(200),
            saturate: Duration::from_millis(100),
            window: 4,
            poll: Duration::from_millis(1),
            window_msgs: 50,
        }
    }
}

/// One `EVSC I` answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Inspect {
    settled: bool,
    members: usize,
    /// Deliveries so far, configurations included.
    count: u32,
}

/// One witness poll: when its answer arrived (ns since the epoch), the
/// round trip, and the answer.
#[derive(Clone, Copy, Debug)]
struct Poll {
    at_ns: u64,
    rtt_ns: u64,
    state: Inspect,
}

/// A control socket speaking the children's `EVSC` protocol.
struct Control {
    socket: UdpSocket,
    addrs: Vec<SocketAddr>,
}

impl Control {
    fn new(addrs: &[SocketAddr]) -> Result<Control, String> {
        let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind control: {e}"))?;
        socket
            .set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| e.to_string())?;
        Ok(Control {
            socket,
            addrs: addrs.to_vec(),
        })
    }

    fn send(&self, child: usize, body: &[u8]) {
        let mut pkt = Vec::with_capacity(4 + body.len());
        pkt.extend_from_slice(CONTROL);
        pkt.extend_from_slice(body);
        let _ = self.socket.send_to(&pkt, self.addrs[child]);
    }

    /// Submits one agreed message to `child`.
    fn submit(&self, child: usize, payload: &[u8]) {
        let mut body = Vec::with_capacity(2 + payload.len());
        body.extend_from_slice(&[b'S', 1]);
        body.extend_from_slice(payload);
        self.send(child, &body);
    }

    /// One inspect round trip (`None` on timeout).
    fn inspect(&self, child: usize) -> Option<Inspect> {
        self.send(child, b"I");
        let mut buf = [0u8; 64];
        let deadline = Instant::now() + Duration::from_millis(100);
        while Instant::now() < deadline {
            match self.socket.recv_from(&mut buf) {
                Ok((len, from)) if from == self.addrs[child] => {
                    if let Some(state) = parse_inspect(&buf[..len]) {
                        return Some(state);
                    }
                }
                Ok(_) => {}
                Err(_) => return None,
            }
        }
        None
    }

    /// Polls `children` every 5 ms until `cond` holds for all of them.
    /// Returns when it first held, or `None` at the deadline.
    fn wait_for(
        &self,
        children: &[usize],
        cond: impl Fn(usize, Inspect) -> bool,
    ) -> Option<Instant> {
        let deadline = Instant::now() + STEP_DEADLINE;
        while Instant::now() < deadline {
            if children
                .iter()
                .all(|&c| self.inspect(c).is_some_and(|s| cond(c, s)))
            {
                return Some(Instant::now());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        None
    }
}

/// Parses an `EVSC R` inspect reply.
fn parse_inspect(pkt: &[u8]) -> Option<Inspect> {
    if pkt.len() < 11 || &pkt[..4] != CONTROL || pkt[4] != b'R' {
        return None;
    }
    Some(Inspect {
        settled: pkt[5] != 0,
        members: pkt[6] as usize,
        count: u32::from_le_bytes(pkt[7..11].try_into().ok()?),
    })
}

/// The child processes; dropping it kills and reaps whatever still runs.
struct Cluster {
    exe: PathBuf,
    dir: PathBuf,
    ports: Vec<u16>,
    children: Vec<Option<Child>>,
}

impl Cluster {
    /// Reserves one loopback port per child and spawns them all.
    fn spawn(exe: &Path, dir: &Path) -> Result<Cluster, String> {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let reservations: Vec<UdpSocket> = (0..N)
            .map(|_| UdpSocket::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("reserve port: {e}"))?;
        let ports = reservations
            .iter()
            .map(|s| s.local_addr().map(|a| a.port()))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        drop(reservations);
        let mut cluster = Cluster {
            exe: exe.to_path_buf(),
            dir: dir.to_path_buf(),
            ports,
            children: (0..N).map(|_| None).collect(),
        };
        for i in 0..N {
            cluster.spawn_child(i)?;
        }
        Ok(cluster)
    }

    fn spawn_child(&mut self, i: usize) -> Result<(), String> {
        let csv = self
            .ports
            .iter()
            .map(u16::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let stderr = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(format!("child-{i}.err")))
            .map_err(|e| e.to_string())?;
        let child = Command::new(&self.exe)
            .args(["--child", &i.to_string(), "--ports", &csv, "--dir"])
            .arg(&self.dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.exe.display()))?;
        self.children[i] = Some(child);
        Ok(())
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        self.ports
            .iter()
            .map(|p| SocketAddr::from(([127, 0, 0, 1], *p)))
            .collect()
    }

    fn pid(&self, i: usize) -> Option<u32> {
        self.children[i].as_ref().map(Child::id)
    }

    /// SIGKILL and reap.
    fn kill(&mut self, i: usize) {
        if let Some(mut c) = self.children[i].take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }

    /// Asks every child to exit (`EVSC Q`) and reaps it; SIGKILLs any
    /// that has not exited within two seconds.
    fn shutdown(&mut self, ctrl: &Control) {
        for i in 0..N {
            ctrl.send(i, b"Q");
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        for slot in &mut self.children {
            if let Some(c) = slot.as_mut() {
                while Instant::now() < deadline && matches!(c.try_wait(), Ok(None)) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        for i in 0..N {
            self.kill(i);
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for i in 0..N {
            self.kill(i);
        }
    }
}

/// Spawns the cluster and waits until every child is settled in the
/// full configuration. Returns the cluster, its control socket and the
/// seconds from spawn to that state.
fn setup(exe: &Path, dir: &Path) -> Result<(Cluster, Control, f64), String> {
    let begin = Instant::now();
    let cluster = Cluster::spawn(exe, dir)?;
    let ctrl = Control::new(&cluster.addrs())?;
    let all: Vec<usize> = (0..N).collect();
    ctrl.wait_for(&all, |_, s| s.settled && s.members == N)
        .ok_or("the children did not form one configuration")?;
    Ok((cluster, ctrl, begin.elapsed().as_secs_f64()))
}

/// One child's journal as written: every event with its tick.
pub type Log = Vec<(evs::sim::SimTime, EvsEvent)>;

/// Parses a trace journal; a torn final line (a SIGKILL mid-write) is
/// dropped, any other malformed line is an error.
pub fn parse_log(text: &str) -> Result<Log, String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut log = Vec::with_capacity(lines.len());
    for (k, line) in lines.iter().enumerate() {
        match trace_io::parse_event(line.trim(), k + 1) {
            Ok(entry) => log.push(entry),
            Err(_) if k + 1 == lines.len() => {}
            Err(e) => return Err(format!("journal line {}: {e}", k + 1)),
        }
    }
    Ok(log)
}

/// One child's journal, reduced to what the check and the timing need.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Journal {
    /// Message counters of the origin's `Send` events, in order.
    pub sent: Vec<u64>,
    /// Whether each of `sent` asked for safe delivery.
    pub safe: Vec<bool>,
    /// Delivery entries in order: `Some(origin counter)` for a message,
    /// `None` for a configuration.
    pub deliveries: Vec<Option<u64>>,
    /// Configurations installed, in order, with their members.
    pub configs: Vec<(ConfigId, Vec<usize>)>,
    /// Configurations this process failed in (`fail_p(c)`, journaled by
    /// the reincarnation as it replays its WAL).
    pub failed_in: Vec<ConfigId>,
}

impl Journal {
    /// Reduces a parsed journal.
    pub fn of(log: &[(evs::sim::SimTime, EvsEvent)]) -> Journal {
        let mut j = Journal::default();
        for (_, event) in log {
            match event {
                EvsEvent::Send { id, service, .. } => {
                    j.sent.push(id.counter);
                    j.safe.push(*service == Service::Safe);
                }
                EvsEvent::Deliver { id, .. } => j.deliveries.push(Some(id.counter)),
                EvsEvent::DeliverConf(c) => {
                    j.deliveries.push(None);
                    j.configs
                        .push((c.id, c.members.iter().map(|p| p.as_usize()).collect()));
                }
                EvsEvent::Fail { config } => j.failed_in.push(*config),
            }
        }
        j
    }

    /// The history the check reads: messages as generated sequence
    /// numbers (`u64::MAX` for a counter `seq_of_counter` does not know).
    pub fn history(&self, seq_of_counter: &HashMap<u64, u64>) -> History {
        let mut h = History {
            failed_in: self.failed_in.clone(),
            ..History::default()
        };
        let mut configs = self.configs.iter();
        for entry in &self.deliveries {
            match entry {
                Some(c) => h
                    .order
                    .push(seq_of_counter.get(c).copied().unwrap_or(u64::MAX)),
                None => {
                    if let Some((id, members)) = configs.next() {
                        h.configs.push((h.order.len(), *id, members.clone()));
                    }
                }
            }
        }
        h
    }
}

/// When the witness delivered each message: its `EVSC I` count covers
/// configuration deliveries too, so delivery `j` of the journal (0-based,
/// configurations included) happened by the first poll whose count
/// exceeds `j`. Returns `(seq, delivered ns)` per message the polls saw,
/// with `seq_of_counter` mapping the origin's counters to generated
/// sequence numbers.
pub fn delivery_times(
    deliveries: &[Option<u64>],
    polls: &[(u64, u32)],
    seq_of_counter: &HashMap<u64, u64>,
) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut p = 0;
    for (j, entry) in deliveries.iter().enumerate() {
        while p < polls.len() && (polls[p].1 as usize) <= j {
            p += 1;
        }
        if p == polls.len() {
            break;
        }
        if let Some(seq) = entry.and_then(|c| seq_of_counter.get(&c)) {
            out.push((*seq, polls[p].0));
        }
    }
    out
}

/// Scrapes every listed child's `OBS?` exposition.
fn scrape(addrs: &[SocketAddr], children: &[usize]) -> Vec<Option<Exposition>> {
    children
        .iter()
        .map(|&i| evs::obs::scrape(addrs[i], Duration::from_millis(500)).ok())
        .collect()
}

/// What one cycle's open loop recorded.
#[derive(Default)]
struct OpenLoop {
    /// Due instant of every submitted message, ns since the epoch.
    due_ns: Vec<u64>,
    late_ns: Vec<u64>,
    polls: Vec<Poll>,
}

/// What the fault cycle observed around the SIGKILL.
#[derive(Default)]
struct Fault {
    kill_ns: u64,
    respawn_at: Option<Instant>,
    first_answer: Option<Instant>,
    rejoined: Option<Instant>,
    /// Scrape of every child just before the kill (end of steady phase).
    before_kill: Vec<Option<Exposition>>,
    /// Peak RSS of the killed incarnation, kB.
    victim_peak_kb: u64,
    /// Children's RSS at the start and end of the steady phase, kB.
    rss: (u64, u64),
}

/// The open loop: one generator socket sends to the origin on a fixed
/// schedule while a poller times the witness. `middle` runs on the
/// calling thread meanwhile; the open loop stops when it returns.
fn open_loop<T>(
    ctx: &Ctx<'_>,
    rng: &mut Rng,
    spans: (&mut SpanLog, &mut SpanLog),
    middle: impl FnOnce() -> T,
) -> Result<(OpenLoop, T), String> {
    let addrs = ctx.addrs;
    let gen_ctrl = Control::new(addrs)?;
    let witness = Control::new(addrs)?;
    let stop_ns = AtomicU64::new(u64::MAX);
    let polling = AtomicBool::new(true);
    let sched = Schedule {
        start: Instant::now() + Duration::from_millis(5),
        rate: ctx.plan.rate,
    };
    let ns_since = |t: Instant| t.saturating_duration_since(ctx.epoch).as_nanos() as u64;
    let (gen_spans, poll_spans) = spans;
    std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let (mut due_ns, mut late_ns) = (Vec::new(), Vec::new());
            let mut k = 0u64;
            loop {
                sched.sleep_until(k);
                let due = sched.due(k);
                if ns_since(due) >= stop_ns.load(Ordering::SeqCst) {
                    return (due_ns, late_ns);
                }
                late_ns.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
                due_ns.push(ns_since(due));
                let body = gen::body(rng, k, MSG_BYTES);
                gen_spans.enter("gen.submit", k);
                gen_ctrl.submit(ORIGIN, &body);
                gen_spans.exit();
                k += 1;
            }
        });
        let poller = s.spawn(|| {
            let mut polls = Vec::new();
            let mut next = Instant::now();
            while polling.load(Ordering::SeqCst) {
                let sent_at = Instant::now();
                poll_spans.enter("net.inspect", polls.len() as u64);
                let state = witness.inspect(WITNESS);
                poll_spans.exit();
                if let Some(state) = state {
                    let now = Instant::now();
                    polls.push(Poll {
                        at_ns: ns_since(now),
                        rtt_ns: (now - sent_at).as_nanos() as u64,
                        state,
                    });
                }
                next += ctx.plan.poll;
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                } else {
                    next = now;
                }
            }
            polls
        });
        let t = middle();
        stop_ns.store(ns_since(Instant::now()), Ordering::SeqCst);
        let (due_ns, late_ns) = generator.join().expect("generator thread");
        polling.store(false, Ordering::SeqCst);
        let polls = poller.join().expect("poller thread");
        Ok((
            OpenLoop {
                due_ns,
                late_ns,
                polls,
            },
            t,
        ))
    })
}

/// Shared context of a run.
struct Ctx<'a> {
    plan: &'a Plan,
    epoch: Instant,
    addrs: &'a [SocketAddr],
}

/// SIGKILLs the victim, waits for the survivors to regroup, respawns it
/// and waits for the rejoin, then keeps the open loop running for the
/// tail.
fn fault(cluster: &mut Cluster, ctrl: &Control, plan: &Plan, epoch: Instant) -> Fault {
    let all: Vec<usize> = (0..N).collect();
    let rss = |c: &Cluster| -> u64 {
        (0..N)
            .filter_map(|i| c.pid(i).and_then(sys::rss_kb_of))
            .sum()
    };
    let mut f = Fault {
        rss: (rss(cluster), 0),
        ..Fault::default()
    };
    std::thread::sleep(plan.steady);
    f.rss.1 = rss(cluster);
    f.before_kill = scrape(&cluster.addrs(), &all);
    f.victim_peak_kb = cluster
        .pid(VICTIM)
        .and_then(sys::peak_rss_kb_of)
        .unwrap_or(0);
    f.kill_ns = epoch.elapsed().as_nanos() as u64;
    cluster.kill(VICTIM);
    // Respawn once the survivors have regrouped (or at the deadline; the
    // check then counts what went undelivered).
    let _ = ctrl.wait_for(&[ORIGIN, WITNESS], |_, s| s.members == N - 1);
    f.respawn_at = Some(Instant::now());
    if cluster.spawn_child(VICTIM).is_ok() {
        f.first_answer = ctrl.wait_for(&[VICTIM], |_, _| true);
        f.rejoined = ctrl.wait_for(&all, |_, s| s.members == N);
    }
    std::thread::sleep(plan.tail);
    f
}

/// Closed loop at the witness: `window` submits outstanding, each new
/// witness delivery releasing the next. Returns the submit instants (ns
/// since the epoch) and the witness deliveries per second after a tenth
/// of the phase.
fn saturate(
    ctrl: &Control,
    plan: &Plan,
    rng: &mut Rng,
    first_seq: u64,
    epoch: Instant,
    spans: &mut SpanLog,
) -> Result<(Vec<u64>, f64), String> {
    let base = (0..50)
        .find_map(|_| ctrl.inspect(WITNESS))
        .ok_or("the witness does not answer")?
        .count as u64;
    let start = Instant::now();
    let (warm, end) = (start + plan.saturate / 10, start + plan.saturate);
    let mut sent_ns = Vec::new();
    let mut mark: Option<(Instant, u64)> = None;
    let mut last = (start, 0u64);
    while Instant::now() < end {
        let delivered = ctrl
            .inspect(WITNESS)
            .map_or(last.1, |s| (s.count as u64).saturating_sub(base));
        let now = Instant::now();
        last = (now, delivered);
        if mark.is_none() && now >= warm {
            mark = Some(last);
        }
        while (sent_ns.len() as u64) < delivered + plan.window {
            let seq = first_seq + sent_ns.len() as u64;
            sent_ns.push(epoch.elapsed().as_nanos() as u64);
            let body = gen::body(rng, seq, MSG_BYTES);
            spans.enter("gen.submit", seq);
            ctrl.submit(ORIGIN, &body);
            spans.exit();
        }
    }
    let (t0, d0) = mark.unwrap_or((start, 0));
    let secs = last.0.duration_since(t0).as_secs_f64().max(1e-9);
    Ok((sent_ns, (last.1 - d0) as f64 / secs))
}

/// Reads every child's journal back.
fn read_logs(dir: &Path) -> Result<Vec<Log>, String> {
    (0..N)
        .map(|i| {
            let path = dir.join(format!("trace-p{i}.txt"));
            fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))
                .and_then(|t| parse_log(&t).map_err(|e| format!("{}: {e}", path.display())))
        })
        .collect()
}

/// Runs the workload and measures it: `plan.cycles` open-loop cycles,
/// each on a freshly spawned cluster (each a measured set-up), the last
/// with the fault and the saturation phase.
pub fn run(seed: u64, plan: Plan, trace: bool, conformance: bool) -> Result<Outcome, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let exe = PathBuf::from(target).join("release/examples/udp_cluster");
    if !exe.is_file() {
        return Err(format!(
            "{} is missing; run the benchmark through run.sh, which builds it",
            exe.display()
        ));
    }
    let dir = PathBuf::from(crate::OUT_DIR).join(format!("udp-kill-{seed}"));
    let epoch = Instant::now();
    let mut rng = Rng::new(seed);
    let mut gen_spans = SpanLog::new(epoch, trace);
    let mut poll_spans = SpanLog::new(epoch, trace);
    let mut out = Outcome::default();
    let mut stalls: Vec<&str> = Vec::new();
    let mut setup_secs = Vec::new();
    let (mut window_p50, mut window_p90) = (Vec::new(), Vec::new());
    let mut late_ns = Vec::new();
    let mut rtt_ns = Vec::new();
    let mut steady_lat = Vec::new();
    let mut submitted = 0u64;
    let mut undelivered = 0u64;
    let mut violations = Vec::new();
    let mut fault_seen = Fault::default();
    let mut fault_polls = Vec::new();
    let mut after = Vec::new();
    let mut peak_kb = 0;
    let mut saturated = 0.0;
    let mut sat_sent = 0;
    // When the witness delivered the first message due after the kill.
    let mut outage: Option<u64> = None;
    let all: Vec<usize> = (0..N).collect();
    for cycle in 0..plan.cycles {
        let last = cycle + 1 == plan.cycles;
        let (mut cluster, ctrl, secs) = setup(&exe, &dir)?;
        setup_secs.push(secs);
        let addrs = cluster.addrs();
        let ctx = Ctx {
            plan: &plan,
            epoch,
            addrs: &addrs,
        };
        let (open, seen) = open_loop(&ctx, &mut rng, (&mut gen_spans, &mut poll_spans), || {
            if last {
                Some(fault(&mut cluster, &ctrl, &plan, epoch))
            } else {
                std::thread::sleep(plan.steady);
                None
            }
        })?;
        let mut due_ns = open.due_ns;
        if ctrl
            .wait_for(&all, |_, s| s.settled && s.members == N)
            .is_none()
        {
            stalls.push("open-loop drain");
        }
        if last {
            let first_seq = due_ns.len() as u64;
            match saturate(&ctrl, &plan, &mut rng, first_seq, epoch, &mut gen_spans) {
                Ok((sent, rate)) => {
                    sat_sent = sent.len() as u64;
                    due_ns.extend(sent);
                    saturated = rate;
                }
                Err(e) => {
                    eprintln!("udp-kill: saturation phase: {e}");
                    stalls.push("saturation");
                }
            }
            if ctrl
                .wait_for(&all, |_, s| s.settled && s.members == N)
                .is_none()
            {
                stalls.push("saturation drain");
            }
            after = scrape(&addrs, &all);
        }
        let cycle_peak: u64 = (0..N)
            .filter_map(|i| cluster.pid(i).and_then(sys::peak_rss_kb_of))
            .sum();
        cluster.shutdown(&ctrl);

        // ---- output check of the cycle (outside the timed region) ----
        let logs = read_logs(&dir)?;
        let journals: Vec<Journal> = logs.iter().map(|l| Journal::of(l)).collect();
        let n = due_ns.len() as u64;
        submitted += n;
        let seq_of_counter: HashMap<u64, u64> = journals[ORIGIN]
            .sent
            .iter()
            .enumerate()
            .map(|(k, &c)| (c, k as u64))
            .collect();
        let histories: Vec<History> = journals
            .iter()
            .map(|j| j.history(&seq_of_counter))
            .collect();
        let f = seen.unwrap_or_default();
        let kill_ns = if last { f.kill_ns } else { u64::MAX };
        let origin = &journals[ORIGIN];
        let verdict = check::check(&histories, n, &|_| ORIGIN, &|seq| {
            origin.safe.get(seq as usize).copied().unwrap_or(false)
        });
        violations.extend(verdict.violations);
        if journals[ORIGIN].sent.len() as u64 != n {
            violations.push(format!(
                "cycle {cycle}: child {ORIGIN} originated {} messages, {n} were submitted",
                journals[ORIGIN].sent.len()
            ));
        }
        undelivered += verdict.undelivered;
        if conformance {
            let failure = evs::chaos::conformance(&Trace::new(logs), &[], N);
            match failure.map(|f| format!("{:?}", f.specs)).map_or(Ok(()), Err) {
                Ok(()) => println!(
                    "udp-kill conformance (Specs 1.1-7.2, primary component, VS reduction over {n} messages): hold"
                ),
                Err(e) => violations.push(format!("conformance: {e}")),
            }
        }

        // ---- latency of the cycle: windows of steady-phase messages ----
        let poll_counts: Vec<(u64, u32)> = open
            .polls
            .iter()
            .map(|p| (p.at_ns, p.state.count))
            .collect();
        let times = delivery_times(&journals[WITNESS].deliveries, &poll_counts, &seq_of_counter);
        let lat: Vec<u64> = times
            .iter()
            .filter(|(seq, _)| due_ns[*seq as usize] < kill_ns)
            .map(|&(seq, at)| at.saturating_sub(due_ns[seq as usize]))
            .collect();
        for chunk in lat.chunks(plan.window_msgs) {
            let w = stats::summarize(&mut chunk.to_vec());
            window_p50.push(w.p50 as f64);
            window_p90.push(w.p90 as f64);
        }
        steady_lat.extend_from_slice(&lat);
        late_ns.extend_from_slice(&open.late_ns);
        rtt_ns.extend(open.polls.iter().map(|p| p.rtt_ns));
        if last {
            peak_kb = cycle_peak + f.victim_peak_kb;
            outage = times
                .iter()
                .filter(|(seq, _)| due_ns[*seq as usize] >= kill_ns)
                .map(|&(_, at)| at)
                .min();
            fault_polls = open.polls;
            fault_seen = f;
        }
    }
    let _ = fs::remove_dir_all(&dir);
    for v in &violations {
        eprintln!("udp-kill: CHECK FAILED: {v}");
    }
    out.correct = violations.is_empty();
    out.attempted = submitted;
    out.failed = undelivered;

    // ---- end-to-end metrics ----
    let lat = stats::summarize(&mut steady_lat);
    out.set("setup_s", median(&setup_secs));
    out.set("latency_p50_us", median(&window_p50) / 1e3);
    out.set("latency_p90_us", median(&window_p90) / 1e3);
    out.set("throughput_per_s", saturated);
    out.set("peak_rss_mb", peak_kb as f64 / 1024.0);

    // ---- per-layer metrics ----
    let f = &fault_seen;
    let kill_ns = f.kill_ns;
    let ms_between = |a: Option<Instant>, b: Option<Instant>| match (a, b) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64() * 1e3,
        _ => 0.0,
    };
    let ns_ms = |a: Option<u64>, b: u64| a.map_or(0.0, |a| a.saturating_sub(b) as f64 / 1e6);
    out.set("fault.outage_ms", ns_ms(outage, kill_ns));
    out.set("fault.rejoin_ms", ms_between(f.respawn_at, f.rejoined));
    let layers = obs::derive(&f.before_kill.iter().flatten().cloned().collect::<Vec<_>>());
    out.set("net.recv_ns_per_msg", layers.recv_ns_per_msg);
    out.set("net.send_ns_per_msg", layers.send_ns_per_msg);
    out.set("net.park_share", layers.park_share);
    out.set("wire.decode_ns_per_msg", layers.decode_ns_per_msg);
    out.set("core.dispatch_ns_per_msg", layers.dispatch_ns_per_msg);
    out.set("store.wal_appends_per_msg", layers.wal_appends_per_msg);
    out.set("store.wal_ns_per_msg", layers.wal_ns_per_msg);
    out.set("store.wal_sync_p50_us", layers.wal_sync_p50_us);
    out.set("store.wal_sync_max_us", layers.wal_sync_max_us);
    let last_scrape = |i: usize| after.get(i).and_then(Option::as_ref);
    out.set(
        "store.replay_records",
        counter(
            last_scrape(VICTIM).map(|e| &e.counters),
            names::WAL_REPLAY_RECORDS,
        ) as f64,
    );
    out.set(
        "net.inspect_rtt_us",
        stats::summarize(&mut rtt_ns).p50 as f64 / 1e3,
    );
    let detect = fault_polls
        .iter()
        .find(|p| p.at_ns >= kill_ns && p.state.members != N)
        .map(|p| p.at_ns);
    out.set("memb.detect_ms", ns_ms(detect, kill_ns));
    // From detection to the witness delivering again: the §3 recovery
    // and the install of the survivors' configuration.
    out.set("memb.install_ms", ns_ms(outage, detect.unwrap_or(kill_ns)));
    out.set("memb.merge_ms", ms_between(f.first_answer, f.rejoined));
    let witness_delta = |name: &str| {
        let before = f.before_kill.get(WITNESS).and_then(Option::as_ref);
        counter(last_scrape(WITNESS).map(|e| &e.counters), name)
            .saturating_sub(counter(before.map(|e| &e.counters), name)) as f64
    };
    out.set(
        "memb.configs_delivered",
        witness_delta(names::CONFIGS_DELIVERED),
    );
    out.set(
        "recovery.steps_entered",
        witness_delta(names::RECOVERY_STEPS_ENTERED),
    );
    let steady_msgs = plan.steady.as_secs_f64() * plan.rate as f64;
    out.set(
        "mem.rss_kb_per_kmsg",
        f.rss.1.saturating_sub(f.rss.0) as f64 / (steady_msgs / 1000.0).max(1e-9),
    );
    out.set(
        "gen.late_p99_us",
        stats::summarize(&mut late_ns).p99.unwrap_or(0) as f64 / 1e3,
    );
    out.set(
        "bench.failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if trace {
        let merged = spans::merge_stats([gen_spans.stats(), poll_spans.stats()]);
        let count: u64 = merged.values().map(|s| s.count).sum();
        let traced: u64 = merged.values().map(|s| s.self_ns).sum();
        out.set(
            "trace.overhead_share",
            count as f64 * spans::calibrate() / (traced as f64).max(1.0),
        );
        let mut tsv = String::new();
        gen_spans.write_tsv("generator", &mut tsv);
        poll_spans.write_tsv("poller", &mut tsv);
        crate::write_span_file("udp-kill", &tsv);
    }
    println!(
        "udp-kill: {submitted} messages over {} clusters ({} open loop at {}/s, {sat_sent} in \
         saturation with window {}); witness polled every {} us; p50 {:.0} us p90 {:.0} us over \
         {} samples in {} windows; outage {:.1} ms, rejoin {:.1} ms; undelivered {undelivered}; stalls: {}",
        plan.cycles,
        submitted - sat_sent,
        plan.rate,
        plan.window,
        plan.poll.as_micros(),
        lat.p50 as f64 / 1e3,
        lat.p90 as f64 / 1e3,
        lat.count,
        window_p50.len(),
        out.get("fault.outage_ms"),
        out.get("fault.rejoin_ms"),
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
    fn inspect_replies_parse() {
        let mut pkt = b"EVSCR".to_vec();
        pkt.extend_from_slice(&[1, 3]);
        pkt.extend_from_slice(&42u32.to_le_bytes());
        assert_eq!(
            parse_inspect(&pkt),
            Some(Inspect {
                settled: true,
                members: 3,
                count: 42
            })
        );
        assert_eq!(parse_inspect(b"EVSCD"), None);
        assert_eq!(parse_inspect(&pkt[..10]), None);
    }

    #[test]
    fn witness_count_maps_to_messages_past_configurations() {
        // The witness delivered: config, config, m(counter 5), m(6),
        // config, config, m(7). Counters 5, 6, 7 are sequence 0, 1, 2.
        let deliveries = vec![None, None, Some(5), Some(6), None, None, Some(7)];
        let seqs: HashMap<u64, u64> = [(5, 0), (6, 1), (7, 2)].into();
        // Polls: count 2 at t=10 (configs only), 3 at t=20 (m5), 6 at
        // t=30 (m6 plus two configs), 7 at t=40 (m7).
        let polls = vec![(10, 2), (20, 3), (30, 6), (40, 7)];
        assert_eq!(
            delivery_times(&deliveries, &polls, &seqs),
            vec![(0, 20), (1, 30), (2, 40)]
        );
        // A delivery no poll saw yet stays untimed.
        assert_eq!(
            delivery_times(&deliveries, &polls[..2], &seqs),
            vec![(0, 20)]
        );
        // A message from another origin (unknown counter) is skipped.
        let other = vec![Some(99), Some(5)];
        assert_eq!(delivery_times(&other, &[(7, 2)], &seqs), vec![(0, 7)]);
    }

    fn config(epoch: u64, transitional: bool, members: &[u32]) -> evs::core::Configuration {
        evs::core::Configuration {
            id: ConfigId {
                epoch,
                rep: evs::sim::ProcessId::new(0),
                transitional,
            },
            members: members
                .iter()
                .map(|&m| evs::sim::ProcessId::new(m))
                .collect(),
        }
    }

    fn journal_text(events: &[EvsEvent]) -> String {
        let mut text = String::new();
        for ev in events {
            trace_io::format_event(&mut text, evs::sim::SimTime::from_ticks(4), ev);
            text.push('\n');
        }
        text
    }

    #[test]
    fn journals_parse_and_drop_a_torn_tail() {
        let c = config(1, false, &[0]);
        let id = evs::order::MessageId::new(evs::sim::ProcessId::new(0), 9);
        let text = journal_text(&[
            EvsEvent::DeliverConf(c.clone()),
            EvsEvent::Send {
                id,
                config: c.id,
                service: evs::order::Service::Safe,
            },
            EvsEvent::Deliver {
                id,
                config: c.id,
                service: evs::order::Service::Safe,
                seq: 1,
            },
        ]);
        let log = parse_log(&text).unwrap();
        assert_eq!(log.len(), 3);
        let clean = Journal::of(&log);
        assert_eq!(clean.sent, vec![9]);
        assert_eq!(clean.safe, vec![true]);
        assert_eq!(clean.deliveries, vec![None, Some(9)]);
        assert_eq!(clean.configs, vec![(c.id, vec![0])]);
        let torn = format!("{text}4 deliv");
        assert_eq!(parse_log(&torn).unwrap(), log);
        let broken = format!("garbage\n{text}");
        assert!(parse_log(&broken).is_err());
    }

    #[test]
    fn journals_become_histories_around_the_fault() {
        // The victim delivered counter 1 in the full configuration, was
        // killed, and its reincarnation journaled fail_p(full) and then
        // installed the merged configuration, where it delivered 3.
        let full = config(1, false, &[0, 1, 2]);
        let after = config(3, false, &[0, 1, 2]);
        let deliver = |c: u64, config: &evs::core::Configuration| EvsEvent::Deliver {
            id: evs::order::MessageId::new(evs::sim::ProcessId::new(0), c),
            config: config.id,
            service: evs::order::Service::Agreed,
            seq: c,
        };
        let j = Journal::of(
            &parse_log(&journal_text(&[
                EvsEvent::DeliverConf(full.clone()),
                deliver(1, &full),
                EvsEvent::Fail { config: full.id },
                EvsEvent::DeliverConf(after.clone()),
                deliver(3, &after),
                deliver(7, &after),
            ]))
            .unwrap(),
        );
        assert_eq!(j.failed_in, vec![full.id]);
        let seqs: HashMap<u64, u64> = [(1, 0), (2, 1), (3, 2)].into();
        assert_eq!(
            j.history(&seqs),
            History {
                // Counter 7 is unknown: the check reports it.
                order: vec![0, 2, u64::MAX],
                configs: vec![(0, full.id, vec![0, 1, 2]), (1, after.id, vec![0, 1, 2])],
                failed_in: vec![full.id],
            }
        );
    }
}
