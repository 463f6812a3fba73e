//! Per-layer metrics derived from `OBS?` expositions of the
//! `udp_cluster` children — the program's own instruments, read from
//! outside through the scrape every worker answers.

use crate::report::counter;
use evs::obs::Exposition;
use evs::telemetry::{names, Phase};

/// Per-layer figures of one scrape round over all children.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetLayers {
    /// Socket receive time per delivered message (ns).
    pub recv_ns_per_msg: f64,
    /// Encode + kernel submit time per delivered message (ns).
    pub send_ns_per_msg: f64,
    /// Share of loop time parked on the socket.
    pub park_share: f64,
    /// Frame decode time per delivered message (ns).
    pub decode_ns_per_msg: f64,
    /// Engine dispatch (data, token, timers) per delivered message (ns).
    pub dispatch_ns_per_msg: f64,
    /// Trace-journal write plus WAL sync time per delivered message (ns).
    pub wal_ns_per_msg: f64,
    /// WAL appends per delivered message.
    pub wal_appends_per_msg: f64,
    /// Median WAL sync (µs), the median over children.
    pub wal_sync_p50_us: f64,
    /// Longest WAL sync (µs) of any child.
    pub wal_sync_max_us: f64,
}

fn phase_ns(e: &Exposition, p: Phase) -> u64 {
    e.phases.get(p.name()).map_or(0, |s| s.ns)
}

/// Messages an exposition says its process delivered.
pub fn delivered(e: &Exposition) -> u64 {
    counter([&e.counters], names::DELIVERED_AGREED)
        + counter([&e.counters], names::DELIVERED_SAFE)
        + counter([&e.counters], names::DELIVERED_CAUSAL)
}

/// Derives the net, wire, core and store figures from one scrape of every
/// child: phase nanoseconds and counters summed over children, divided by
/// the messages they delivered.
pub fn derive(expos: &[Exposition]) -> NetLayers {
    let msgs = expos.iter().map(delivered).sum::<u64>().max(1) as f64;
    let sum = |phases: &[Phase]| -> f64 {
        expos
            .iter()
            .map(|e| phases.iter().map(|&p| phase_ns(e, p)).sum::<u64>())
            .sum::<u64>() as f64
    };
    let total: u64 = expos.iter().map(Exposition::phase_total_ns).sum();
    let sync = |e: &Exposition| e.hists.get(names::WAL_SYNC_NS).copied().unwrap_or_default();
    let sync_ns: u64 = expos.iter().map(|e| sync(e).sum).sum();
    let mut p50s: Vec<f64> = expos.iter().map(|e| sync(e).p50 as f64).collect();
    NetLayers {
        recv_ns_per_msg: sum(&[Phase::Recv]) / msgs,
        send_ns_per_msg: sum(&[Phase::Send, Phase::Submit]) / msgs,
        park_share: sum(&[Phase::Park]) / (total.max(1) as f64),
        decode_ns_per_msg: sum(&[Phase::Decode]) / msgs,
        dispatch_ns_per_msg: sum(&[Phase::Dispatch, Phase::Token, Phase::Timers]) / msgs,
        wal_ns_per_msg: (sum(&[Phase::Wal]) + sync_ns as f64) / msgs,
        wal_appends_per_msg: expos
            .iter()
            .map(|e| counter([&e.counters], names::WAL_APPENDS))
            .sum::<u64>() as f64
            / msgs,
        wal_sync_p50_us: {
            p50s.sort_by(f64::total_cmp);
            p50s.get(p50s.len() / 2).copied().unwrap_or(0.0) / 1e3
        },
        wal_sync_max_us: expos.iter().map(|e| sync(e).max).max().unwrap_or(0) as f64 / 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An exposition as a child would send it.
    fn child(delivered: u64, recv: u64, park: u64, sync_p50: u64, sync_max: u64) -> Exposition {
        let text = format!(
            "EVSOBS 1\npid 0\nseq 3\ninfo role child\n\
             counter delivered_agreed {delivered}\ncounter delivered_safe 0\n\
             counter wal_appends {}\n\
             hist wal_sync_ns 4 {} {sync_max} {sync_p50} {sync_max} {sync_max}\n\
             phase decode 1000 0\nphase dispatch 3000 0\nphase park {park} 0\n\
             phase recv {recv} 0\nphase send 500 0\nphase submit 1500 0\n\
             phase timers 1000 0\nphase token 2000 0\nphase wal 4000 0\nend\n",
            delivered / 2,
            4 * sync_p50
        );
        Exposition::parse(&text).expect("valid exposition")
    }

    #[test]
    fn scrape_round_derives_per_message_costs() {
        let a = child(100, 10_000, 80_000, 2_000, 9_000);
        let b = child(100, 30_000, 40_000, 4_000, 5_000);
        let d = derive(&[a.clone(), b]);
        assert_eq!(delivered(&a), 100);
        assert_eq!(d.recv_ns_per_msg, 40_000.0 / 200.0);
        assert_eq!(d.send_ns_per_msg, 2.0 * 2_000.0 / 200.0);
        assert_eq!(d.decode_ns_per_msg, 2_000.0 / 200.0);
        assert_eq!(d.dispatch_ns_per_msg, 2.0 * 6_000.0 / 200.0);
        // Journal writes (phase wal) plus the sync histogram sums.
        assert_eq!(d.wal_ns_per_msg, (8_000.0 + 8_000.0 + 16_000.0) / 200.0);
        assert_eq!(d.wal_appends_per_msg, 0.5);
        let total = (10_000 + 80_000 + 13_000 + 30_000 + 40_000 + 13_000) as f64;
        assert!((d.park_share - 120_000.0 / total).abs() < 1e-12);
        assert_eq!(d.wal_sync_p50_us, 4.0);
        assert_eq!(d.wal_sync_max_us, 9.0);
    }

    #[test]
    fn empty_scrape_round_reads_zero() {
        assert_eq!(derive(&[]), NetLayers::default());
    }
}
