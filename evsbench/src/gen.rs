//! Seeded input generation and the open-loop schedule.
//!
//! The workload seed is an argument of the benchmark; the program only
//! ever sees what is generated here — payload bytes and the service of
//! each message.

use evs::core::{Payload, Service};
use std::time::{Duration, Instant};

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same inputs on every machine.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A message body of `len` bytes: the message's sequence number in the
/// first eight bytes (little endian), seeded noise after it.
pub fn body(rng: &mut Rng, seq: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len.max(8));
    out.extend_from_slice(&seq.to_le_bytes());
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len.max(8));
    out
}

/// The sequence number a [`body`] carries.
pub fn seq_of(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?))
}

/// The 3 agreed : 1 safe service mix, drawn per message.
pub fn service(rng: &mut Rng) -> Service {
    if rng.next_u64().is_multiple_of(4) {
        Service::Safe
    } else {
        Service::Agreed
    }
}

/// One generated message.
#[derive(Clone, Debug)]
pub struct Msg {
    /// Sequence number (also in the payload).
    pub seq: u64,
    /// Requested service.
    pub service: Service,
    /// Payload.
    pub payload: Payload,
}

/// Generates message `seq` of a stream.
pub fn message(rng: &mut Rng, seq: u64, len: usize) -> Msg {
    let service = service(rng);
    Msg {
        seq,
        service,
        payload: Payload::from(body(rng, seq, len)),
    }
}

/// A fixed-rate schedule: message `k` is due at `start + k / rate`.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Instant message 0 is due.
    pub start: Instant,
    /// Messages per second.
    pub rate: u64,
}

impl Schedule {
    /// When message `k` of the schedule is due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + Duration::from_nanos(k.saturating_mul(1_000_000_000) / self.rate.max(1))
    }

    /// Sleeps (never spins) until message `k` is due. Returns at once if
    /// it is already due.
    pub fn sleep_until(&self, k: u64) {
        let due = self.due(k);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_name_inputs() {
        let a: Vec<u8> = body(&mut Rng::new(7), 42, 256);
        let b: Vec<u8> = body(&mut Rng::new(7), 42, 256);
        let c: Vec<u8> = body(&mut Rng::new(8), 42, 256);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 256);
        assert_eq!(seq_of(&a), Some(42));
        assert_eq!(seq_of(&[1, 2]), None);
        assert_eq!(body(&mut Rng::new(1), 9, 8).len(), 8);
    }

    #[test]
    fn service_mix_is_three_to_one() {
        let mut rng = Rng::new(3);
        let safe = (0..40_000)
            .filter(|_| service(&mut rng) == Service::Safe)
            .count();
        assert!((9_000..11_000).contains(&safe), "{safe}");
    }

    #[test]
    fn schedule_spaces_messages_evenly() {
        let s = Schedule {
            start: Instant::now(),
            rate: 20_000,
        };
        assert_eq!(s.due(0), s.start);
        assert_eq!(s.due(20_000) - s.start, Duration::from_secs(1));
        assert_eq!(s.due(3) - s.due(2), Duration::from_micros(50));
    }
}
