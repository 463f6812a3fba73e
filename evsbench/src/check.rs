//! The linear output check shared by `ring` and `udp-kill`.
//!
//! Each member's [`History`] is its delivery order (message sequence
//! numbers) interleaved with the configurations it installed. Every pair
//! of members must agree on the relative order of the messages both
//! delivered (one total order), and no member may deliver a message twice
//! or deliver one nobody sent.
//!
//! Which members must deliver a message follows the paper's
//! specifications, read off the histories ([`owed`]):
//!
//! * its origin (self delivery, Spec 3; no origin crashes in either
//!   workload);
//! * every member that installed the configuration in which some member
//!   delivered it and left that configuration for the same next one
//!   (failure atomicity, Spec 4);
//! * for a safe message, every member of the configuration in which it
//!   was delivered, unless that member failed there (Spec 7.1).
//!
//! So a member that a configuration change took elsewhere — the victim of
//! a SIGKILL, or a member a partition split off — does not owe the
//! messages the others delivered after they parted, as extended virtual
//! synchrony allows. When no configuration changes, every member owes
//! every message.

use evs::membership::ConfigId;
use std::collections::HashMap;

/// One member's deliveries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct History {
    /// Message sequence numbers in delivery order.
    pub order: Vec<u64>,
    /// Configurations installed, in order: the number of messages
    /// delivered before it, its id and its members.
    pub configs: Vec<(usize, ConfigId, Vec<usize>)>,
    /// Configurations this member failed in (`fail_p(c)`).
    pub failed_in: Vec<ConfigId>,
}

/// Outcome of the check.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Order and duplication violations (empty when correct).
    pub violations: Vec<String>,
    /// Messages some member owed and did not deliver.
    pub undelivered: u64,
}

/// Who owes each of `submitted` messages numbered `0..submitted`, as a
/// bit set of members. `origin` names a message's sender, `safe` whether
/// it asked for safe delivery.
pub fn owed(
    histories: &[History],
    submitted: u64,
    origin: &dyn Fn(u64) -> usize,
    safe: &dyn Fn(u64) -> bool,
) -> Vec<u8> {
    assert!(histories.len() <= 8, "members are a u8 bit set");
    let mut owed: Vec<u8> = (0..submitted).map(|s| 1 << origin(s)).collect();
    // Per member: configuration → the one it installed next.
    let next: Vec<HashMap<ConfigId, Option<ConfigId>>> = histories
        .iter()
        .map(|h| {
            h.configs
                .iter()
                .enumerate()
                .map(|(k, c)| (c.1, h.configs.get(k + 1).map(|n| n.1)))
                .collect()
        })
        .collect();
    for (p, h) in histories.iter().enumerate() {
        // The regular configuration a transitional one follows.
        let mut regular = None;
        for (k, (start, id, members)) in h.configs.iter().enumerate() {
            if !id.transitional {
                regular = Some(*id);
            }
            let failed = |q: usize| {
                let f = &histories[q].failed_in;
                f.contains(id) || regular.is_some_and(|r| f.contains(&r))
            };
            let after = next[p].get(id).copied().flatten();
            let mut together = 0u8;
            for (q, nq) in next.iter().enumerate() {
                if nq.get(id).is_some_and(|&n| n == after) && !failed(q) {
                    together |= 1 << q;
                }
            }
            let mut safe_owed = 0u8;
            for &q in members {
                if q < histories.len() && !failed(q) {
                    safe_owed |= 1 << q;
                }
            }
            let end = h.configs.get(k + 1).map_or(h.order.len(), |n| n.0);
            for &seq in &h.order[*start..end] {
                if let Some(o) = owed.get_mut(seq as usize) {
                    *o |= together;
                    if safe(seq) {
                        *o |= safe_owed;
                    }
                }
            }
        }
    }
    owed
}

/// Checks `orders` (one delivery order per member) against `owed` (one
/// bit set of members per message, numbered `0..owed.len()`).
pub fn check_orders<O: AsRef<[u64]>>(orders: &[O], owed: &[u8]) -> Verdict {
    let submitted = owed.len() as u64;
    let mut v = Verdict::default();
    let mut positions: Vec<HashMap<u64, usize>> = Vec::with_capacity(orders.len());
    for (m, order) in orders.iter().enumerate() {
        let order = order.as_ref();
        let mut pos = HashMap::with_capacity(order.len());
        for (i, &seq) in order.iter().enumerate() {
            if seq >= submitted {
                v.violations
                    .push(format!("member {m} delivered unknown message {seq}"));
            }
            if pos.insert(seq, i).is_some() {
                v.violations
                    .push(format!("member {m} delivered message {seq} twice"));
            }
        }
        positions.push(pos);
    }
    for a in 0..orders.len() {
        for b in a + 1..orders.len() {
            let common = |x: usize, y: usize| -> Vec<u64> {
                orders[x]
                    .as_ref()
                    .iter()
                    .copied()
                    .filter(|s| positions[y].contains_key(s))
                    .collect()
            };
            if common(a, b) != common(b, a) {
                v.violations
                    .push(format!("members {a} and {b} delivered in different orders"));
            }
        }
    }
    for (seq, &bits) in owed.iter().enumerate() {
        let missing = (0..orders.len())
            .any(|m| bits & (1 << m) != 0 && !positions[m].contains_key(&(seq as u64)));
        if missing {
            v.undelivered += 1;
        }
    }
    v
}

/// [`owed`] then [`check_orders`] over the histories' orders.
pub fn check(
    histories: &[History],
    submitted: u64,
    origin: &dyn Fn(u64) -> usize,
    safe: &dyn Fn(u64) -> bool,
) -> Verdict {
    let owed = owed(histories, submitted, origin, safe);
    let orders: Vec<&[u64]> = histories.iter().map(|h| &h.order[..]).collect();
    check_orders(&orders, &owed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evs::sim::ProcessId;

    fn cid(epoch: u64, transitional: bool) -> ConfigId {
        ConfigId {
            epoch,
            rep: ProcessId::new(0),
            transitional,
        }
    }

    /// A history from `(messages delivered before, config)` marks.
    fn history(order: &[u64], configs: &[(usize, ConfigId, &[usize])]) -> History {
        History {
            order: order.to_vec(),
            configs: configs
                .iter()
                .map(|&(at, id, m)| (at, id, m.to_vec()))
                .collect(),
            failed_in: Vec::new(),
        }
    }

    #[test]
    fn one_configuration_owes_every_message_to_every_member() {
        let full = cid(1, false);
        let hs: Vec<History> = (0..3)
            .map(|_| history(&[0, 1, 2], &[(0, full, &[0, 1, 2])]))
            .collect();
        assert_eq!(owed(&hs, 3, &|_| 0, &|_| false), vec![0b111; 3]);
        assert_eq!(check(&hs, 3, &|_| 0, &|_| false), Verdict::default());
        // A message nobody delivered is still owed by its origin.
        let v = check(&hs, 4, &|s| s as usize % 3, &|_| false);
        assert_eq!(v.undelivered, 1);
    }

    #[test]
    fn a_member_split_off_owes_only_what_it_moved_on_with() {
        // Member 2 leaves {0,1,2} for a singleton; 0 and 1 deliver 3
        // (agreed) and 4 (safe) in the full configuration after it left.
        let (full, t01, t2) = (cid(1, false), cid(2, true), cid(3, true));
        let mut hs = vec![
            history(
                &[0, 1, 2, 3, 4],
                &[(0, full, &[0, 1, 2]), (5, t01, &[0, 1])],
            ),
            history(
                &[0, 1, 2, 3, 4],
                &[(0, full, &[0, 1, 2]), (5, t01, &[0, 1])],
            ),
            history(&[0, 1, 2], &[(0, full, &[0, 1, 2]), (3, t2, &[2])]),
        ];
        let safe = |s: u64| s == 4;
        let o = owed(&hs, 5, &|_| 0, &safe);
        assert_eq!(o[..3], [0b111; 3]);
        assert_eq!(o[3], 0b011);
        // Safe delivery in the full configuration binds member 2 too.
        assert_eq!(o[4], 0b111);
        assert_eq!(check(&hs, 5, &|_| 0, &safe).undelivered, 1);
        // Had member 2 failed there, it would be excused.
        hs[2].failed_in.push(full);
        assert_eq!(check(&hs, 5, &|_| 0, &safe).undelivered, 0);
        // Members that moved on together owe each other everything.
        hs[1].order.remove(3);
        hs[1].configs[1].0 = 4;
        assert_eq!(check(&hs, 5, &|_| 0, &safe).undelivered, 1);
    }

    #[test]
    fn transitional_deliveries_bind_the_transitional_members() {
        // 0 and 1 move full → t01 → r01; 0 delivers 2 in t01, 1 does not.
        let (full, t01, r01) = (cid(1, false), cid(2, true), cid(2, false));
        let hs = vec![
            history(
                &[0, 1, 2],
                &[(0, full, &[0, 1]), (1, t01, &[0, 1]), (3, r01, &[0, 1])],
            ),
            history(
                &[0, 1],
                &[(0, full, &[0, 1]), (1, t01, &[0, 1]), (2, r01, &[0, 1])],
            ),
        ];
        let o = owed(&hs, 3, &|_| 0, &|_| false);
        assert_eq!(o, vec![0b11, 0b11, 0b11]);
        assert_eq!(check(&hs, 3, &|_| 0, &|_| false).undelivered, 1);
    }

    #[test]
    fn counts_undelivered_and_flags_reorder_and_duplicates() {
        let orders = vec![vec![0, 1, 2], vec![0, 2, 1], vec![0, 0, 1]];
        let v = check_orders(&orders, &[0b111; 4]);
        assert!(v.violations.iter().any(|s| s.contains("0 and 1")));
        assert!(v.violations.iter().any(|s| s.contains("twice")));
        // 2 is missing at member 2, 3 everywhere.
        assert_eq!(v.undelivered, 2);
        let v = check_orders(&[vec![0, 1], vec![0, 1], vec![1, 0]], &[0b111; 2]);
        assert!(v.violations.iter().any(|s| s.contains("0 and 2")));
        let v = check_orders(&[vec![0, 9]], &[1]);
        assert!(v.violations.iter().any(|s| s.contains("unknown message 9")));
        // Only owed members count.
        let v = check_orders(&[vec![0], vec![], vec![]], &[0b001]);
        assert_eq!(v.undelivered, 0);
        let v = check_orders(&[vec![0], vec![], vec![]], &[0b011]);
        assert_eq!(v.undelivered, 1);
    }
}
