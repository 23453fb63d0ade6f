//! Replication role/epoch state for a serving node.
//!
//! A ViewMap cell is either the **primary** of its replication group —
//! it accepts mutations, logs them, ships the log — or a **follower**
//! applying its primary's shipped frames. A follower still *serves*:
//! investigations, public-key fetches, and counters are answered from
//! its replica state (which trails the primary only by the shipping
//! latency), but every mutating opcode is rejected with
//! [`crate::proto::ErrorCode::NotPrimary`] so no write can enter the
//! group anywhere but the head of the log.
//!
//! The **epoch** is a monotonically increasing configuration number: it
//! starts at the operator-assigned value and bumps on every
//! [`RoleCell::promote`]; a fenced front-end names it in its
//! `NotPrimary` detail. The replication layer (`vm-repl`) fences with
//! the same numbers: a follower configured at a later epoch that dials
//! a stale primary is refused by that primary (its `HELLO` is ahead)
//! and itself drops a `HELLO_OK` from a lower epoch, so it never
//! applies a superseded history. A promoted cell runs no replication
//! listener or applier, so the fence guards the follower side of a new
//! configuration, not the promoted cell itself.
//!
//! The cell is shared (`Arc`) between the front-end
//! ([`crate::server::VmService::spawn_with_role`]) and whatever failover
//! machinery decides to promote, so a promotion flips the serving
//! behavior of live sessions without restarting the listener: the next
//! dispatched frame observes the new role.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// What a node currently is within its replication group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Accepts mutations; the head of the replicated log.
    Primary,
    /// Applies shipped frames; serves reads, rejects mutations.
    Follower,
}

/// Shared, lock-free role + epoch state.
#[derive(Debug)]
pub struct RoleCell {
    /// 0 = primary, 1 = follower.
    role: AtomicU8,
    epoch: AtomicU64,
}

impl RoleCell {
    /// A cell starting as `role` in `epoch`.
    pub fn new(role: Role, epoch: u64) -> Self {
        RoleCell {
            role: AtomicU8::new(match role {
                Role::Primary => 0,
                Role::Follower => 1,
            }),
            epoch: AtomicU64::new(epoch),
        }
    }

    /// The current role.
    pub fn role(&self) -> Role {
        match self.role.load(Ordering::Acquire) {
            0 => Role::Primary,
            _ => Role::Follower,
        }
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Become primary in a new epoch: bumps the epoch *then* flips the
    /// role, returning the new epoch. Idempotent in effect (promoting a
    /// primary just advances its epoch), but meant to be called once,
    /// by the failover decision-maker, after the follower's replica
    /// state is caught up.
    pub fn promote(&self) -> u64 {
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.role.store(0, Ordering::Release);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promote_flips_role_and_bumps_epoch() {
        let cell = RoleCell::new(Role::Follower, 3);
        assert_eq!(cell.role(), Role::Follower);
        assert_eq!(cell.epoch(), 3);
        assert_eq!(cell.promote(), 4);
        assert_eq!(cell.role(), Role::Primary);
        assert_eq!(cell.epoch(), 4);
    }
}
