//! Temporal-multiplexing schedulers.
//!
//! The paper's default is unweighted round-robin with 10 ms slices; §5 also
//! describes a weighted-time-slice scheduler and a priority scheduler, and
//! §6.8 validates that each enforces its policy to within 1.42 % of the
//! expected share. [`SliceScheduler`] tracks runnable virtual accelerators
//! on one physical accelerator and answers two questions: *who runs next*
//! and *for how long*.

use crate::snapshot::{wire_enum, Reader, SnapshotError, Wire};
use optimus_sim::time::Cycle;

/// The scheduling policy for one physical accelerator's run queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Equal time slices, round-robin order (the paper's default).
    RoundRobin,
    /// Time slices proportional to each virtual accelerator's weight.
    Weighted,
    /// The runnable virtual accelerator with the highest priority always
    /// runs; ties round-robin.
    Priority,
}

wire_enum!(SchedPolicy, "policy", 0 => SchedPolicy::RoundRobin, 1 => SchedPolicy::Weighted,
    2 => SchedPolicy::Priority);

/// One queue member: the scheduler's own record, and what
/// [`SliceScheduler::export_members`] hands out and
/// [`SliceScheduler::insert_member`] / [`SliceScheduler::restore`] take
/// back during migration and hypervisor live-update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberState {
    /// The member's queue key (the vaccel id).
    pub key: u64,
    /// Weight under the weighted policy.
    pub weight: u32,
    /// Priority under the priority policy.
    pub priority: u32,
    /// Whether the member is currently runnable.
    pub runnable: bool,
    /// Cycles of slice time charged so far.
    pub occupied: Cycle,
}

impl Wire for MemberState {
    fn put(&self, w: &mut Vec<u8>) {
        self.key.put(w);
        self.weight.put(w);
        self.priority.put(w);
        self.runnable.put(w);
        self.occupied.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            key: Wire::get(r)?,
            weight: Wire::get(r)?,
            priority: Wire::get(r)?,
            runnable: Wire::get(r)?,
            occupied: Wire::get(r)?,
        })
    }
}

/// Per-physical-accelerator slice scheduler.
#[derive(Debug, Clone)]
pub struct SliceScheduler {
    policy: SchedPolicy,
    base_slice: Cycle,
    members: Vec<MemberState>,
    cursor: usize,
}

impl SliceScheduler {
    /// Creates a scheduler with the given policy and base slice length (in
    /// fabric cycles; the paper's default is 10 ms = 4 M cycles).
    pub fn new(policy: SchedPolicy, base_slice: Cycle) -> Self {
        Self {
            policy,
            base_slice,
            members: Vec::new(),
            cursor: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &SchedPolicy {
        &self.policy
    }

    /// Registers a virtual accelerator with a weight (weighted policy) and
    /// priority (priority policy).
    pub fn add(&mut self, key: u64, weight: u32, priority: u32) {
        assert!(weight > 0, "weights must be positive");
        self.members.push(MemberState { key, weight, priority, runnable: true, occupied: 0 });
    }

    /// Marks a member runnable or idle (idle members are skipped).
    pub fn set_runnable(&mut self, key: u64, runnable: bool) {
        if let Some(m) = self.members.iter_mut().find(|m| m.key == key) {
            m.runnable = runnable;
        }
    }

    /// Removes a member from the queue, returning its state (for re-insertion
    /// on a migration target). The cursor is adjusted so the rotation order
    /// of the remaining members is unchanged.
    pub fn remove(&mut self, key: u64) -> Option<MemberState> {
        let idx = self.members.iter().position(|m| m.key == key)?;
        let m = self.members.remove(idx);
        if idx < self.cursor {
            self.cursor -= 1;
        }
        if self.cursor >= self.members.len() {
            self.cursor = 0;
        }
        Some(m)
    }

    /// Appends a member with explicit state (a migrated tenant keeps its
    /// occupancy account and runnability on the target queue).
    pub fn insert_member(&mut self, state: MemberState) {
        assert!(state.weight > 0, "weights must be positive");
        self.members.push(state);
    }

    /// Exports all members in queue order (for
    /// [`HvSnapshot`](crate::snapshot::HvSnapshot)).
    pub fn export_members(&self) -> Vec<MemberState> {
        self.members.clone()
    }

    /// The rotation cursor (index of the next probe start).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The base slice length the scheduler was built with.
    pub fn base_slice(&self) -> Cycle {
        self.base_slice
    }

    /// Rebuilds a scheduler from exported state (hypervisor live-update).
    pub fn restore(
        policy: SchedPolicy,
        base_slice: Cycle,
        members: Vec<MemberState>,
        cursor: usize,
    ) -> Self {
        let mut s = Self::new(policy, base_slice);
        for m in members {
            s.insert_member(m);
        }
        s.cursor = if s.members.is_empty() { 0 } else { cursor % s.members.len() };
        s
    }

    /// Number of registered members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if no members are registered.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Picks the next virtual accelerator and its slice length, and charges
    /// the slice to its occupancy account. Returns `None` if nothing is
    /// runnable.
    pub fn next_slice(&mut self) -> Option<(u64, Cycle)> {
        if self.members.iter().all(|m| !m.runnable) {
            return None;
        }
        let n = self.members.len();
        let idx = match self.policy {
            SchedPolicy::RoundRobin | SchedPolicy::Weighted => {
                let mut idx = None;
                for probe in 0..n {
                    let i = (self.cursor + probe) % n;
                    if self.members[i].runnable {
                        idx = Some(i);
                        break;
                    }
                }
                idx?
            }
            SchedPolicy::Priority => {
                // Highest priority wins; ties rotate from the cursor.
                let best = self
                    .members
                    .iter()
                    .filter(|m| m.runnable)
                    .map(|m| m.priority)
                    .max()?;
                let mut idx = None;
                for probe in 0..n {
                    let i = (self.cursor + probe) % n;
                    if self.members[i].runnable && self.members[i].priority == best {
                        idx = Some(i);
                        break;
                    }
                }
                idx?
            }
        };
        self.cursor = (idx + 1) % n;
        let slice = match self.policy {
            SchedPolicy::Weighted => self.base_slice * self.members[idx].weight as u64,
            _ => self.base_slice,
        };
        self.members[idx].occupied += slice;
        Some((self.members[idx].key, slice))
    }

    /// Per-member `(key, occupied cycles)` accounting, for the §6.8
    /// fairness validation.
    pub fn occupancy(&self) -> Vec<(u64, Cycle)> {
        self.members.iter().map(|m| (m.key, m.occupied)).collect()
    }

    /// The expected occupancy *fraction* for each member under the policy,
    /// assuming all members stay runnable.
    pub fn expected_shares(&self) -> Vec<(u64, f64)> {
        match self.policy {
            SchedPolicy::RoundRobin => {
                let share = 1.0 / self.members.len() as f64;
                self.members.iter().map(|m| (m.key, share)).collect()
            }
            SchedPolicy::Weighted => {
                let total: u64 = self.members.iter().map(|m| m.weight as u64).sum();
                self.members
                    .iter()
                    .map(|m| (m.key, m.weight as f64 / total as f64))
                    .collect()
            }
            SchedPolicy::Priority => {
                let best = self.members.iter().map(|m| m.priority).max().unwrap_or(0);
                let winners = self.members.iter().filter(|m| m.priority == best).count();
                self.members
                    .iter()
                    .map(|m| {
                        let share = if m.priority == best {
                            1.0 / winners as f64
                        } else {
                            0.0
                        };
                        (m.key, share)
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sched: &mut SliceScheduler, slices: usize) -> std::collections::HashMap<u64, Cycle> {
        let mut tally = std::collections::HashMap::new();
        for _ in 0..slices {
            if let Some((key, len)) = sched.next_slice() {
                *tally.entry(key).or_insert(0) += len;
            }
        }
        tally
    }

    #[test]
    fn round_robin_equal_shares() {
        let mut s = SliceScheduler::new(SchedPolicy::RoundRobin, 100);
        for k in 0..4 {
            s.add(k, 1, 0);
        }
        let tally = run(&mut s, 400);
        for k in 0..4 {
            assert_eq!(tally[&k], 100 * 100);
        }
    }

    #[test]
    fn weighted_shares_proportional() {
        let mut s = SliceScheduler::new(SchedPolicy::Weighted, 100);
        s.add(0, 1, 0);
        s.add(1, 3, 0);
        let tally = run(&mut s, 200);
        let total = tally[&0] + tally[&1];
        let share1 = tally[&1] as f64 / total as f64;
        assert!((share1 - 0.75).abs() < 0.01, "share {share1}");
    }

    #[test]
    fn priority_starves_lower() {
        let mut s = SliceScheduler::new(SchedPolicy::Priority, 100);
        s.add(0, 1, 1);
        s.add(1, 1, 9);
        s.add(2, 1, 9);
        let tally = run(&mut s, 300);
        assert!(!tally.contains_key(&0));
        assert_eq!(tally[&1], tally[&2]);
    }

    #[test]
    fn priority_falls_back_when_top_idles() {
        let mut s = SliceScheduler::new(SchedPolicy::Priority, 100);
        s.add(0, 1, 1);
        s.add(1, 1, 9);
        s.set_runnable(1, false);
        let (key, _) = s.next_slice().unwrap();
        assert_eq!(key, 0);
    }

    #[test]
    fn idle_members_skipped_in_round_robin() {
        let mut s = SliceScheduler::new(SchedPolicy::RoundRobin, 10);
        s.add(0, 1, 0);
        s.add(1, 1, 0);
        s.set_runnable(0, false);
        let tally = run(&mut s, 10);
        assert_eq!(tally.get(&0), None);
        assert_eq!(tally[&1], 100);
    }

    #[test]
    fn nothing_runnable_returns_none() {
        let mut s = SliceScheduler::new(SchedPolicy::RoundRobin, 10);
        s.add(0, 1, 0);
        s.set_runnable(0, false);
        assert_eq!(s.next_slice(), None);
    }

    #[test]
    fn remove_preserves_rotation_order() {
        let mut s = SliceScheduler::new(SchedPolicy::RoundRobin, 10);
        for k in 0..4 {
            s.add(k, 1, 0);
        }
        // Advance so the cursor sits past member 1.
        assert_eq!(s.next_slice().unwrap().0, 0);
        assert_eq!(s.next_slice().unwrap().0, 1);
        // Removing an earlier member must not skip anyone.
        let st = s.remove(0).unwrap();
        assert_eq!(st.occupied, 10);
        assert_eq!(s.next_slice().unwrap().0, 2);
        assert_eq!(s.next_slice().unwrap().0, 3);
        assert_eq!(s.next_slice().unwrap().0, 1);
        assert_eq!(s.remove(42), None);
    }

    #[test]
    fn export_restore_round_trip() {
        let mut s = SliceScheduler::new(SchedPolicy::Weighted, 50);
        s.add(7, 2, 1);
        s.add(9, 1, 3);
        s.next_slice();
        s.set_runnable(9, false);
        let members = s.export_members();
        let mut r = SliceScheduler::restore(s.policy().clone(), s.base_slice(), members, s.cursor());
        // Both schedulers now produce the same sequence.
        for _ in 0..6 {
            assert_eq!(s.next_slice(), r.next_slice());
        }
        assert_eq!(s.occupancy(), r.occupancy());
    }

    #[test]
    fn insert_member_keeps_occupancy() {
        let mut s = SliceScheduler::new(SchedPolicy::RoundRobin, 10);
        s.insert_member(MemberState {
            key: 5,
            weight: 1,
            priority: 0,
            runnable: true,
            occupied: 123,
        });
        assert_eq!(s.occupancy(), vec![(5, 123)]);
    }

    #[test]
    fn occupancy_matches_expected_shares() {
        let mut s = SliceScheduler::new(SchedPolicy::Weighted, 50);
        s.add(0, 2, 0);
        s.add(1, 1, 0);
        s.add(2, 1, 0);
        run(&mut s, 400);
        let occ = s.occupancy();
        let total: u64 = occ.iter().map(|&(_, c)| c).sum();
        for (key, share) in s.expected_shares() {
            let actual = occ.iter().find(|&&(k, _)| k == key).unwrap().1 as f64 / total as f64;
            assert!(
                (actual - share).abs() < 0.01,
                "key {key}: {actual} vs {share}"
            );
        }
    }
}
