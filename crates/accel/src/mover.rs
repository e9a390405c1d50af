//! The DMA line mover: one gather and one scatter of whole lines.
//!
//! The preemption save and restore ([`harness`](crate::harness)) and
//! SSSP's fetches and on-chip write-back move lines the same way: issue
//! line requests while the port takes them, match each response to its
//! line, and end when every line is answered. Both pieces absorb every
//! delivered response before they issue.

use optimus_fabric::accelerator::AccelPort;
use optimus_mem::addr::Gva;
use optimus_sim::hashing::FastMap;
use optimus_sim::time::Cycle;
use std::collections::VecDeque;

/// The GVA of line `idx` of a buffer at `base`. It wraps, as the auditor's
/// offset add does: a guest pointer near 2^64 steps to the bottom of the
/// address space, where the auditor window decides, instead of
/// overflowing.
pub(crate) fn line(base: u64, idx: u64) -> Gva {
    Gva::new(base.wrapping_add(idx.wrapping_mul(64)))
}

/// A gather of runs of consecutive lines. Slots number the lines in run
/// order, and each response lands in its own slot by tag, so reads the
/// channel fabric reorders still land where they belong. Lines are kept
/// as they arrive: nothing is sized from a run's length, so a
/// guest-written count costs memory only as its lines really stream.
#[derive(Debug, Default)]
pub(crate) struct Gather {
    /// Tag → slot of every read in flight. A map, not a scan: a
    /// multi-megabyte restore streams tens of thousands of lines. A
    /// response whose tag is not here is not the gather's.
    expect: FastMap<u32, usize>,
    lines: Vec<Option<Box<[u8; 64]>>>,
    /// Runs still to issue: (first line GVA, lines).
    to_issue: VecDeque<(u64, u64)>,
    /// The next line of the front run.
    next: u64,
    issued: usize,
    /// A read came back master-aborted: nothing more is issued and the
    /// gather ends once its reads in flight have returned.
    aborted: bool,
}

/// Where a [`Gather`] stands after [`Gather::poll`].
pub(crate) enum Got {
    Pending,
    Lines,
    Aborted,
}

impl Gather {
    /// A gather of `(first line GVA, line count)` runs, issued in order.
    pub(crate) fn new(runs: impl IntoIterator<Item = (u64, u64)>) -> Self {
        Gather {
            to_issue: runs.into_iter().filter(|&(_, n)| n > 0).collect(),
            ..Gather::default()
        }
    }

    /// A gather of single lines, issued in order.
    pub(crate) fn of_lines(gvas: &[u64]) -> Self {
        Self::new(gvas.iter().map(|&g| (g, 1)))
    }

    /// Whether [`poll`](Self::poll) would issue a read given a willing port
    /// and room in its window (fast-forward hint).
    pub(crate) fn wants_issue(&self) -> bool {
        !self.aborted && !self.to_issue.is_empty()
    }

    /// Absorbs delivered responses, keeps up to `window` reads in flight,
    /// and reports whether every line has arrived.
    pub(crate) fn poll(&mut self, port: &mut AccelPort, now: Cycle, window: usize) -> Got {
        while let Some(resp) = port.pop_response() {
            if let Some(slot) = self.expect.remove(&resp.tag.0) {
                match resp.data {
                    Some(line) => {
                        if slot >= self.lines.len() {
                            self.lines.resize_with(slot + 1, || None);
                        }
                        self.lines[slot] = Some(line);
                    }
                    None => self.aborted = true,
                }
            }
        }
        while self.wants_issue() && self.expect.len() < window && port.can_issue() {
            let (first, n) = self.to_issue[0];
            let tag = port.read(line(first, self.next), now);
            self.next += 1;
            if self.next == n {
                self.to_issue.pop_front();
                self.next = 0;
            }
            self.expect.insert(tag.0, self.issued);
            self.issued += 1;
        }
        match (self.expect.is_empty(), self.aborted) {
            (true, true) => Got::Aborted,
            (true, false) if self.to_issue.is_empty() => Got::Lines,
            _ => Got::Pending,
        }
    }

    /// Line `slot` of a complete gather.
    pub(crate) fn line(&self, slot: usize) -> &[u8; 64] {
        self.lines[slot].as_deref().expect("gather complete")
    }

    /// Every line of a complete gather, in slot order.
    pub(crate) fn lines(&self) -> impl Iterator<Item = &[u8; 64]> {
        (0..self.lines.len()).map(|slot| self.line(slot))
    }
}

/// A scatter of lines to consecutive GVAs, done in the cycle its last
/// acknowledgment arrives.
#[derive(Debug)]
pub(crate) struct Scatter {
    base: u64,
    lines: u64,
    issued: u64,
    acked: u64,
}

impl Scatter {
    /// A scatter of `lines` lines from `base` on.
    pub(crate) fn new(base: u64, lines: u64) -> Self {
        Scatter {
            base,
            lines,
            issued: 0,
            acked: 0,
        }
    }

    /// Whether [`poll`](Self::poll) would issue a write given a willing
    /// port (fast-forward hint).
    pub(crate) fn wants_issue(&self) -> bool {
        self.issued < self.lines
    }

    /// Counts delivered acknowledgments, writes line `i` as `fill(i)`
    /// while the port takes them, and reports whether every line is
    /// acknowledged.
    pub(crate) fn poll(
        &mut self,
        port: &mut AccelPort,
        now: Cycle,
        mut fill: impl FnMut(u64) -> [u8; 64],
    ) -> bool {
        while let Some(resp) = port.pop_response() {
            debug_assert!(resp.data.is_none(), "a read answered during a scatter");
            self.acked += 1;
        }
        while self.wants_issue() && port.can_issue() {
            let out = Box::new(fill(self.issued));
            port.write(line(self.base, self.issued), out, now);
            self.issued += 1;
        }
        !self.wants_issue() && self.acked >= self.issued
    }
}

#[cfg(test)]
impl Gather {
    /// Lines held so far.
    pub(crate) fn held(&self) -> usize {
        self.lines.len()
    }
}
