//! The event-driven platform clock.
//!
//! A cycle-stepped platform (the composed FPGA device, and the fakes this
//! module's tests substitute for it) advances the same way:
//! execute one cycle at a time, except that when event-horizon
//! fast-forwarding is enabled and the machine is provably idle until some
//! future cycle, the clock jumps straight to that cycle. [`PlatformClock`]
//! captures that contract once, so the fast-forward kernel — the part
//! whose correctness argument is subtle — exists in exactly one place and
//! every platform shares it.
//!
//! The contract mirrors the `next_event` protocol documented on
//! `FpgaDevice::next_event` in `optimus-fabric`: a cycle may be skipped
//! only if stepping it is provably a pure no-op, and every implementation
//! must be conservative (report `Some(now)` whenever in doubt), which
//! makes fast-forwarding bit-exact by construction.

use crate::time::Cycle;

/// A cycle-stepped machine that can report when its next observable
/// event occurs, enabling bit-exact event-horizon fast-forwarding.
pub trait PlatformClock {
    /// The machine's current cycle.
    fn now(&self) -> Cycle;

    /// Earliest future cycle at which [`step_cycle`](Self::step_cycle)
    /// can do anything, or `None` if the machine is quiescent until
    /// externally poked. Must be conservative: returning `Some(t)` with
    /// `t > now` asserts every step before `t` is a pure no-op.
    fn next_event(&self) -> Option<Cycle>;

    /// Executes exactly one cycle.
    fn step_cycle(&mut self);

    /// Moves the clock to `t` without executing the skipped cycles.
    /// Callers only invoke this for gaps [`next_event`](Self::next_event)
    /// declared dead.
    fn skip_to(&mut self, t: Cycle);

    /// Whether event-horizon fast-forwarding is active (the
    /// `OPTIMUS_NO_FASTFWD` escape hatch turns it off).
    fn fast_forward(&self) -> bool;

    /// Executes exactly `k` consecutive cycles without re-scanning the
    /// event horizon between them. The default simply loops
    /// [`step_cycle`](Self::step_cycle); implementations may override to
    /// hoist per-step overhead (mode dispatch, thread-local reads) out of
    /// the loop, but must remain step-for-step identical to the default.
    fn step_many(&mut self, k: Cycle) {
        for _ in 0..k {
            self.step_cycle();
        }
    }

    /// Advances toward `end`: skips directly to the next event when
    /// fast-forwarding is on and the machine is provably idle, otherwise
    /// executes one cycle. Never moves past `end`.
    fn advance_toward(&mut self, end: Cycle) {
        if self.fast_forward() {
            match self.next_event() {
                None => return self.skip_to(end),
                Some(t) if t > self.now() => return self.skip_to(t.min(end)),
                _ => {}
            }
        }
        self.step_cycle();
    }

    /// [`advance_toward`](Self::advance_toward) for callers with no
    /// per-cycle observation (a plain `run(cycles)` loop): identical
    /// skip-to-horizon behavior, but when the machine is busy *right now*
    /// it executes a burst of cycles in one dispatch instead of one. The
    /// burst is *adaptive*, threaded by the caller through its run loop:
    /// it doubles while the machine stays busy across consecutive
    /// dispatches (up to `cap`) and collapses back to 1 whenever the
    /// clock skips. Throughput-bound stretches amortize the horizon scan
    /// over `cap` cycles; latency-bound workloads — short busy flurries
    /// separated by long dead gaps — never over-step the flurry by more
    /// than it was long, keeping the wasted no-op steps proportional to
    /// the useful ones.
    ///
    /// # Why bursts are bit-exact
    ///
    /// [`next_event`](Self::next_event)'s contract makes every skippable
    /// cycle a pure no-op when *stepped*; its corollary is that stepping a
    /// cycle fast-forward could have skipped changes nothing. A burst
    /// therefore executes exactly the state transitions the per-cycle
    /// schedule would — event cycles do their work, dead cycles in between
    /// are no-ops — and only the number of horizon scans changes. A caller
    /// polling state between calls (e.g. a blocking MMIO read) would
    /// observe mid-burst cycles late, and must use `advance_toward`.
    fn advance_toward_adaptive(&mut self, end: Cycle, burst: &mut Cycle, cap: Cycle) {
        if self.fast_forward() {
            match self.next_event() {
                None => {
                    self.skip_to(end);
                    return;
                }
                Some(t) if t > self.now() => {
                    self.skip_to(t.min(end));
                    *burst = 1;
                    return;
                }
                _ => {}
            }
            self.step_many((*burst).min(end - self.now()).max(1));
            *burst = burst.saturating_mul(2).min(cap.max(1));
        } else {
            self.step_cycle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A machine that only has something to do every `period` cycles.
    struct Strober {
        now: Cycle,
        period: Cycle,
        work: u64,
        fastfwd: bool,
    }

    impl PlatformClock for Strober {
        fn now(&self) -> Cycle {
            self.now
        }
        fn next_event(&self) -> Option<Cycle> {
            Some(self.now.next_multiple_of(self.period))
        }
        fn step_cycle(&mut self) {
            if self.now % self.period == 0 {
                self.work += 1;
            }
            self.now += 1;
        }
        fn skip_to(&mut self, t: Cycle) {
            self.now = t;
        }
        fn fast_forward(&self) -> bool {
            self.fastfwd
        }
    }

    fn run(m: &mut Strober, cycles: Cycle) {
        let end = m.now + cycles;
        while m.now < end {
            m.advance_toward(end);
        }
    }

    #[test]
    fn fast_forward_is_bit_exact_and_bounded_by_end() {
        let mut slow = Strober { now: 0, period: 97, work: 0, fastfwd: false };
        let mut fast = Strober { now: 0, period: 97, work: 0, fastfwd: true };
        run(&mut slow, 10_000);
        run(&mut fast, 10_000);
        assert_eq!(slow.now, fast.now);
        assert_eq!(slow.work, fast.work);
        assert_eq!(fast.now, 10_000);
    }

    #[test]
    fn quiescent_machine_skips_to_end() {
        struct Idle(Cycle);
        impl PlatformClock for Idle {
            fn now(&self) -> Cycle {
                self.0
            }
            fn next_event(&self) -> Option<Cycle> {
                None
            }
            fn step_cycle(&mut self) {
                panic!("stepped a quiescent machine");
            }
            fn skip_to(&mut self, t: Cycle) {
                self.0 = t;
            }
            fn fast_forward(&self) -> bool {
                true
            }
        }
        let mut m = Idle(5);
        m.advance_toward(1_000);
        assert_eq!(m.now(), 1_000);
    }
}
