//! Interval sampling: the windows a sampler cuts a run into.
//!
//! A sampler reads all 56 counters every `interval` cycles and records the
//! *delta* over each window, as the paper's PAPI-based profiling tool does
//! ([`Machine::run_sampled`](crate::cpu::Machine::run_sampled), which
//! `cr-spectre-hpc`'s `profile` drives). A window closes on the first
//! instruction that reaches or crosses its edge, so its `at_cycle` can
//! overshoot the edge by that instruction's latency. The next edge is the
//! first multiple of `interval` (from the start cycle) past the close.
//! The machine keeps that one rule, in O(1), for the windows it steps to
//! and for those a loop fast-forward computes in closed form.

use crate::pmu::{HpcEvent, PmuSnapshot};

/// One sampling window's counter deltas.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Cycle count at the end of the window.
    pub at_cycle: u64,
    /// Counter deltas over the window.
    pub deltas: PmuSnapshot,
}

impl Sample {
    /// The delta of one event in this window.
    pub fn count(&self, event: HpcEvent) -> u64 {
        self.deltas.count(event)
    }
}

/// The window schedule of a sampled run and the windows closed so far.
#[derive(Debug, Clone)]
pub(crate) struct Windows {
    /// The edge of the open window.
    pub(crate) next: u64,
    pub(crate) interval: u64,
    /// The counters at the last close.
    pub(crate) last: PmuSnapshot,
    samples: Vec<Sample>,
}

impl Windows {
    /// The schedule of a run sampled every `interval` cycles from `cycle`,
    /// where the counters read `counters`.
    pub(crate) fn new(cycle: u64, interval: u64, counters: PmuSnapshot) -> Windows {
        Windows { next: cycle.saturating_add(interval), interval, last: counters, samples: Vec::new() }
    }

    /// The first edge after `cycle`: `next` if it lies beyond, else the
    /// first `next + m × interval` that does, as `while next <= cycle {
    /// next += interval }` would find it, in O(1) and saturating at
    /// `u64::MAX` (an edge the cycle counter never reaches).
    pub(crate) fn edge_after(&self, cycle: u64) -> u64 {
        if cycle < self.next {
            return self.next;
        }
        let steps = (cycle - self.next) / self.interval + 1;
        self.next.saturating_add(steps.saturating_mul(self.interval))
    }

    /// Closes the open window at `at_cycle`, where the counters read
    /// `counters`, and moves the edge past it.
    pub(crate) fn close(&mut self, at_cycle: u64, counters: PmuSnapshot) {
        self.push(at_cycle, counters - self.last);
        self.last = counters;
    }

    /// Closes the open window at `at_cycle`, over which the counters
    /// moved by `deltas`, and moves the edge past it. The caller keeps
    /// [`Windows::last`]: the closed form of a loop jump sets it once,
    /// after the last window it closes.
    pub(crate) fn push(&mut self, at_cycle: u64, deltas: PmuSnapshot) {
        self.samples.push(Sample { at_cycle, deltas });
        self.next = self.edge_after(at_cycle);
    }

    /// The run's windows, once it stopped at `at_cycle` with the counters
    /// at `counters`: the final partial window is kept if it retired an
    /// instruction.
    pub(crate) fn finish(mut self, at_cycle: u64, counters: PmuSnapshot) -> Vec<Sample> {
        let tail = counters - self.last;
        if tail.count(HpcEvent::Instructions) > 0 {
            self.samples.push(Sample { at_cycle, deltas: tail });
        }
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The O(1) edge rule against the loop it replaces, at intervals
    /// from 1 up, after overshoots of every size.
    #[test]
    fn edge_after_matches_the_stepping_loop() {
        for interval in [1u64, 2, 3, 7, 2_000] {
            let windows = Windows::new(5, interval, PmuSnapshot::zero());
            for cycle in 0..300 {
                let mut next = windows.next;
                while next <= cycle {
                    next += interval;
                }
                assert_eq!(windows.edge_after(cycle), next, "interval {interval}, cycle {cycle}");
            }
        }
    }

    #[test]
    fn edge_after_saturates() {
        let windows = Windows::new(3, u64::MAX, PmuSnapshot::zero());
        assert_eq!(windows.next, u64::MAX);
        assert_eq!(windows.edge_after(u64::MAX - 1), u64::MAX);
        let windows = Windows::new(10, u64::MAX / 2, PmuSnapshot::zero());
        assert_eq!(windows.edge_after(u64::MAX - 2), u64::MAX);
    }
}
