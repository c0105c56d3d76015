//! Host-speed calibration.
//!
//! On a shared host, other tenants running on the sibling hyperthread of
//! the core the benchmark runs on slow the same code by up to about 2x, for
//! stretches of a fraction of a second to minutes. The slowdown depends on
//! which execution units the code uses: a dependency chain or a cache-miss
//! loop barely slows, dense floating point slows most, an interpreter loop
//! in between. So the benchmark times a fixed kernel of the same kind as
//! the workload's work next to every operation, on the same thread, and
//! divides the operation's host time by the kernel's slowdown against its
//! [`Kernel::reference_ms`]. Timings then read as if taken on the reference
//! host with an idle sibling; a change to the program moves them, a
//! neighbour's load mostly does not.
//!
//! The kernels are the benchmark's own code, identical on both sides of
//! any comparison, and do not call into the program.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;
use crate::trace;

/// A calibration kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// A bytecode interpreter over a register file and a small memory:
    /// decode, dispatch, integer ALU work and loads, like the simulator's
    /// step loop.
    Interp,
    /// Four-accumulator dot products over L1-resident `f64` rows, like the
    /// dense layers and linear models of the HID.
    Dense,
}

/// Kernel runs per probe; the probe takes their median.
const RUNS: usize = 3;

impl Kernel {
    /// Host ms of one kernel run on an uncontended core of the reference
    /// host (Intel Xeon at 2.1 GHz, sibling hyperthread idle): the low mode
    /// of many probes there. On another host the slowdowns are off by a
    /// constant factor, which cancels out of any comparison made on it.
    pub const fn reference_ms(self) -> f64 {
        match self {
            Kernel::Interp => 0.125,
            Kernel::Dense => 0.065,
        }
    }

    /// Host ms of one kernel run.
    pub fn run_ms(self) -> f64 {
        let t0 = Instant::now();
        match self {
            Kernel::Interp => {
                black_box(interp(black_box(6_000)));
            }
            Kernel::Dense => {
                black_box(dense(black_box(200)));
            }
        }
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// How much slower than the reference host this thread runs the kernel
    /// right now: the median of a few runs over [`Kernel::reference_ms`].
    pub fn slowdown(self) -> f64 {
        let _s = trace::span("bench.calib");
        let runs: Vec<f64> = (0..RUNS).map(|_| self.run_ms()).collect();
        median(&runs) / self.reference_ms()
    }
}

/// Host time of a long piece of work (a set-up) in laps, each divided by
/// the slowdown of its kind of work probed at its two ends. Both kernels
/// are probed at every lap's end; the probes are not timed.
#[derive(Debug)]
pub struct Clock {
    last: Instant,
    /// Slowdowns at the last lap's end, in [`Kernel`] order.
    at_last: [f64; 2],
    raw_s: f64,
    norm_s: f64,
}

impl Clock {
    /// Probes both kernels and starts the first lap.
    pub fn start() -> Clock {
        Clock {
            at_last: [Kernel::Interp.slowdown(), Kernel::Dense.slowdown()],
            last: Instant::now(),
            raw_s: 0.0,
            norm_s: 0.0,
        }
    }

    /// Ends a lap whose work was of `kind` and starts the next.
    pub fn lap(&mut self, kind: Kernel) {
        let secs = self.last.elapsed().as_secs_f64();
        let now = [Kernel::Interp.slowdown(), Kernel::Dense.slowdown()];
        let k = kind as usize;
        self.raw_s += secs;
        self.norm_s += secs * 2.0 / (self.at_last[k] + now[k]);
        self.at_last = now;
        self.last = Instant::now();
    }

    /// Host seconds of the finished laps.
    pub fn raw_s(&self) -> f64 {
        self.raw_s
    }

    /// Host seconds of the finished laps, each divided by its slowdown.
    pub fn norm_s(&self) -> f64 {
        self.norm_s
    }
}

/// One interpreted instruction.
#[derive(Debug, Clone, Copy)]
enum Insn {
    Add(usize, usize, usize),
    Xor(usize, usize, usize),
    Mul(usize, usize, usize),
    Load(usize, usize),
    Store(usize, usize),
    AddImm(usize, u64),
    BranchNonZero(usize, usize),
    Halt,
}

/// Runs a fixed loop of `iterations` trips through a 12-instruction body.
fn interp(iterations: u64) -> u64 {
    use Insn::*;
    const PROGRAM: [Insn; 13] = [
        AddImm(7, 0),
        Add(1, 1, 2),
        Xor(2, 2, 1),
        Mul(3, 1, 2),
        Load(4, 3),
        Add(5, 5, 4),
        Store(5, 1),
        Xor(6, 6, 3),
        Load(4, 6),
        Add(1, 1, 4),
        AddImm(0, u64::MAX),
        BranchNonZero(0, 1),
        Halt,
    ];
    let mut regs = [0u64; 8];
    regs[0] = iterations;
    regs[1] = 0x1234;
    regs[2] = 0x9e37;
    let mut memory = [0u64; 512];
    let (mut pc, mut steps) = (0usize, 0u64);
    loop {
        steps += 1;
        match PROGRAM[pc] {
            Add(d, a, b) => regs[d] = regs[a].wrapping_add(regs[b]),
            Xor(d, a, b) => regs[d] = regs[a] ^ regs[b],
            Mul(d, a, b) => regs[d] = regs[a].wrapping_mul(regs[b] | 1),
            Load(d, a) => regs[d] = memory[(regs[a] & 511) as usize],
            Store(s, a) => memory[(regs[a] & 511) as usize] = regs[s],
            AddImm(d, k) => regs[d] = regs[d].wrapping_add(k),
            BranchNonZero(c, target) => {
                if regs[c] != 0 {
                    pc = target;
                    continue;
                }
            }
            Halt => break,
        }
        pc += 1;
    }
    regs[1] ^ regs[5] ^ steps
}

/// `rounds` passes of dot products of a 1024-element row with a rotated
/// copy of itself.
fn dense(rounds: usize) -> f64 {
    let mut row = [0.0f64; 1024];
    for (i, v) in row.iter_mut().enumerate() {
        *v = i as f64 * 0.5;
    }
    let mask = row.len() - 1;
    let mut total = 0.0;
    for r in 0..rounds {
        let mut acc = [0.0f64; 4];
        for i in (0..row.len()).step_by(4) {
            for (k, a) in acc.iter_mut().enumerate() {
                *a += row[i + k] * row[(i + k + r) & mask];
            }
        }
        total += acc.iter().sum::<f64>();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_compute_fixed_results() {
        assert_eq!(interp(6_000), interp(6_000));
        assert_eq!(dense(3), dense(3));
        for k in [Kernel::Interp, Kernel::Dense] {
            let s = k.slowdown();
            assert!(s.is_finite() && s > 0.0, "{k:?}: {s}");
        }
    }
}
