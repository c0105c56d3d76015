//! Faults and run outcomes.

use std::fmt;

use crate::mem::MemFault;

/// A fatal architectural fault that terminates a guest run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// A memory-protection violation (includes DEP fetch faults).
    Mem(MemFault),
    /// Bytes at `pc` did not decode to an instruction.
    Decode {
        /// Program counter of the undecodable bytes.
        pc: u64,
    },
    /// A stack-canary check failed (stack smashing detected).
    CanarySmashed,
    /// The shadow stack disagreed with an architectural return address.
    ShadowStack {
        /// What the shadow stack recorded.
        expected: u64,
        /// Where the architectural `RET` tried to go.
        got: u64,
    },
    /// `CLFLUSH` executed while disabled for unprivileged code (§IV).
    ClflushDisabled,
    /// Unknown system-call number.
    BadSyscall {
        /// The offending syscall number.
        number: u64,
    },
    /// `exec` named a binary that is not registered with the machine.
    UnknownBinary {
        /// The requested name.
        name: String,
    },
    /// The configured instruction budget was exhausted.
    MaxInstructions,
    /// The argument passed to `start_with_arg` does not fit the argument
    /// area (with its NUL terminator); the guest never ran.
    ArgTooLarge {
        /// Length of the rejected argument in bytes.
        len: u64,
    },
    /// Guest called the abort syscall.
    Abort,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Mem(m) => write!(f, "{m}"),
            Fault::Decode { pc } => write!(f, "undecodable instruction at {pc:#x}"),
            Fault::CanarySmashed => write!(f, "stack smashing detected"),
            Fault::ShadowStack { expected, got } => write!(
                f,
                "shadow stack violation: return to {got:#x}, expected {expected:#x}"
            ),
            Fault::ClflushDisabled => write!(f, "clflush disabled for unprivileged code"),
            Fault::BadSyscall { number } => write!(f, "unknown syscall {number}"),
            Fault::UnknownBinary { name } => write!(f, "exec of unknown binary {name:?}"),
            Fault::MaxInstructions => write!(f, "instruction budget exhausted"),
            Fault::ArgTooLarge { len } => {
                write!(f, "argument of {len} bytes exceeds the argument area")
            }
            Fault::Abort => write!(f, "guest aborted"),
        }
    }
}

impl std::error::Error for Fault {}

impl From<MemFault> for Fault {
    fn from(m: MemFault) -> Fault {
        Fault::Mem(m)
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitReason {
    /// The guest executed `HALT`.
    Halted,
    /// The guest called the exit syscall with this code.
    Exited(u64),
    /// A fatal fault (the "program crashed").
    Fault(Fault),
}

impl ExitReason {
    /// True for a clean halt or `exit(0)`.
    pub fn is_clean(&self) -> bool {
        matches!(self, ExitReason::Halted | ExitReason::Exited(0))
    }
}

/// Summary of a completed guest run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Why the run stopped.
    pub exit: ExitReason,
    /// Architecturally retired instructions.
    pub instructions: u64,
    /// Elapsed cycles.
    pub cycles: u64,
}

impl RunOutcome {
    /// Instructions per cycle for the whole run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::AccessKind;

    #[test]
    fn display_variants() {
        let faults = [
            Fault::Mem(MemFault { addr: 0x10, kind: AccessKind::Write }),
            Fault::Decode { pc: 0x20 },
            Fault::CanarySmashed,
            Fault::ShadowStack { expected: 1, got: 2 },
            Fault::ClflushDisabled,
            Fault::BadSyscall { number: 99 },
            Fault::UnknownBinary { name: "x".into() },
            Fault::MaxInstructions,
            Fault::ArgTooLarge { len: 1 << 14 },
            Fault::Abort,
        ];
        for f in faults {
            assert!(!f.to_string().is_empty());
        }
    }

    #[test]
    fn clean_exits() {
        assert!(ExitReason::Halted.is_clean());
        assert!(ExitReason::Exited(0).is_clean());
        assert!(!ExitReason::Exited(1).is_clean());
        assert!(!ExitReason::Fault(Fault::CanarySmashed).is_clean());
    }

    #[test]
    fn outcome_ipc() {
        let o = RunOutcome { exit: ExitReason::Halted, instructions: 50, cycles: 100 };
        assert!((o.ipc() - 0.5).abs() < 1e-12);
        let z = RunOutcome { exit: ExitReason::Halted, instructions: 0, cycles: 0 };
        assert_eq!(z.ipc(), 0.0);
    }
}
