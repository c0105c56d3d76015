//! Branch prediction structures: PHT, BTB and return-stack buffer.
//!
//! These are the structures Spectre mistrains. The pattern history table
//! (PHT) of 2-bit saturating counters drives conditional-branch prediction
//! (Spectre v1: repeatedly executing a bounds check with in-bounds indices
//! trains the counter to *strongly taken*, so the out-of-bounds run is
//! predicted down the array-access path). The return-stack buffer (RSB)
//! drives `RET` prediction and is the surface of the Spectre-RSB variant the
//! paper averages into its "Spectre variants".

/// A 2-bit saturating counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Strongly not-taken.
    StrongNot,
    /// Weakly not-taken.
    WeakNot,
    /// Weakly taken.
    WeakTaken,
    /// Strongly taken.
    StrongTaken,
}

impl Counter {
    /// The predicted direction.
    #[inline]
    pub fn taken(self) -> bool {
        matches!(self, Counter::WeakTaken | Counter::StrongTaken)
    }

    /// Updates the counter with the resolved direction.
    #[inline]
    pub fn update(self, taken: bool) -> Counter {
        match (self, taken) {
            (Counter::StrongNot, true) => Counter::WeakNot,
            (Counter::WeakNot, true) => Counter::WeakTaken,
            (Counter::WeakTaken, true) => Counter::StrongTaken,
            (Counter::StrongTaken, true) => Counter::StrongTaken,
            (Counter::StrongNot, false) => Counter::StrongNot,
            (Counter::WeakNot, false) => Counter::StrongNot,
            (Counter::WeakTaken, false) => Counter::WeakNot,
            (Counter::StrongTaken, false) => Counter::WeakTaken,
        }
    }
}

/// Pattern history table of 2-bit counters indexed by branch PC.
#[derive(Debug, Clone)]
pub struct PatternHistoryTable {
    counters: Vec<Counter>,
    mask: u64,
}

impl PatternHistoryTable {
    /// Creates a PHT with `entries` counters, all initialized weakly
    /// not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> PatternHistoryTable {
        assert!(entries.is_power_of_two(), "PHT entries must be a power of two");
        PatternHistoryTable {
            counters: vec![Counter::WeakNot; entries],
            mask: entries as u64 - 1,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        // Instructions are 8 bytes; drop the alignment bits before hashing.
        (((pc >> 3) ^ (pc >> 13)) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    #[inline]
    pub fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)].taken()
    }

    /// The counter the branch at `pc` reads.
    pub(crate) fn counter(&self, pc: u64) -> Counter {
        self.counters[self.index(pc)]
    }

    /// Trains the entry for `pc` with the resolved direction.
    #[inline]
    pub fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.counters[i] = self.counters[i].update(taken);
    }
}

/// Branch target buffer for indirect jumps and calls.
#[derive(Debug, Clone)]
pub struct BranchTargetBuffer {
    entries: Vec<Option<(u64, u64)>>,
    mask: u64,
}

impl BranchTargetBuffer {
    /// Creates a BTB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> BranchTargetBuffer {
        assert!(entries.is_power_of_two(), "BTB entries must be a power of two");
        BranchTargetBuffer { entries: vec![None; entries], mask: entries as u64 - 1 }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        (((pc >> 3) ^ (pc >> 11)) & self.mask) as usize
    }

    /// Predicted target of the indirect branch at `pc`, if a prior
    /// resolution was recorded for this (possibly aliased) slot.
    #[inline]
    pub fn predict(&self, pc: u64) -> Option<u64> {
        match self.entries[self.index(pc)] {
            Some((tag, target)) if tag == pc => Some(target),
            // Aliased entry: real BTBs use partial tags, so an attacker can
            // inject targets from congruent addresses (Spectre v2 surface).
            Some((_, target)) => Some(target),
            None => None,
        }
    }

    /// Records the resolved target of the indirect branch at `pc`.
    #[inline]
    pub fn update(&mut self, pc: u64, target: u64) {
        let i = self.index(pc);
        self.entries[i] = Some((pc, target));
    }
}

/// Fixed-depth return-stack buffer.
///
/// `CALL` pushes the return address; `RET` pops the prediction. Overflows
/// wrap (overwriting the oldest entry) and underflows return `None`, both
/// as on real hardware. A `RET` whose architectural target differs from the
/// RSB prediction (e.g., after a stack overwrite) *mispredicts* and
/// transiently executes at the stale predicted address.
#[derive(Debug, Clone)]
pub struct ReturnStackBuffer {
    ring: Vec<u64>,
    top: usize,
    depth: usize,
}

impl ReturnStackBuffer {
    /// Creates an RSB holding `capacity` return addresses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> ReturnStackBuffer {
        assert!(capacity > 0, "RSB capacity must be nonzero");
        ReturnStackBuffer { ring: vec![0; capacity], top: 0, depth: 0 }
    }

    /// Pushes a return address (on `CALL`).
    #[inline]
    pub fn push(&mut self, addr: u64) {
        self.ring[self.top] = addr;
        // Compare-and-wrap instead of `%`: a ring step is the hottest
        // predictor operation (every CALL/RET) and integer division is an
        // order of magnitude slower than a predictable branch.
        self.top += 1;
        if self.top == self.ring.len() {
            self.top = 0;
        }
        self.depth = (self.depth + 1).min(self.ring.len());
    }

    /// Pops the predicted return address (on `RET`); `None` when empty.
    #[inline]
    pub fn pop(&mut self) -> Option<u64> {
        if self.depth == 0 {
            return None;
        }
        self.top = if self.top == 0 { self.ring.len() - 1 } else { self.top - 1 };
        self.depth -= 1;
        Some(self.ring[self.top])
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.depth
    }

    /// Whether the RSB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.depth == 0
    }
}

/// The machine's full prediction state.
#[derive(Debug, Clone)]
pub struct Predictor {
    /// Conditional-branch direction predictor.
    pub pht: PatternHistoryTable,
    /// Indirect-branch target predictor.
    pub btb: BranchTargetBuffer,
    /// Return-address predictor.
    pub rsb: ReturnStackBuffer,
}

impl Predictor {
    /// Creates a predictor with typical sizes (1024-entry PHT, 256-entry
    /// BTB, 16-deep RSB).
    pub fn new() -> Predictor {
        Predictor {
            pht: PatternHistoryTable::new(1024),
            btb: BranchTargetBuffer::new(256),
            rsb: ReturnStackBuffer::new(16),
        }
    }
}

impl Default for Predictor {
    fn default() -> Predictor {
        Predictor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let mut c = Counter::WeakNot;
        for _ in 0..10 {
            c = c.update(true);
        }
        assert_eq!(c, Counter::StrongTaken);
        c = c.update(false);
        assert_eq!(c, Counter::WeakTaken);
        assert!(c.taken(), "one not-taken does not flip a trained counter");
    }

    #[test]
    fn pht_mistraining() {
        // The Spectre v1 precondition: training taken N times makes the
        // next prediction taken even though the actual outcome will differ.
        let mut pht = PatternHistoryTable::new(64);
        let pc = 0x4000;
        assert!(!pht.predict(pc), "initial state predicts not-taken");
        for _ in 0..5 {
            pht.update(pc, true);
        }
        assert!(pht.predict(pc), "mistrained to taken");
    }

    #[test]
    fn pht_entries_are_independent_enough() {
        let mut pht = PatternHistoryTable::new(1024);
        pht.update(0x1000, true);
        pht.update(0x1000, true);
        assert!(pht.predict(0x1000));
        assert!(!pht.predict(0x1008), "adjacent instruction unaffected");
    }

    #[test]
    fn btb_predicts_last_target() {
        let mut btb = BranchTargetBuffer::new(64);
        assert_eq!(btb.predict(0x2000), None);
        btb.update(0x2000, 0x9000);
        assert_eq!(btb.predict(0x2000), Some(0x9000));
        btb.update(0x2000, 0xa000);
        assert_eq!(btb.predict(0x2000), Some(0xa000));
    }

    #[test]
    fn rsb_lifo_order() {
        let mut rsb = ReturnStackBuffer::new(4);
        rsb.push(1);
        rsb.push(2);
        rsb.push(3);
        assert_eq!(rsb.pop(), Some(3));
        assert_eq!(rsb.pop(), Some(2));
        assert_eq!(rsb.pop(), Some(1));
        assert_eq!(rsb.pop(), None);
    }

    #[test]
    fn rsb_overflow_wraps() {
        let mut rsb = ReturnStackBuffer::new(2);
        rsb.push(1);
        rsb.push(2);
        rsb.push(3); // overwrites 1
        assert_eq!(rsb.len(), 2);
        assert_eq!(rsb.pop(), Some(3));
        assert_eq!(rsb.pop(), Some(2));
        assert_eq!(rsb.pop(), None, "entry 1 was lost to the wrap");
    }

    #[test]
    fn rsb_is_empty() {
        let mut rsb = ReturnStackBuffer::new(2);
        assert!(rsb.is_empty());
        rsb.push(7);
        assert!(!rsb.is_empty());
    }
}
