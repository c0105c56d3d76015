//! Defense-aware dynamic perturbation generation — the paper's
//! Algorithm 2.
//!
//! The perturbation kernel is a loop of conditional `clflush`/`mfence`
//! bursts whose trip counts are governed by the attack parameters `a` and
//! `b` (mutated per variant). Each flush evicts a line of a scratch buffer
//! whose address is derived from the current parameter value, so both the
//! *number* and the *cache-set distribution* of misses change between
//! variants — contaminating exactly the counters the HID features use
//! (cache misses/accesses, and via the extra loop control also branch
//! counts). An optional delay loop disperses the perturbations in time,
//! the paper's mechanism for making HPC magnitudes go *down* as well as
//! up.

use cr_spectre_asm::builder::Asm;
use cr_spectre_sim::isa::{AluOp, BranchCond, Reg, Width};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Size of the perturbation scratch buffer (power of two).
const BUF_SIZE: i32 = 16 * 1024;

/// The benign activity a perturbation variant mimics between its flush
/// bursts.
///
/// Algorithm 2's delay-loop extension generalized: instead of idling, the
/// dispersal phase can execute copy-, hash- or scan-shaped work so the
/// contaminated windows resemble a *particular* benign application —
/// "executing under the cloak of a benign application". Variants with
/// different camouflage occupy different regions of HPC feature space,
/// which is what lets consecutive variants evade a freshly retrained
/// online HID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Camouflage {
    /// Plain busy-wait (the paper's bare delay loop).
    None,
    /// Byte-copy bursts (editor/memcpy-like).
    Copy,
    /// Multiply/xor hashing bursts (browser/compute-like).
    Hash,
    /// Strided-read bursts (scanning/streaming-like).
    Scan,
}

impl Camouflage {
    /// All camouflage shapes, in mutation-rotation order.
    pub const ALL: [Camouflage; 4] =
        [Camouflage::None, Camouflage::Copy, Camouflage::Hash, Camouflage::Scan];
}

/// Parameters of one perturbation variant (Algorithm 2's `a`, `b`, loop
/// count, plus the delay-loop/camouflage extension discussed in §II-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PerturbParams {
    /// Initial value of parameter `a` (paper default 11).
    pub a: i32,
    /// Initial value of parameter `b` (paper default 6).
    pub b: i32,
    /// Outer loop trip count (paper default 10).
    pub loop_count: i32,
    /// Per-iteration increment applied to `a` (paper: 50).
    pub a_step: i32,
    /// Per-iteration increment applied to `b` (paper: 10).
    pub b_step: i32,
    /// Dispersal iterations per outer iteration (0 = paper's Algorithm 2;
    /// larger values spread the perturbation in time).
    pub delay: i32,
    /// Shape of the dispersal work.
    pub camouflage: Camouflage,
}

impl PerturbParams {
    /// The exact parameters of the paper's Algorithm 2 listing.
    pub fn paper_default() -> PerturbParams {
        PerturbParams {
            a: 11,
            b: 6,
            loop_count: 10,
            a_step: 50,
            b_step: 10,
            delay: 0,
            camouflage: Camouflage::None,
        }
    }

    /// The dispersal-biased variant used once the HID has seen plain
    /// Spectre: a longer loop with a delay that spreads the attack's cache
    /// activity across many sampling windows, pulling per-window HPC
    /// vectors toward the benign distribution (§II-E: "we can use a delay
    /// loop to disperse generated perturbations").
    pub fn evasive_default() -> PerturbParams {
        PerturbParams {
            a: 11,
            b: 6,
            loop_count: 24,
            a_step: 50,
            b_step: 10,
            delay: 2_500,
            camouflage: Camouflage::None,
        }
    }

    /// Rough count of `clflush` executions one call will perform — used
    /// by tests and by the campaign driver to reason about intensity.
    pub fn expected_flushes(&self) -> u64 {
        let mut flushes = 0u64;
        let (mut a, mut b) = (i64::from(self.a), i64::from(self.b));
        for i in 0..i64::from(self.loop_count) {
            if i < a {
                flushes += 1;
                a += i64::from(self.a_step);
            }
            if i < b {
                flushes += 2;
                b += i64::from(self.b_step);
                b -= i64::from(self.b_step);
            }
        }
        flushes
    }
}

impl Default for PerturbParams {
    fn default() -> PerturbParams {
        PerturbParams::paper_default()
    }
}

/// Emits the Algorithm-2 routine as a callable guest function named
/// `perturb` (clobbers `r0..r3`, `r9`, `r10`).
///
/// Also emits the scratch buffer `pt_buf` into `.data`.
pub fn emit_perturb(asm: &mut Asm, params: &PerturbParams) {
    asm.data_label("pt_buf");
    asm.space(BUF_SIZE as u64);

    asm.label("perturb");
    asm.ldi(Reg::R2, params.a); // a
    asm.ldi(Reg::R3, params.b); // b
    asm.ldi(Reg::R1, 0); // i
    asm.label("pt_loop");
    // if (i < a) { touch+flush line derived from a; mfence; a += step }
    asm.br(BranchCond::Ge, Reg::R1, Reg::R2, "pt_skip_a");
    emit_flush_of(asm, Reg::R2);
    asm.mfence();
    asm.alui(AluOp::Add, Reg::R2, Reg::R2, params.a_step);
    asm.label("pt_skip_a");
    // if (i < b) { flush(b); mfence; b += step; flush(b); mfence; b -= step }
    asm.br(BranchCond::Ge, Reg::R1, Reg::R3, "pt_skip_b");
    emit_flush_of(asm, Reg::R3);
    asm.mfence();
    asm.alui(AluOp::Add, Reg::R3, Reg::R3, params.b_step);
    emit_flush_of(asm, Reg::R3);
    asm.mfence();
    asm.alui(AluOp::Sub, Reg::R3, Reg::R3, params.b_step);
    asm.label("pt_skip_b");
    // Dispersal phase: camouflage work (or a bare delay loop).
    if params.delay > 0 {
        emit_camouflage(asm, params);
    }
    asm.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
    asm.ldi(Reg::R9, params.loop_count);
    asm.br(BranchCond::Lt, Reg::R1, Reg::R9, "pt_loop");
    asm.ret();
}

/// Emits the dispersal work of one outer iteration: `params.delay`
/// iterations of the camouflage shape, using `r9`/`r10`/`r0` only.
fn emit_camouflage(asm: &mut Asm, params: &PerturbParams) {
    let top = format!("pt_camo_{}", asm.here());
    asm.ldi(Reg::R10, params.delay);
    asm.label(top.clone());
    match params.camouflage {
        Camouflage::None => {}
        Camouflage::Copy => {
            // Editor-like byte shuffling within the scratch buffer.
            asm.la(Reg::R9, "pt_buf");
            asm.alui(AluOp::And, Reg::R0, Reg::R10, 0xfff);
            asm.alu(AluOp::Add, Reg::R9, Reg::R9, Reg::R0);
            asm.ld(Width::B, Reg::R0, Reg::R9, 0);
            asm.st(Width::B, Reg::R9, Reg::R0, 2048);
        }
        Camouflage::Hash => {
            // Browser-like multiply/xor compute burst.
            asm.alui(AluOp::Mul, Reg::R9, Reg::R10, 0x0100_0193);
            asm.alui(AluOp::Xor, Reg::R9, Reg::R9, 0x5bd1);
            asm.alu(AluOp::Add, Reg::R9, Reg::R9, Reg::R9);
        }
        Camouflage::Scan => {
            // Streaming strided reads over the scratch buffer.
            asm.la(Reg::R9, "pt_buf");
            asm.alui(AluOp::Mul, Reg::R0, Reg::R10, 72);
            asm.alui(AluOp::And, Reg::R0, Reg::R0, 0x3fff);
            asm.alu(AluOp::Add, Reg::R9, Reg::R9, Reg::R0);
            asm.ld(Width::D, Reg::R0, Reg::R9, 0);
        }
    }
    asm.alui(AluOp::Sub, Reg::R10, Reg::R10, 1);
    asm.ldi(Reg::R0, 0);
    asm.br(BranchCond::Ne, Reg::R10, Reg::R0, top);
}

/// Emits "load then flush the buffer line indexed by `param`": the load
/// makes the next flush observable as a miss on re-access, matching the
/// paper's cflush-on-the-arithmetic-operation pattern.
fn emit_flush_of(asm: &mut Asm, param: Reg) {
    asm.la(Reg::R9, "pt_buf");
    asm.alui(AluOp::Mul, Reg::R10, param, 64);
    asm.alui(AluOp::And, Reg::R10, Reg::R10, BUF_SIZE - 1);
    asm.alu(AluOp::Add, Reg::R9, Reg::R9, Reg::R10);
    asm.ld(Width::B, Reg::R0, Reg::R9, 0);
    asm.clflush(Reg::R9, 0);
}

/// Defense-aware variant generator: mutates the attack parameters each
/// time the HID flags the current variant (the Figure-3 adaptation loop).
#[derive(Debug)]
pub struct VariantGenerator {
    rng: StdRng,
    generation: u32,
}

impl VariantGenerator {
    /// Creates a generator with a deterministic seed.
    pub fn new(seed: u64) -> VariantGenerator {
        VariantGenerator { rng: StdRng::seed_from_u64(seed), generation: 0 }
    }

    /// How many variants have been produced so far.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Produces the next perturbation variant. The first variant is the
    /// evasive dispersal default; subsequent variants mutate the loop
    /// count, the operation variables and the dispersal delay so the
    /// generated HPC pattern differs from every previous one. Because the
    /// generator is defense-aware, later generations bias toward *more*
    /// dispersal — each time the HID catches up, the attacker spreads its
    /// activity thinner.
    pub fn next_variant(&mut self) -> PerturbParams {
        self.generation += 1;
        if self.generation == 1 {
            return PerturbParams::evasive_default();
        }
        let escalation = i32::try_from(self.generation).unwrap_or(i32::MAX).min(16);
        // Rotate the camouflage shape so consecutive variants sit in
        // different regions of HPC feature space.
        let camouflage = Camouflage::ALL[self.generation as usize % Camouflage::ALL.len()];
        PerturbParams {
            a: self.rng.random_range(2..48),
            b: self.rng.random_range(1..32),
            loop_count: self.rng.random_range(12..48),
            a_step: self.rng.random_range(10..80),
            b_step: self.rng.random_range(4..24),
            delay: self.rng.random_range(800..2_400) + 600 * escalation,
            camouflage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_spectre_sim::config::MachineConfig;
    use cr_spectre_sim::cpu::Machine;
    use cr_spectre_sim::pmu::HpcEvent;

    fn run_perturb(params: &PerturbParams) -> Machine {
        let mut asm = Asm::new();
        asm.label("main");
        asm.call("perturb");
        asm.halt();
        asm.entry("main");
        emit_perturb(&mut asm, params);
        let image = asm.build("p").expect("assembles");
        let mut m = Machine::new(MachineConfig::default());
        let li = m.load(&image).expect("loads");
        m.start(li.entry);
        let out = m.run();
        assert!(out.exit.is_clean(), "{:?}", out.exit);
        m
    }

    #[test]
    fn paper_default_flush_count_matches_model() {
        let params = PerturbParams::paper_default();
        let mut m = run_perturb(&params);
        assert_eq!(m.pmu().count(HpcEvent::Flushes), params.expected_flushes());
        // Algorithm 2 defaults: `a` grows past `i` immediately, so the `a`
        // branch flushes on all 10 iterations; `b` returns to 6 each time,
        // so its double flush fires for i = 0..5: 10 + 2*6 = 22.
        assert_eq!(params.expected_flushes(), 22);
    }

    #[test]
    fn fences_pair_with_flushes() {
        let params = PerturbParams::paper_default();
        let mut m = run_perturb(&params);
        assert_eq!(
            m.pmu().count(HpcEvent::Fences),
            m.pmu().count(HpcEvent::Flushes),
            "every clflush is followed by mfence, as in Algorithm 2"
        );
    }

    #[test]
    fn variants_have_different_hpc_footprints() {
        let mut generator = VariantGenerator::new(99);
        let v1 = generator.next_variant();
        let v2 = generator.next_variant();
        let v3 = generator.next_variant();
        assert_eq!(v1, PerturbParams::evasive_default());
        assert_ne!(v2, v3);
        let f1 = run_perturb(&v1).pmu().count(HpcEvent::Flushes);
        let f2 = run_perturb(&v2).pmu().count(HpcEvent::Flushes);
        let f3 = run_perturb(&v3).pmu().count(HpcEvent::Flushes);
        assert!(
            f1 != f2 || f2 != f3,
            "variants should perturb differently: {f1} {f2} {f3}"
        );
    }

    #[test]
    fn delay_increases_cycles_not_flushes() {
        let base = PerturbParams::paper_default();
        let delayed = PerturbParams { delay: 500, ..base };
        let mut m1 = run_perturb(&base);
        let mut m2 = run_perturb(&delayed);
        assert_eq!(
            m1.pmu().count(HpcEvent::Flushes),
            m2.pmu().count(HpcEvent::Flushes)
        );
        assert!(
            m2.cycles() > m1.cycles() + 1000,
            "delay disperses work in time: {} vs {}",
            m2.cycles(),
            m1.cycles()
        );
    }

    #[test]
    fn generator_is_seeded() {
        let a: Vec<_> = {
            let mut g = VariantGenerator::new(5);
            (0..5).map(|_| g.next_variant()).collect()
        };
        let b: Vec<_> = {
            let mut g = VariantGenerator::new(5);
            (0..5).map(|_| g.next_variant()).collect()
        };
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }
}
