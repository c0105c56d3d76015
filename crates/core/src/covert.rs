//! Flush+reload cache covert channel.
//!
//! The transmitter is the transient load `probe[byte * STRIDE]` inside the
//! Spectre victim; the receiver times a reload of every probe slot with
//! `RDTSC` and treats anything faster than [`CovertConfig::threshold`]
//! cycles as a hit. This module holds the channel parameters and the
//! guest-code emitters shared by the Spectre variants.

use cr_spectre_asm::builder::Asm;
use cr_spectre_sim::isa::{AluOp, BranchCond, Reg, Width};

/// How the receiver resets probe lines between transmissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelStrategy {
    /// `CLFLUSH` each probe line — the paper's channel. Fast, but dead
    /// the moment the §IV "disable clflush for non-privileged processes"
    /// countermeasure is deployed.
    FlushReload,
    /// Evict each probe line by touching a full associativity-worth of
    /// set-congruent addresses — no privileged instruction needed, so it
    /// survives the clflush ban. Slower (8 loads per line instead of one
    /// flush) but architecturally unprivileged.
    EvictReload,
}

/// Covert-channel parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CovertConfig {
    /// Byte stride between probe slots; must exceed the cache line size
    /// so every slot owns a distinct line (the classic PoC uses 512).
    pub stride: i32,
    /// Number of probe slots (256 = one per byte value).
    pub entries: i32,
    /// Reload-time threshold in cycles separating hit from miss.
    pub threshold: i32,
    /// Line-reset strategy.
    pub strategy: ChannelStrategy,
}

impl Default for CovertConfig {
    fn default() -> CovertConfig {
        CovertConfig {
            stride: 512,
            entries: 256,
            threshold: 100,
            strategy: ChannelStrategy::FlushReload,
        }
    }
}

impl CovertConfig {
    /// A clflush-free configuration (survives the §IV countermeasure).
    pub fn evict_reload() -> CovertConfig {
        CovertConfig { strategy: ChannelStrategy::EvictReload, ..CovertConfig::default() }
    }

    /// Probe-array footprint in bytes.
    pub fn probe_bytes(&self) -> u64 {
        self.stride as u64 * self.entries as u64
    }

    /// The L2 set-congruence period assumed by the eviction sets
    /// (sets × line size of the default hierarchy).
    pub const EVICT_PERIOD: i64 = 512 * 64;
    /// Lines touched per eviction (the L2 associativity).
    pub const EVICT_WAYS: i64 = 8;
    /// Size of the eviction buffer, including alignment slack.
    pub const EVICT_BUF_BYTES: u64 =
        (Self::EVICT_WAYS as u64 + 1) * Self::EVICT_PERIOD as u64 + Self::EVICT_PERIOD as u64;
}

/// Emits a loop resetting every probe slot (clobbers `r4`–`r8`).
/// `probe_label` names the probe array; `tag` uniquifies branch labels.
///
/// With [`ChannelStrategy::EvictReload`] the caller must also have
/// emitted an eviction buffer labelled `cv_evict` of
/// [`CovertConfig::EVICT_BUF_BYTES`] bytes (see [`emit_evict_buffer`]).
pub fn emit_flush_probe(asm: &mut Asm, cfg: &CovertConfig, probe_label: &str, tag: &str) {
    match cfg.strategy {
        ChannelStrategy::FlushReload => {
            let loop_label = format!("cv_flush_{tag}");
            asm.la(Reg::R4, probe_label);
            asm.ldi(Reg::R5, 0);
            asm.label(loop_label.clone());
            asm.clflush(Reg::R4, 0);
            asm.alui(AluOp::Add, Reg::R4, Reg::R4, cfg.stride);
            asm.alui(AluOp::Add, Reg::R5, Reg::R5, 1);
            asm.ldi(Reg::R6, cfg.entries);
            asm.br(BranchCond::Ltu, Reg::R5, Reg::R6, loop_label);
            asm.mfence();
        }
        ChannelStrategy::EvictReload => {
            let period = CovertConfig::EVICT_PERIOD as i32;
            let loop_label = format!("cv_evict_loop_{tag}");
            // r4 = eviction base, aligned up to the congruence period.
            asm.la(Reg::R4, "cv_evict");
            asm.alui(AluOp::Add, Reg::R4, Reg::R4, period - 1);
            asm.alui(AluOp::And, Reg::R4, Reg::R4, -period);
            asm.ldi(Reg::R5, 0); // slot index
            asm.label(loop_label.clone());
            // r7 = base + (slot line address mod period): 8 loads through
            // this congruence class displace the slot from L1 and L2.
            asm.la(Reg::R6, probe_label);
            asm.alui(AluOp::Mul, Reg::R7, Reg::R5, cfg.stride);
            asm.alu(AluOp::Add, Reg::R6, Reg::R6, Reg::R7);
            asm.alui(AluOp::And, Reg::R6, Reg::R6, period - 1);
            asm.alu(AluOp::Add, Reg::R7, Reg::R4, Reg::R6);
            for way in 0..CovertConfig::EVICT_WAYS as i32 {
                asm.ld(Width::B, Reg::R8, Reg::R7, way * period);
            }
            asm.alui(AluOp::Add, Reg::R5, Reg::R5, 1);
            asm.ldi(Reg::R6, cfg.entries);
            asm.br(BranchCond::Ltu, Reg::R5, Reg::R6, loop_label);
            asm.mfence();
        }
    }
}

/// Emits code evicting the single cache line containing the address in
/// `addr` (read-only) via the congruence buffer, using `t1`/`t2` as
/// scratch. Requires the `cv_evict` buffer (see [`emit_evict_buffer`]).
pub fn emit_evict_addr(asm: &mut Asm, addr: Reg, t1: Reg, t2: Reg) {
    let period = CovertConfig::EVICT_PERIOD as i32;
    asm.la(t1, "cv_evict");
    asm.alui(AluOp::Add, t1, t1, period - 1);
    asm.alui(AluOp::And, t1, t1, -period);
    asm.alui(AluOp::And, t2, addr, period - 1);
    asm.alu(AluOp::Add, t1, t1, t2);
    for way in 0..CovertConfig::EVICT_WAYS as i32 {
        asm.ld(Width::B, t2, t1, way * period);
    }
}

/// Emits the eviction buffer required by [`ChannelStrategy::EvictReload`]
/// into `.data` (no-op for flush+reload).
pub fn emit_evict_buffer(asm: &mut Asm, cfg: &CovertConfig) {
    if cfg.strategy == ChannelStrategy::EvictReload {
        asm.data_label("cv_evict");
        asm.space(CovertConfig::EVICT_BUF_BYTES);
    }
}

/// Emits the receiver: times a reload of each probe slot and leaves the
/// first below-threshold slot index in `r7` (0 if none responded).
/// Clobbers `r4`, `r5`, `r6`, `r8`, `r9`, `r10`.
///
/// Slots are visited in the classic PoC's permuted order
/// (`mix_i = (i * 167 + 13) mod entries`, a bijection for power-of-two
/// entry counts) so a stride/next-line prefetcher cannot lock onto the
/// probing pattern and fabricate hits.
pub fn emit_probe_decode(asm: &mut Asm, cfg: &CovertConfig, probe_label: &str, tag: &str) {
    assert!(
        (cfg.entries as u64).is_power_of_two(),
        "probe decode requires a power-of-two entry count"
    );
    let loop_label = format!("cv_probe_{tag}");
    let next_label = format!("cv_next_{tag}");
    let done_label = format!("cv_done_{tag}");
    let mask = cfg.entries - 1;
    // r5 = logical index i; r6 = physical slot mix_i.
    asm.ldi(Reg::R5, 0);
    asm.label(loop_label.clone());
    asm.alui(AluOp::Mul, Reg::R6, Reg::R5, 167);
    asm.alui(AluOp::Add, Reg::R6, Reg::R6, 13);
    asm.alui(AluOp::And, Reg::R6, Reg::R6, mask);
    asm.la(Reg::R4, probe_label);
    asm.alui(AluOp::Mul, Reg::R10, Reg::R6, cfg.stride);
    asm.alu(AluOp::Add, Reg::R4, Reg::R4, Reg::R10);
    asm.rdtsc(Reg::R8);
    asm.ld(Width::B, Reg::R10, Reg::R4, 0);
    asm.mfence();
    asm.rdtsc(Reg::R9);
    asm.alu(AluOp::Sub, Reg::R9, Reg::R9, Reg::R8);
    asm.ldi(Reg::R10, cfg.threshold);
    asm.br(BranchCond::Geu, Reg::R9, Reg::R10, next_label.clone());
    asm.mov(Reg::R7, Reg::R6); // hit: the physical slot is the byte
    asm.jmp(done_label.clone());
    asm.label(next_label);
    asm.alui(AluOp::Add, Reg::R5, Reg::R5, 1);
    asm.ldi(Reg::R10, cfg.entries);
    asm.br(BranchCond::Ltu, Reg::R5, Reg::R10, loop_label);
    asm.ldi(Reg::R7, 0); // nothing responded
    asm.label(done_label);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_spectre_sim::config::MachineConfig;
    use cr_spectre_sim::cpu::Machine;
    use cr_spectre_sim::mem::Perms;

    /// Cache-state oracle: which probe slot is resident (inspects the
    /// simulator's cache tags directly instead of timing).
    fn resident_slot(machine: &Machine, probe_addr: u64, cfg: &CovertConfig) -> Option<u8> {
        (0..cfg.entries as u64)
            .find(|&k| machine.caches().data_resident(probe_addr + k * cfg.stride as u64))
            .map(|k| k as u8)
    }

    /// Allocates a probe array on the machine heap.
    fn alloc_probe(machine: &mut Machine, cfg: &CovertConfig) -> u64 {
        machine.alloc(cfg.probe_bytes(), Perms::RW)
    }

    /// Measures the channel's hit/miss latency gap on a fresh machine with
    /// the given configuration: returns `(hit_cycles, miss_cycles)` as the
    /// guest's own `RDTSC` deltas.
    fn measure_latency_gap(config: &MachineConfig) -> (u64, u64) {
        let mut asm = Asm::new();
        asm.label("main");
        asm.la(Reg::R1, "slot");
        // Miss timing: flushed line.
        asm.clflush(Reg::R1, 0);
        asm.mfence();
        asm.rdtsc(Reg::R2);
        asm.ld(Width::B, Reg::R5, Reg::R1, 0);
        asm.mfence();
        asm.rdtsc(Reg::R3);
        asm.alu(AluOp::Sub, Reg::R12, Reg::R3, Reg::R2); // miss delta
        // Hit timing: now cached.
        asm.rdtsc(Reg::R2);
        asm.ld(Width::B, Reg::R5, Reg::R1, 0);
        asm.mfence();
        asm.rdtsc(Reg::R3);
        asm.alu(AluOp::Sub, Reg::R13, Reg::R3, Reg::R2); // hit delta
        asm.halt();
        asm.data_label("slot");
        asm.space(64);
        let image = asm.build("calibrate").expect("assembles");
        let mut machine = Machine::new(config.clone());
        let loaded = machine.load(&image).expect("loads");
        machine.start(loaded.entry);
        let outcome = machine.run();
        assert!(outcome.exit.is_clean(), "calibration run failed: {:?}", outcome.exit);
        (machine.reg(Reg::R13), machine.reg(Reg::R12))
    }

    /// Picks a threshold halfway between the measured hit and miss times.
    fn calibrate_threshold(config: &MachineConfig) -> i32 {
        let (hit, miss) = measure_latency_gap(config);
        ((hit + miss) / 2) as i32
    }

    #[test]
    fn latency_gap_supports_default_threshold() {
        let cfg = MachineConfig::default();
        let (hit, miss) = measure_latency_gap(&cfg);
        let channel = CovertConfig::default();
        assert!(
            hit < channel.threshold as u64,
            "hit {hit} must be under threshold"
        );
        assert!(
            miss > channel.threshold as u64 * 2,
            "miss {miss} must be well over threshold"
        );
    }

    #[test]
    fn calibrated_threshold_separates() {
        let cfg = MachineConfig::default();
        let (hit, miss) = measure_latency_gap(&cfg);
        let thr = calibrate_threshold(&cfg) as u64;
        assert!(hit < thr && thr < miss);
    }

    #[test]
    fn stride_exceeds_line_size() {
        let channel = CovertConfig::default();
        let machine = MachineConfig::default();
        assert!(channel.stride as u64 >= machine.caches.l1d.line_size);
        assert_eq!(channel.probe_bytes(), 512 * 256);
    }

    #[test]
    fn resident_slot_oracle() {
        let mut machine = Machine::new(MachineConfig::default());
        let channel = CovertConfig::default();
        let probe = alloc_probe(&mut machine, &channel);
        assert_eq!(resident_slot(&machine, probe, &channel), None);
        machine.caches_mut().access_data(probe + 42 * 512);
        assert_eq!(resident_slot(&machine, probe, &channel), Some(42));
    }

    #[test]
    fn evict_reload_clears_probe_lines_without_clflush() {
        // Run the eviction-based reset on a machine with clflush DISABLED
        // and verify a previously hot probe slot becomes cold.
        let channel = CovertConfig::evict_reload();
        let mut asm = Asm::new();
        asm.label("main");
        // Warm slot 0x40.
        asm.la(Reg::R4, "probe");
        asm.ldi(Reg::R5, 0x40 * 512);
        asm.alu(AluOp::Add, Reg::R4, Reg::R4, Reg::R5);
        asm.ld(Width::B, Reg::R6, Reg::R4, 0);
        emit_flush_probe(&mut asm, &channel, "probe", "t");
        asm.halt();
        asm.data_label("probe");
        asm.space(channel.probe_bytes());
        emit_evict_buffer(&mut asm, &channel);
        let image = asm.build("t").expect("assembles");
        let mut machine_cfg = MachineConfig::default();
        machine_cfg.protect.clflush_enabled = false; // the §IV ban
        let mut machine = Machine::new(machine_cfg);
        let loaded = machine.load(&image).expect("loads");
        let probe = loaded.addr("probe");
        machine.start(loaded.entry);
        assert!(machine.run().exit.is_clean());
        assert!(
            !machine.caches().data_resident(probe + 0x40 * 512),
            "eviction must displace the slot from both cache levels"
        );
    }

    #[test]
    fn guest_decode_loop_reads_planted_byte() {
        // Plant a hit at slot 0x5e by touching its line, then run the
        // decode loop and check r7.
        let channel = CovertConfig::default();
        let mut asm = Asm::new();
        asm.label("main");
        emit_flush_probe(&mut asm, &channel, "probe", "t");
        // Touch slot 0x5e.
        asm.la(Reg::R4, "probe");
        asm.ldi(Reg::R5, 0x5e * 512);
        asm.alu(AluOp::Add, Reg::R4, Reg::R4, Reg::R5);
        asm.ld(Width::B, Reg::R6, Reg::R4, 0);
        asm.mfence();
        emit_probe_decode(&mut asm, &channel, "probe", "t");
        asm.halt();
        asm.data_label("probe");
        asm.space(channel.probe_bytes());
        let image = asm.build("t").expect("assembles");
        let mut machine = Machine::new(MachineConfig::default());
        let loaded = machine.load(&image).expect("loads");
        machine.start(loaded.entry);
        assert!(machine.run().exit.is_clean());
        assert_eq!(machine.reg(Reg::R7), 0x5e);
    }
}
