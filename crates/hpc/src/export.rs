//! Export of traces to CSV, for external plotting of the regenerated
//! figures.

use std::io::{self, Write};

use cr_spectre_sim::pmu::HpcEvent;

use crate::profiler::Trace;

/// Writes a trace as CSV: header `cycle,<event>,...` over all 56
/// events, one row per sampling window.
///
/// The writer can be a `File`, a `Vec<u8>`, or anything else
/// implementing [`Write`] (pass `&mut writer` to keep ownership).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn trace_to_csv_full<W: Write>(trace: &Trace, mut out: W) -> io::Result<()> {
    write!(out, "cycle")?;
    for event in HpcEvent::all() {
        write!(out, ",{event}")?;
    }
    writeln!(out)?;
    for sample in &trace.samples {
        write!(out, "{}", sample.at_cycle)?;
        for event in HpcEvent::all() {
            write!(out, ",{}", sample.count(event))?;
        }
        writeln!(out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_csv_has_one_row_per_window() {
        use cr_spectre_sim::config::MachineConfig;
        use cr_spectre_sim::cpu::Machine;
        use cr_spectre_workloads::host::standalone_image;
        use cr_spectre_workloads::mibench::Mibench;

        let image = standalone_image(Mibench::Crc32);
        let mut machine = Machine::new(MachineConfig::default());
        let loaded = machine.load(&image).unwrap();
        machine.start(loaded.entry);
        let trace = crate::profiler::profile(&mut machine, "crc32", 4_000);
        let mut buf = Vec::new();
        trace_to_csv_full(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), trace.len() + 1);
        assert!(text.starts_with("cycle,TotalCacheMiss,"));
    }
}
