//! The benchmark's own span recorder.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer's public functions (the layers themselves are not instrumented
//! by this recorder). Every span keeps its name, start, end and the span
//! that caused it; spans stay in memory until [`take`] and are written
//! out by [`write_csv`] when the run ends.
//!
//! A span name starts with the layer it measures (`sim.load`,
//! `hid.retrain.NN`, ...), which is how [`self_ms_by_layer`] attributes
//! self time.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are host nanoseconds since the first span of
/// the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id, never 0.
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Layer-prefixed name.
    pub name: &'static str,
    /// Start, host ns.
    pub start_ns: u64,
    /// End, host ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration in host milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

// `ENABLED` only gates recording and publishes no other data; the span
// list itself is guarded by its mutex.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The innermost open span on this thread (0 when none or when recording
/// is off). Pass it to [`span_under`] to parent work on another thread.
pub fn current() -> u32 {
    CURRENT.with(Cell::get)
}

/// An open span; it is recorded when dropped.
#[derive(Debug)]
pub struct Guard {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    restore: u32,
}

/// Opens a span whose parent is the innermost open span on this thread.
pub fn span(name: &'static str) -> Guard {
    span_under(name, current())
}

/// Opens a span with an explicit parent (used for jobs that run on a
/// worker thread on behalf of a span opened elsewhere).
pub fn span_under(name: &'static str, parent: u32) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
            restore: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let restore = CURRENT.with(|c| c.replace(id));
    Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
        restore,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        CURRENT.with(|c| c.set(self.restore));
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        // A poisoned list only means another thread panicked mid-push;
        // the run is failing anyway, so keep recording.
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Host milliseconds spent in spans whose name equals `name` or starts
/// with `name` followed by a dot.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| {
            s.name == name
                || (s.name.starts_with(name) && s.name.as_bytes().get(name.len()) == Some(&b'.'))
        })
        .fold(0.0, |total, s| total + s.ms())
}

/// Number of spans with exactly this name.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Self time per layer, in host milliseconds: each span's duration minus
/// the part of its interval covered by its children (children on other
/// threads may overlap each other, so the union of their intervals is
/// subtracted, clipped to the parent's interval). The layer is the part
/// of the name before the first dot.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Writes spans as CSV (`id,parent,name,start_ns,end_ns`).
///
/// # Errors
///
/// Returns the I/O error if the file cannot be created or written.
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            s(1, 0, "core.par_map", 0, 10_000_000),
            // Two jobs on different threads overlapping in [2, 4) ms.
            s(2, 1, "hid.retrain", 1_000_000, 4_000_000),
            s(3, 1, "hid.detect", 2_000_000, 6_000_000),
        ];
        let by_layer = self_ms_by_layer(&spans);
        assert!((by_layer["core"] - 5.0).abs() < 1e-9, "{by_layer:?}");
        assert!((by_layer["hid"] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn total_matches_name_and_dotted_children_only() {
        let spans = [
            s(1, 0, "hid.retrain.NN", 0, 2_000_000),
            s(2, 0, "hid.retrainx", 0, 5_000_000),
            s(3, 0, "hid.retrain", 0, 1_000_000),
        ];
        assert!((total_ms(&spans, "hid.retrain") - 3.0).abs() < 1e-9);
        assert_eq!(count(&spans, "hid.retrain.NN"), 1);
    }
}
