//! In-memory span recorder for the benchmark's own calls.
//!
//! A span records a name, its start and end on one monotonic clock, the
//! span that caused it and a key (the cell or request index it works
//! for). Spans are kept in memory while a traced phase runs and written
//! out once at the end of the run; nothing is recorded unless
//! [`set_enabled`] switched recording on, so untraced phases pay one
//! relaxed atomic load per call site.
//!
//! Self time — a span's duration minus the part covered by its children
//! on the same thread — is what a layer's `busy_s` reports. Time is wall
//! time around each call; spans on different threads overlap, so busy
//! totals are thread-seconds.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    /// Causing span (possibly on another thread); 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub key: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static RECORDS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Switches recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans opened now are recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Takes every span recorded so far, leaving the store empty.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(&mut *RECORDS.lock().expect("span store poisoned"))
}

/// Live span; records itself when dropped.
#[derive(Debug)]
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    key: u64,
    start_ns: u64,
}

impl Span {
    /// This span's id (0 when recording is off), for parenting work
    /// that runs on other threads.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Opens a span under the innermost live span of this thread.
pub fn span(name: &'static str, key: u64) -> Span {
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    span_under(parent, name, key)
}

/// Opens a span caused by `parent`, which may live on another thread
/// (an executor item under the pass that fanned it out).
pub fn span_under(parent: u64, name: &'static str, key: u64) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span {
            id: 0,
            parent: 0,
            name,
            key,
            start_ns: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Span {
        id,
        parent,
        name,
        key,
        start_ns: now_ns(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.remove(pos);
            }
        });
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            key: self.key,
            thread: THREAD.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut records) = RECORDS.lock() {
            records.push(record);
        }
    }
}

/// Self time of every span, nanoseconds, in record order.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            if spans[p].thread == s.thread {
                covered[p] += s.duration_ns();
            }
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Sum of self time per span name, seconds.
pub fn busy_by_name(spans: &[SpanRecord]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e9;
    }
    out
}

/// Sum of durations per span name, seconds.
pub fn total_by_name(spans: &[SpanRecord]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.duration_ns() as f64 / 1e9;
    }
    out
}

/// Work time and attributed time of a traced phase, thread-seconds.
///
/// Work is the duration of every span with no parent on its own
/// thread (the phase root, and executor items on worker threads), less
/// the self time of `wait` spans (a thread blocked on workers does no
/// work). Attributed is the self time of every span whose name is not
/// a benchmark-glue name (`bench.*`). Their difference is the residue.
pub fn work_and_attributed(spans: &[SpanRecord], wait: &str) -> (f64, f64) {
    let threads: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.thread)).collect();
    let selfs = self_times(spans);
    let (mut work, mut attributed) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if threads.get(&s.parent) != Some(&s.thread) {
            work += s.duration_ns();
        }
        if s.name == wait {
            work = work.saturating_sub(self_ns);
        } else if !s.name.starts_with("bench.") {
            attributed += self_ns;
        }
    }
    (work as f64 / 1e9, attributed as f64 / 1e9)
}

/// The spans as a Chrome/Perfetto `trace_event` JSON document.
pub fn to_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"key\":{}}}}}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.key
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, thread: u64, s: u64, e: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            key: 0,
            thread,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let spans = vec![
            rec(1, 0, "bench.pass", 1, 0, 100),
            rec(2, 1, "bench.wait", 1, 10, 90),
            rec(3, 1, "bench.item", 2, 10, 50),
            rec(4, 3, "core.activation", 2, 10, 40),
            rec(5, 1, "core.canonical", 1, 90, 95),
        ];
        assert_eq!(self_times(&spans), vec![15, 80, 10, 30, 5]);
        let (work, attributed) = work_and_attributed(&spans, "bench.wait");
        // pass 100 + item 40 - wait self 80 = 60 ns of work.
        assert!((work - 60e-9).abs() < 1e-15);
        assert!((attributed - 35e-9).abs() < 1e-15);
    }
}
