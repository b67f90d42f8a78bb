//! Wall-clock spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only on the benchmark's own thread and only while
//! recording is on (the traced run). Each keeps its name, layer (the
//! crate it calls into), start, end and parent; they stay in memory and
//! are written once, at exit, through the `obs::trace` Chrome exporter.

use polite_wifi_obs::ring::RingLog;
use polite_wifi_obs::span::{SpanLog, SpanRecord};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off for this thread.
pub fn set_recording(on: bool) {
    RECORDER.with(|r| r.borrow_mut().on = on);
}

/// Ends its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span named `name` around a call into `layer`; it closes when
/// the returned guard drops. Costs one branch while recording is off.
pub fn span(name: &'static str, layer: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let id = r.spans.len();
        r.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        r.open.push(id);
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            RECORDER.with(|r| {
                let mut r = r.borrow_mut();
                r.spans[id].end_ns = r.epoch.elapsed().as_nanos() as u64;
                r.open.pop();
            });
        }
    }
}

/// Every span recorded so far on this thread.
pub fn spans() -> Vec<Span> {
    RECORDER.with(|r| r.borrow().spans.clone())
}

/// Self time per layer, in milliseconds: each span's duration minus the
/// part of it its child spans cover, summed by layer over the spans that
/// descend from a top-level span `in_root` accepts (by name).
pub fn self_ms_by_layer(
    spans: &[Span],
    in_root: impl Fn(&str) -> bool,
) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut root = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents open before their children, so `root[p]` is known.
        root[i] = s.parent.map_or(i, |p| root[p]);
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if in_root(spans[root[i]].name) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
    }
    out
}

/// Renders the spans as a Chrome trace (`chrome://tracing`, Perfetto):
/// one row per nesting depth, wall-clock microseconds.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut depth = vec![0u64; spans.len()];
    let mut log = SpanLog::new(spans.len());
    for (i, s) in spans.iter().enumerate() {
        depth[i] = s.parent.map_or(0, |p| depth[p] + 1);
        log.push(SpanRecord {
            name: format!("{}:{}", s.layer, s.name),
            track: depth[i],
            group: 0,
            start_us: s.start_ns / 1_000,
            dur_us: (s.end_ns - s.start_ns) / 1_000,
        });
    }
    polite_wifi_obs::trace::chrome_trace_json(&log, &RingLog::new(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "pass",
                layer: "bench",
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
            },
            Span {
                name: "run",
                layer: "core",
                start_ns: 1_000_000,
                end_ns: 7_000_000,
                parent: Some(0),
            },
        ];
        let by_layer = self_ms_by_layer(&spans, |root| root == "pass");
        assert_eq!(by_layer["bench"], 4.0);
        assert_eq!(by_layer["core"], 6.0);
        assert!(self_ms_by_layer(&spans, |root| root == "probes").is_empty());
        assert!(chrome_trace(&spans).contains("core:run"));
    }
}
