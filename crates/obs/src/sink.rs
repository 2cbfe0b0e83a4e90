//! Event sinks: where trace records go.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

use crate::event::Event;

/// A destination for trace events.
///
/// Implementations must be `Send + Sync`; the tracer is shared across the
/// virtual-MSP worker threads.
pub trait Sink: Send + Sync {
    /// Whether this sink wants events at all. `false` lets hot paths skip
    /// event construction entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event.
    fn record(&self, event: &Event);

    /// Flush any buffered output.
    fn flush(&self) {}
}

/// Discards everything. Used when tracing is disabled.
#[derive(Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &Event) {}
}

/// Writes one JSON object per line to any `Write` target.
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new(writer),
        }
    }
}

impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// Create (truncate) a JSONL trace file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(std::io::BufWriter::new(file)))
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn record(&self, event: &Event) {
        let line = event.to_json().to_string();
        let mut w = self.writer.lock().unwrap();
        // Trace output is best-effort; a full disk should not kill the run.
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().unwrap().flush();
    }
}

/// Collects events in memory — for tests and for in-process summarization.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// New empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Snapshot of all recorded events.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Category, EventKind};

    fn ev(name: &str) -> Event {
        Event {
            kind: EventKind::Instant,
            name: name.into(),
            cat: Category::Other,
            rank: Some(0),
            host_us: 0.0,
            host_dur_us: 0.0,
            sim_s: 0.0,
            sim_dur_s: 0.0,
            args: vec![],
            labels: vec![],
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn memory_sink_collects() {
        let sink = MemorySink::new();
        sink.record(&ev("a"));
        sink.record(&ev("b"));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events()[1].name, "b");
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let sink = JsonlSink::new(Vec::new());
        sink.record(&ev("a"));
        sink.record(&ev("b"));
        let buf = sink.writer.into_inner().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let (parsed, warn) = crate::event::parse_jsonl_lenient(&text).unwrap();
        assert!(warn.is_none());
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "a");
    }
}
