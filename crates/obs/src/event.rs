//! Structured event log: what *happened*, as replayable JSON lines.
//!
//! Events carry a kind, a global sequence number and arbitrary key/value
//! fields. The fault injector uses them to make chaos runs replayable from
//! logs alone (kind, site and draw index of every injected fault); the
//! query engine logs its QES choice with the model evidence.

use crate::json::JsonValue;
use orv_types::{Error, Result};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One logged event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Global emission order.
    pub seq: u64,
    /// Event kind, e.g. `fault_injected`, `qes_choice`.
    pub kind: String,
    /// Structured payload.
    pub fields: BTreeMap<String, JsonValue>,
}

impl Event {
    /// Serialize as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        crate::json::obj([
            ("seq", self.seq.into()),
            ("kind", self.kind.as_str().into()),
            ("fields", JsonValue::Object(self.fields.clone())),
        ])
    }

    /// Parse back from [`Event::to_json_value`] output.
    pub fn from_json_value(v: &JsonValue) -> Result<Self> {
        Ok(Event {
            seq: v.req_u64("seq")?,
            kind: v.req_str("kind")?.to_string(),
            fields: v
                .req("fields")?
                .as_object()
                .ok_or_else(|| Error::Config("`fields` is not an object".into()))?
                .clone(),
        })
    }
}

/// A shared event sink; clone it into every service that should log.
/// An event's `seq` is its index in the log, assigned under the log's
/// lock, so the log holds events in `seq` order with no gaps.
#[derive(Clone, Default)]
pub struct EventLog {
    inner: Option<Arc<Mutex<Vec<Event>>>>,
}

impl EventLog {
    /// An enabled log.
    pub fn enabled() -> Self {
        EventLog {
            inner: Some(Arc::default()),
        }
    }

    /// A disabled log: `emit` is a single branch, payloads never built.
    pub fn disabled() -> Self {
        EventLog { inner: None }
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit an event; the payload closure only runs when enabled.
    pub fn emit(&self, kind: &str, fields: impl FnOnce() -> Vec<(&'static str, JsonValue)>) {
        let Some(inner) = &self.inner else { return };
        let mut event = Event {
            seq: 0,
            kind: kind.to_string(),
            fields: fields()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        };
        let mut events = inner.lock();
        event.seq = events.len() as u64;
        events.push(event);
    }

    /// All events so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.lock().clone())
    }

    /// Events of one kind, in emission order.
    pub fn events_of_kind(&self, kind: &str) -> Vec<Event> {
        self.events()
            .into_iter()
            .filter(|e| e.kind == kind)
            .collect()
    }

    /// Serialize every event as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        self.events()
            .iter()
            .map(|e| e.to_json_value().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Parse events back from [`EventLog::to_json_lines`] output.
    pub fn from_json_lines(text: &str) -> Result<Vec<Event>> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| Event::from_json_value(&JsonValue::parse(l)?))
            .collect()
    }
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("EventLog(disabled)"),
            Some(i) => write!(f, "EventLog({} events)", i.lock().len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_skips_payload() {
        let log = EventLog::disabled();
        log.emit("x", || panic!("payload must not be built"));
        assert!(log.events().is_empty());
    }

    #[test]
    fn events_round_trip_json_lines() {
        let log = EventLog::enabled();
        log.emit("fault_injected", || {
            vec![("kind", "read".into()), ("draw", 3u64.into())]
        });
        log.emit("qes_choice", || vec![("algorithm", "indexed_join".into())]);
        let text = log.to_json_lines();
        let parsed = EventLog::from_json_lines(&text).unwrap();
        assert_eq!(parsed, log.events());
        assert_eq!(parsed[0].seq, 0);
        assert_eq!(parsed[1].kind, "qes_choice");
        assert!(EventLog::from_json_lines("{not json").is_err());
    }

    #[test]
    fn filter_by_kind() {
        let log = EventLog::enabled();
        log.emit("a", Vec::new);
        log.emit("b", Vec::new);
        log.emit("a", Vec::new);
        assert_eq!(log.events_of_kind("a").len(), 2);
        assert_eq!(log.events_of_kind("c").len(), 0);
    }

    #[test]
    fn concurrent_emitters_leave_seqs_in_order_with_no_gaps() {
        let log = EventLog::enabled();
        let (threads, per_thread) = (4usize, 2_000usize);
        std::thread::scope(|scope| {
            let emitters: Vec<_> = (0..threads)
                .map(|t| {
                    let log = log.clone();
                    scope.spawn(move || {
                        for i in 0..per_thread {
                            log.emit("e", || vec![("t", t.into()), ("i", i.into())]);
                        }
                    })
                })
                .collect();
            // Every snapshot taken mid-emission is a prefix: seqs
            // 0..len in order.
            while !emitters.iter().all(|e| e.is_finished()) {
                let seqs: Vec<u64> = log.events().iter().map(|e| e.seq).collect();
                assert!(seqs.iter().copied().eq(0..seqs.len() as u64));
            }
        });
        let seqs: Vec<u64> = log.events().iter().map(|e| e.seq).collect();
        assert!(seqs.into_iter().eq(0..(threads * per_thread) as u64));
    }
}
