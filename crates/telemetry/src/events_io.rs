//! The `bvsim-events-v1` JSONL reader and writer.
//!
//! One header line, then one line per [`CacheEvent`]:
//!
//! ```text
//! {"schema":"bvsim-events-v1","count":3,"dropped":0,"meta":{"trace":"..."}}
//! {"seq":0,"set":17,"way":3,"kind":"fill","tag":291,"size":4}
//! {"seq":1,"set":17,"kind":"miss"}
//! {"seq":2,"set":17,"way":1,"kind":"eviction","tag":88,"cause":"replacement"}
//! ```
//!
//! Set-wide events (demand misses, failed victim inserts) omit `"way"`.
//! [`write_events`] renders a drained ring and declares `count`, so
//! truncation is detectable. A capture written by another tool may
//! omit `"count"`; [`read_events`] then takes the event-line count as
//! authoritative. All reader errors name the offending 1-based line.

use std::collections::BTreeMap;

use crate::json::{self, ObjWriter, Value};
use bv_events::{CacheEvent, DropCause, EventKind, EvictCause};

/// The schema identifier for event captures.
pub const EVENTS_SCHEMA: &str = "bvsim-events-v1";

/// The header of an event capture.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventsHeader {
    /// Events in the body (from the header's `count` when declared,
    /// otherwise the counted event lines).
    pub count: u64,
    /// Events the capturing ring overwrote before the capture was
    /// written (0 when the header omits it).
    pub dropped: u64,
    /// Free-form run identity (trace name, LLC kind, ...).
    pub meta: BTreeMap<String, String>,
}

fn header_line(count: u64, dropped: u64, meta: &BTreeMap<String, String>) -> String {
    let mut m = ObjWriter::new();
    for (k, v) in meta {
        m.str(k, v);
    }
    let m = m.finish();
    let mut header = ObjWriter::new();
    header
        .str("schema", EVENTS_SCHEMA)
        .u64("count", count)
        .u64("dropped", dropped)
        .raw("meta", &m);
    header.finish()
}

/// Renders one event as its JSONL line (no trailing newline).
#[must_use]
pub fn event_line(ev: &CacheEvent) -> String {
    let mut o = ObjWriter::new();
    o.u64("seq", ev.seq).u64("set", u64::from(ev.set));
    if ev.way != CacheEvent::NO_WAY {
        o.u64("way", u64::from(ev.way));
    }
    o.str("kind", ev.kind.name());
    match ev.kind {
        EventKind::Fill { tag, size }
        | EventKind::PrefetchFill { tag, size }
        | EventKind::VictimHit { tag, size }
        | EventKind::VictimInsert { tag, size }
        | EventKind::VictimInsertFail { tag, size }
        | EventKind::Writeback { tag, size } => {
            o.u64("tag", tag).u64("size", u64::from(size));
        }
        EventKind::DemandHit { tag } => {
            o.u64("tag", tag);
        }
        EventKind::DemandMiss => {}
        EventKind::SilentDrop { tag, cause } => {
            o.u64("tag", tag).str("cause", cause.name());
        }
        EventKind::Eviction { tag, cause } => {
            o.u64("tag", tag).str("cause", cause.name());
        }
        EventKind::Compression { encoder, size } => {
            o.u64("encoder", u64::from(encoder))
                .u64("size", u64::from(size));
        }
    }
    o.finish()
}

/// Renders a drained capture as a complete `bvsim-events-v1` document
/// (trailing newline included). `dropped` is the capturing ring's
/// overwrite count, so a reader knows the capture's left edge is not the
/// start of the run.
#[must_use]
pub fn write_events(
    events: &[CacheEvent],
    dropped: u64,
    meta: &BTreeMap<String, String>,
) -> String {
    let mut out = header_line(events.len() as u64, dropped, meta);
    out.push('\n');
    for ev in events {
        out.push_str(&event_line(ev));
        out.push('\n');
    }
    out
}

fn req_u8(v: &Value, key: &str) -> Result<u8, String> {
    u8::try_from(v.req_u64(key)?).map_err(|_| format!("field '{key}' out of u8 range"))
}

fn parse_event(line: &str) -> Result<CacheEvent, String> {
    let v = json::parse(line)?;
    let seq = v.req_u64("seq")?;
    let set = u32::try_from(v.req_u64("set")?).map_err(|_| "field 'set' out of u32 range")?;
    let way = match v.get("way") {
        Some(w) => u8::try_from(w.as_u64().ok_or("non-integer 'way'")?)
            .map_err(|_| "'way' out of u8 range")?,
        None => CacheEvent::NO_WAY,
    };
    let kind = match v.req_str("kind")? {
        "fill" => EventKind::Fill {
            tag: v.req_u64("tag")?,
            size: req_u8(&v, "size")?,
        },
        "prefetch-fill" => EventKind::PrefetchFill {
            tag: v.req_u64("tag")?,
            size: req_u8(&v, "size")?,
        },
        "hit" => EventKind::DemandHit {
            tag: v.req_u64("tag")?,
        },
        "miss" => EventKind::DemandMiss,
        "victim-hit" => EventKind::VictimHit {
            tag: v.req_u64("tag")?,
            size: req_u8(&v, "size")?,
        },
        "victim-insert" => EventKind::VictimInsert {
            tag: v.req_u64("tag")?,
            size: req_u8(&v, "size")?,
        },
        "victim-insert-fail" => EventKind::VictimInsertFail {
            tag: v.req_u64("tag")?,
            size: req_u8(&v, "size")?,
        },
        "silent-drop" => EventKind::SilentDrop {
            tag: v.req_u64("tag")?,
            cause: DropCause::from_name(v.req_str("cause")?)
                .ok_or_else(|| format!("unknown drop cause '{}'", v.req_str("cause").unwrap()))?,
        },
        "writeback" => EventKind::Writeback {
            tag: v.req_u64("tag")?,
            size: req_u8(&v, "size")?,
        },
        "eviction" => EventKind::Eviction {
            tag: v.req_u64("tag")?,
            cause: EvictCause::from_name(v.req_str("cause")?).ok_or_else(|| {
                format!("unknown eviction cause '{}'", v.req_str("cause").unwrap())
            })?,
        },
        "compression" => EventKind::Compression {
            encoder: req_u8(&v, "encoder")?,
            size: req_u8(&v, "size")?,
        },
        other => return Err(format!("unknown event kind '{other}'")),
    };
    Ok(CacheEvent {
        seq,
        set,
        way,
        kind,
    })
}

/// Parses a `bvsim-events-v1` document.
///
/// # Errors
///
/// Returns `"line N: reason"` for the first structural problem: wrong or
/// missing schema tag, malformed JSON, an unknown event kind or cause, or
/// a body shorter than the header's declared `count`.
pub fn read_events(text: &str) -> Result<(EventsHeader, Vec<CacheEvent>), String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (hn, first) = lines.next().ok_or("empty events file")?;
    let at = |n: usize, e: String| format!("line {}: {e}", n + 1);
    let header = json::parse(first).map_err(|e| at(hn, e))?;
    match header.get("schema").and_then(Value::as_str) {
        Some(s) if s == EVENTS_SCHEMA => {}
        Some(s) => {
            return Err(at(
                hn,
                format!("unsupported schema '{s}' (expected {EVENTS_SCHEMA})"),
            ))
        }
        None => return Err(at(hn, "missing schema tag in header".into())),
    }
    let declared = header.get("count").and_then(Value::as_u64);
    let dropped = header.get("dropped").and_then(Value::as_u64).unwrap_or(0);
    let mut meta = BTreeMap::new();
    if let Some(Value::Obj(m)) = header.get("meta") {
        for (k, v) in m {
            let v = v
                .as_str()
                .ok_or_else(|| at(hn, "non-string meta value".into()))?;
            meta.insert(k.clone(), v.to_string());
        }
    }

    let mut events = Vec::new();
    for (n, line) in lines {
        events.push(parse_event(line).map_err(|e| at(n, e))?);
    }
    if let Some(count) = declared {
        if count != events.len() as u64 {
            return Err(format!(
                "truncated: header declares {count} event(s), found {}",
                events.len()
            ));
        }
    }
    Ok((
        EventsHeader {
            count: events.len() as u64,
            dropped,
            meta,
        },
        events,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_of_each() -> Vec<CacheEvent> {
        let kinds = [
            EventKind::Fill { tag: 291, size: 4 },
            EventKind::PrefetchFill { tag: 292, size: 16 },
            EventKind::DemandHit { tag: 291 },
            EventKind::DemandMiss,
            EventKind::VictimHit { tag: 17, size: 8 },
            EventKind::VictimInsert { tag: 17, size: 8 },
            EventKind::VictimInsertFail { tag: 18, size: 12 },
            EventKind::SilentDrop {
                tag: 17,
                cause: DropCause::PairOverflow,
            },
            EventKind::Writeback { tag: 291, size: 6 },
            EventKind::Eviction {
                tag: 88,
                cause: EvictCause::SizePressure,
            },
            EventKind::Compression {
                encoder: 3,
                size: 4,
            },
        ];
        kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let mut ev = if matches!(
                    kind,
                    EventKind::DemandMiss | EventKind::VictimInsertFail { .. }
                ) {
                    CacheEvent::set_wide(17, kind)
                } else {
                    CacheEvent::new(17, i % 16, kind)
                };
                ev.seq = i as u64;
                ev
            })
            .collect()
    }

    #[test]
    fn every_kind_round_trips() {
        let events = one_of_each();
        let mut meta = BTreeMap::new();
        meta.insert("trace".to_string(), "specint.mcf.07".to_string());
        let text = write_events(&events, 5, &meta);
        let (header, parsed) = read_events(&text).expect("parse");
        assert_eq!(parsed, events);
        assert_eq!(header.count, events.len() as u64);
        assert_eq!(header.dropped, 5);
        assert_eq!(
            header.meta.get("trace").map(String::as_str),
            Some("specint.mcf.07")
        );
    }

    #[test]
    fn set_wide_events_omit_way() {
        let events = one_of_each();
        let text = write_events(&events, 0, &BTreeMap::new());
        let miss_line = text
            .lines()
            .find(|l| l.contains("\"miss\""))
            .expect("miss line");
        assert!(!miss_line.contains("\"way\""), "{miss_line}");
    }

    #[test]
    fn reader_errors_name_the_line() {
        // Wrong schema, on the header line.
        let wrong = write_events(&[], 0, &BTreeMap::new()).replace(EVENTS_SCHEMA, "bvsim-bench-v2");
        let err = read_events(&wrong).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(err.contains("unsupported schema"), "{err}");

        // Unknown kind, on its own line.
        let events = one_of_each();
        let bad =
            write_events(&events, 0, &BTreeMap::new()).replace("\"victim-hit\"", "\"victim-hut\"");
        let err = read_events(&bad).unwrap_err();
        assert!(err.contains("line 6:"), "{err}");
        assert!(err.contains("unknown event kind"), "{err}");

        // Truncation against the declared count.
        let full = write_events(&events, 0, &BTreeMap::new());
        let cut: Vec<&str> = full.lines().take(4).collect();
        let err = read_events(&cut.join("\n")).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn a_header_without_count_takes_the_line_count() {
        let events = one_of_each();
        let mut text =
            format!("{{\"schema\":\"{EVENTS_SCHEMA}\",\"meta\":{{\"llc\":\"base-victim\"}}}}\n");
        for ev in &events {
            text.push_str(&event_line(ev));
            text.push('\n');
        }
        let (header, parsed) = read_events(&text).expect("parse");
        assert_eq!(header.count, 11);
        assert_eq!(header.dropped, 0);
        assert_eq!(
            header.meta.get("llc").map(String::as_str),
            Some("base-victim")
        );
        assert_eq!(parsed, events);
    }
}
