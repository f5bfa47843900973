//! Helpers shared by the integration tests that pin event streams.

use base_victim::events::{CacheEvent, EventKind};
use base_victim::runner::fnv1a;

/// Folds each event's (kind name, set, way, tag, size) into one FNV-1a
/// digest. Drops and evictions carry their cause in the size slot; a
/// compression outcome also folds the encoder class it selected.
pub fn event_digest(events: &[CacheEvent]) -> u64 {
    let mut bytes = Vec::new();
    for ev in events {
        let size = match ev.kind {
            EventKind::Fill { size, .. }
            | EventKind::PrefetchFill { size, .. }
            | EventKind::VictimHit { size, .. }
            | EventKind::VictimInsert { size, .. }
            | EventKind::VictimInsertFail { size, .. }
            | EventKind::Writeback { size, .. }
            | EventKind::Compression { size, .. } => size,
            EventKind::SilentDrop { cause, .. } => cause as u8,
            EventKind::Eviction { cause, .. } => cause as u8,
            EventKind::DemandHit { .. } | EventKind::DemandMiss => 0,
        };
        bytes.extend_from_slice(ev.kind.name().as_bytes());
        bytes.extend_from_slice(&ev.set.to_le_bytes());
        bytes.push(ev.way);
        bytes.extend_from_slice(&ev.kind.tag().unwrap_or(u64::MAX).to_le_bytes());
        bytes.push(size);
        if let EventKind::Compression { encoder, .. } = ev.kind {
            bytes.push(encoder);
        }
    }
    fnv1a(&bytes)
}
