//! A slab-backed intrusive LRU map for variable-sized entries.
//!
//! Every tier organization in this crate makes its decisions through one
//! of these: a `HashMap` gives O(1) key lookup, and a doubly-linked list
//! threaded through a slab of nodes gives O(1) touch / insert / evict
//! with no allocation churn on the hot path. Decisions only ever read
//! the *list* order (never `HashMap` iteration order), so behavior is
//! deterministic and two maps fed the same operations stay identical —
//! the property the lockstep auditor checks.
//!
//! The map hashes keys with [`MixHasher`](bv_testkit::MixHasher), not
//! SipHash: kv keys come only from request streams, the fuzzer and
//! tests, never from a network peer, so there are no crafted collisions
//! to resist, and since no decision reads the map's iteration order the
//! hasher cannot change a result.
//!
//! The map maintains both byte sums an organization might budget
//! against: logical (uncompressed) bytes and physical (compressed)
//! bytes.

use crate::value::ValueMeta;
use bv_testkit::MixBuildHasher;
use std::collections::hash_map::{Entry, HashMap};

const NIL: usize = usize::MAX;

#[derive(Clone, Debug)]
struct Node {
    key: u64,
    meta: ValueMeta,
    prev: usize,
    next: usize,
}

/// An LRU-ordered map from key to [`ValueMeta`].
///
/// # Examples
///
/// ```
/// use bv_kvcache::{LruMap, ValueMeta};
///
/// let mut lru = LruMap::new();
/// lru.insert_front(1, ValueMeta::new(128, 64));
/// lru.insert_front(2, ValueMeta::new(256, 64));
/// lru.touch(1); // 1 is now most recent
/// assert_eq!(lru.pop_lru().map(|(k, _)| k), Some(2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LruMap {
    map: HashMap<u64, usize, MixBuildHasher>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    sum_bytes: u64,
    sum_compressed: u64,
}

impl LruMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> LruMap {
        LruMap {
            map: HashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            sum_bytes: 0,
            sum_compressed: 0,
        }
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entry is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sum of logical (uncompressed) bytes over resident entries.
    #[must_use]
    pub fn sum_bytes(&self) -> u64 {
        self.sum_bytes
    }

    /// Sum of physical (compressed) bytes over resident entries.
    #[must_use]
    pub fn sum_compressed(&self) -> u64 {
        self.sum_compressed
    }

    /// The resident entry for `key`, if any, without touching recency.
    #[must_use]
    pub fn peek(&self, key: u64) -> Option<ValueMeta> {
        self.map.get(&key).map(|&i| self.nodes[i].meta)
    }

    /// Moves `key` to the most-recent position. Returns its metadata,
    /// or `None` when the key is not resident.
    pub fn touch(&mut self, key: u64) -> Option<ValueMeta> {
        let &i = self.map.get(&key)?;
        self.unlink(i);
        self.link_front(i);
        Some(self.nodes[i].meta)
    }

    /// Inserts a new entry at the most-recent position.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already resident — organizations must decide
    /// update-vs-insert explicitly.
    pub fn insert_front(&mut self, key: u64, meta: ValueMeta) {
        let Entry::Vacant(slot) = self.map.entry(key) else {
            panic!("key {key} already resident; remove it first");
        };
        let node = Node {
            key,
            meta,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        slot.insert(i);
        self.link_front(i);
        self.sum_bytes += u64::from(meta.bytes);
        self.sum_compressed += u64::from(meta.compressed);
    }

    /// Removes `key`, returning its metadata if it was resident.
    pub fn remove(&mut self, key: u64) -> Option<ValueMeta> {
        let i = self.map.remove(&key)?;
        self.unlink(i);
        self.free.push(i);
        let meta = self.nodes[i].meta;
        self.sum_bytes -= u64::from(meta.bytes);
        self.sum_compressed -= u64::from(meta.compressed);
        Some(meta)
    }

    /// Removes and returns the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(u64, ValueMeta)> {
        if self.tail == NIL {
            return None;
        }
        let key = self.nodes[self.tail].key;
        let meta = self.remove(key).expect("tail key resident");
        Some((key, meta))
    }

    /// Keys from most- to least-recently used (the full decision state;
    /// what the lockstep auditor compares).
    #[must_use]
    pub fn keys_mru(&self) -> Vec<u64> {
        let mut keys = Vec::with_capacity(self.len());
        let mut i = self.head;
        while i != NIL {
            keys.push(self.nodes[i].key);
            i = self.nodes[i].next;
        }
        keys
    }

    fn link_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[i].prev = NIL;
        self.nodes[i].next = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(bytes: u32) -> ValueMeta {
        ValueMeta::new(bytes, bytes / 2)
    }

    #[test]
    fn eviction_order_is_lru() {
        let mut lru = LruMap::new();
        for k in 0..4 {
            lru.insert_front(k, meta(64));
        }
        lru.touch(0);
        assert_eq!(lru.pop_lru().map(|(k, _)| k), Some(1));
        assert_eq!(lru.pop_lru().map(|(k, _)| k), Some(2));
        assert_eq!(lru.pop_lru().map(|(k, _)| k), Some(3));
        assert_eq!(lru.pop_lru().map(|(k, _)| k), Some(0));
        assert!(lru.pop_lru().is_none());
    }

    #[test]
    fn sums_track_inserts_and_removes() {
        let mut lru = LruMap::new();
        lru.insert_front(1, ValueMeta::new(128, 32));
        lru.insert_front(2, ValueMeta::new(64, 64));
        assert_eq!((lru.sum_bytes(), lru.sum_compressed()), (192, 96));
        lru.remove(1);
        assert_eq!((lru.sum_bytes(), lru.sum_compressed()), (64, 64));
        lru.pop_lru();
        assert_eq!((lru.sum_bytes(), lru.sum_compressed()), (0, 0));
        assert!(lru.is_empty());
    }

    #[test]
    fn keys_mru_reports_recency_order() {
        let mut lru = LruMap::new();
        for k in [10, 20, 30] {
            lru.insert_front(k, meta(64));
        }
        lru.touch(20);
        assert_eq!(lru.keys_mru(), vec![20, 30, 10]);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut lru = LruMap::new();
        for k in 0..100 {
            lru.insert_front(k, meta(64));
            if k % 2 == 0 {
                lru.pop_lru();
            }
        }
        assert!(lru.nodes.len() <= 52, "slab grew to {}", lru.nodes.len());
    }

    /// Keys the mix hasher must keep apart: ones equal in their low 32
    /// bits, and the extremes of the key space.
    #[test]
    fn keys_differing_only_in_high_bits_keep_order_and_sums() {
        let keys = [0, 1 << 32, 2 << 32, (1 << 63) | 7, 7, u64::MAX];
        let mut lru = LruMap::new();
        for (i, &k) in keys.iter().enumerate() {
            lru.insert_front(k, ValueMeta::new(64 << i, 32 << i));
        }
        assert_eq!(lru.len(), keys.len());
        assert_eq!((lru.sum_bytes(), lru.sum_compressed()), (4032, 2016));
        assert_eq!(lru.touch(1 << 32).map(|m| m.bytes), Some(128));
        assert_eq!(lru.touch(0).map(|m| m.bytes), Some(64));
        assert_eq!(
            lru.keys_mru(),
            vec![0, 1 << 32, u64::MAX, 7, (1 << 63) | 7, 2 << 32]
        );
        assert_eq!(lru.remove(7), Some(ValueMeta::new(1024, 512)));
        assert_eq!(lru.remove(7), None);
        assert_eq!(lru.peek((1 << 63) | 7), Some(ValueMeta::new(512, 256)));
        assert_eq!((lru.sum_bytes(), lru.sum_compressed()), (3008, 1504));
        let popped: Vec<u64> = std::iter::from_fn(|| lru.pop_lru().map(|(k, _)| k)).collect();
        assert_eq!(popped, vec![2 << 32, (1 << 63) | 7, u64::MAX, 1 << 32, 0]);
        assert_eq!((lru.sum_bytes(), lru.sum_compressed()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut lru = LruMap::new();
        lru.insert_front(1, meta(64));
        lru.insert_front(1, meta(64));
    }
}
