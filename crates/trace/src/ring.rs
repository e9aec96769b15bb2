//! Bounded ring-buffer journal of closed spans.
//!
//! Writers claim a slot with a single lock-free `fetch_add` on the cursor,
//! then publish the record under that slot's own mutex. Readers snapshot by
//! locking each slot in turn, so a record is always observed whole (no
//! tearing) while writers on *other* slots proceed untouched; two writers
//! only contend when the ring has wrapped far enough that they land on the
//! same slot. Capacity is fixed; once full, new records overwrite the
//! oldest — matching what an always-on production journal should do.

use crate::SpanRecord;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct Slot {
    /// `(sequence number, record)`; the sequence lets a snapshot restore
    /// global FIFO order and detect which slot holds the older record.
    cell: Mutex<Option<(u64, SpanRecord)>>,
}

/// A fixed-capacity, multi-writer span journal.
pub struct Journal {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned slot only means some *other* thread panicked while
    // holding it (e.g. fault injection); the stored record is still a
    // whole value, so keep going.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Journal {
    /// Create a journal holding at most `capacity` records.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| Slot {
                cell: Mutex::new(None),
            })
            .collect();
        Journal {
            slots,
            cursor: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots currently holding a record (journal occupancy).
    #[must_use]
    pub fn live(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| lock(&s.cell).is_some())
            .count()
    }

    /// Total records ever pushed (monotone; exceeds `capacity` once the
    /// ring has wrapped and begun overwriting).
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Append a record, overwriting the oldest if the ring is full.
    pub fn push(&self, record: SpanRecord) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let idx = usize::try_from(seq % self.slots.len() as u64).expect("index fits");
        *lock(&self.slots[idx].cell) = Some((seq, record));
    }

    /// Copy out every live record, oldest first.
    ///
    /// Each slot is read under its mutex, so every returned record is
    /// internally consistent even while writers are racing; the snapshot
    /// as a whole is a near-point-in-time view, not an atomic one.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.snapshot_where(|_| true)
    }

    /// [`Journal::snapshot`] of only the records `keep` accepts. `keep`
    /// sees each record under its slot's mutex, before anything is
    /// copied, so a narrow filter clones only what it keeps.
    #[must_use]
    pub fn snapshot_where(&self, keep: impl Fn(&SpanRecord) -> bool) -> Vec<SpanRecord> {
        let mut live: Vec<(u64, SpanRecord)> = self
            .slots
            .iter()
            .filter_map(|s| lock(&s.cell).as_ref().filter(|(_, r)| keep(r)).cloned())
            .collect();
        live.sort_by_key(|(seq, _)| *seq);
        live.into_iter().map(|(_, r)| r).collect()
    }

    /// Drop every record (the cursor keeps counting from where it was).
    pub fn clear(&self) {
        for s in &self.slots {
            *lock(&s.cell) = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tag: u64) -> SpanRecord {
        // Encode `tag` redundantly across fields so a torn read (fields
        // from two different writes) is detectable.
        SpanRecord {
            trace_id: tag,
            id: tag,
            parent: tag,
            name: "w",
            start_ns: tag,
            end_ns: tag.wrapping_mul(2),
            thread: tag,
            attrs: vec![("tag", tag.to_string())],
        }
    }

    fn assert_consistent(r: &SpanRecord) {
        let tag = r.trace_id;
        assert_eq!(r.id, tag);
        assert_eq!(r.parent, tag);
        assert_eq!(r.start_ns, tag);
        assert_eq!(r.end_ns, tag.wrapping_mul(2));
        assert_eq!(r.thread, tag);
        assert_eq!(r.attrs, vec![("tag", tag.to_string())]);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let j = Journal::with_capacity(4);
        for i in 0..10u64 {
            j.push(rec(i));
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 4);
        let tags: Vec<u64> = snap.iter().map(|r| r.trace_id).collect();
        assert_eq!(tags, vec![6, 7, 8, 9], "only the newest records survive");
        assert_eq!(j.pushed(), 10);
    }

    #[test]
    fn concurrent_writers_never_tear_records() {
        let j = std::sync::Arc::new(Journal::with_capacity(64));
        let writers = 8u64;
        let per_writer = 2_000u64;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let j = std::sync::Arc::clone(&j);
                scope.spawn(move || {
                    for i in 0..per_writer {
                        j.push(rec(w * per_writer + i));
                    }
                });
            }
            // Snapshot continuously while writers race the ring.
            let j2 = std::sync::Arc::clone(&j);
            scope.spawn(move || {
                for _ in 0..200 {
                    for r in j2.snapshot() {
                        assert_consistent(&r);
                    }
                }
            });
        });
        let snap = j.snapshot();
        assert_eq!(snap.len(), 64, "ring stays at capacity");
        for r in &snap {
            assert_consistent(r);
        }
        assert_eq!(j.pushed(), writers * per_writer);
    }

    #[test]
    fn snapshot_orders_by_push_sequence() {
        let j = Journal::with_capacity(8);
        for i in 0..6u64 {
            j.push(rec(100 + i));
        }
        let tags: Vec<u64> = j.snapshot().iter().map(|r| r.trace_id).collect();
        assert_eq!(tags, vec![100, 101, 102, 103, 104, 105]);
        j.clear();
        assert!(j.snapshot().is_empty());
    }
}
