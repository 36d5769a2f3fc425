//! Bounded ring buffer that drops the oldest entries on overflow.

use std::collections::VecDeque;

/// A bounded FIFO that keeps the most recent `capacity` entries.
///
/// Pushing onto a full buffer evicts the oldest entry and bumps the
/// `dropped` counter; a capacity of zero drops everything immediately. The
/// buffer never allocates beyond its capacity.
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    buf: VecDeque<T>,
    capacity: usize,
    offered: u64,
    dropped: u64,
}

impl<T> RingBuffer<T> {
    /// Creates a buffer that retains at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        RingBuffer {
            buf: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            offered: 0,
            dropped: 0,
        }
    }

    /// Appends `value`, evicting the oldest entry if the buffer is full.
    pub fn push(&mut self, value: T) {
        self.offered += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(value);
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total entries ever pushed (retained + dropped).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Entries evicted or rejected because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Replays `other`'s retained entries into this buffer (oldest first)
    /// and carries over its already-dropped count, so `offered()` and
    /// `dropped()` keep accounting for every entry either buffer ever saw.
    pub fn merge_from(&mut self, other: &RingBuffer<T>)
    where
        T: Clone,
    {
        self.merge_from_with(other, T::clone);
    }

    /// Like [`RingBuffer::merge_from`] but passes every replayed entry
    /// through `map` first (used to remap span ids when per-job traces are
    /// folded into a parent hub). Accounting is identical: `map` runs only
    /// on entries `other` still retains; entries `other` already dropped are
    /// carried over as dropped counts.
    pub fn merge_from_with<F>(&mut self, other: &RingBuffer<T>, mut map: F)
    where
        F: FnMut(&T) -> T,
    {
        for entry in other.iter() {
            self.push(map(entry));
        }
        let pre_dropped = other.offered - other.buf.len() as u64;
        self.offered += pre_dropped;
        self.dropped += pre_dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_everything_under_capacity() {
        let mut rb = RingBuffer::new(4);
        rb.push(1);
        rb.push(2);
        assert_eq!(rb.len(), 2);
        assert_eq!(rb.dropped(), 0);
        assert_eq!(rb.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut rb = RingBuffer::new(3);
        for v in 0..5 {
            rb.push(v);
        }
        assert_eq!(rb.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(rb.dropped(), 2);
        assert_eq!(rb.offered(), 5);
    }

    #[test]
    fn merge_preserves_offered_and_dropped_accounting() {
        let mut a = RingBuffer::new(4);
        a.push(1);
        let mut b = RingBuffer::new(2);
        for v in 10..15 {
            b.push(v); // 5 offered, 3 dropped, retains [13, 14]
        }
        a.merge_from(&b);
        assert_eq!(a.iter().copied().collect::<Vec<_>>(), vec![1, 13, 14]);
        assert_eq!(a.offered(), 6);
        assert_eq!(a.dropped(), 3);
    }

    #[test]
    fn merge_overflows_like_individual_pushes() {
        let mut a = RingBuffer::new(2);
        a.push(1);
        a.push(2);
        let mut b = RingBuffer::new(4);
        b.push(3);
        a.merge_from(&b);
        assert_eq!(a.iter().copied().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(a.offered(), 3);
        assert_eq!(a.dropped(), 1);
    }

    #[test]
    fn mapped_merge_transforms_only_retained_entries() {
        let mut a = RingBuffer::new(8);
        a.push(100);
        let mut b = RingBuffer::new(2);
        for v in 1..=4 {
            b.push(v); // retains [3, 4], dropped 2
        }
        a.merge_from_with(&b, |v| v + 1000);
        assert_eq!(a.iter().copied().collect::<Vec<_>>(), vec![100, 1003, 1004]);
        assert_eq!(a.offered(), 5);
        assert_eq!(a.dropped(), 2);
    }

    #[test]
    fn zero_capacity_drops_all() {
        let mut rb = RingBuffer::new(0);
        rb.push(7);
        rb.push(8);
        assert!(rb.is_empty());
        assert_eq!(rb.dropped(), 2);
        assert_eq!(rb.offered(), 2);
    }
}
