//! An intrusive doubly-linked LRU list over frame indices.
//!
//! The buffer pool stores frames in a `Vec`; this list orders those frame
//! *indices* from most- to least-recently used with O(1) touch/evict, which
//! keeps the pool an exact LRU (matching the paper's SHORE configuration)
//! rather than an approximation.

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
    in_list: bool,
}

/// LRU ordering over the integers `0..capacity`.
pub(crate) struct LruList {
    links: Vec<Link>,
    head: u32, // most recently used
    tail: u32, // least recently used
    len: usize,
}

impl LruList {
    pub(crate) fn new(capacity: usize) -> Self {
        LruList {
            links: vec![
                Link {
                    prev: NIL,
                    next: NIL,
                    in_list: false
                };
                capacity
            ],
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of indices currently in the list.
    #[cfg_attr(not(test), allow(dead_code))] // part of the LRU API, exercised in tests
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Marks `idx` most-recently-used, inserting it if absent.
    pub(crate) fn touch(&mut self, idx: u32) {
        if self.links[idx as usize].in_list {
            if self.head == idx {
                return;
            }
            self.unlink(idx);
        }
        // Push at head.
        let link = &mut self.links[idx as usize];
        link.prev = NIL;
        link.next = self.head;
        link.in_list = true;
        if self.head != NIL {
            self.links[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
        self.len += 1;
    }

    /// Inserts `idx` at the *cold* (least-recently-used) end if absent;
    /// an index already in the list keeps its position. An eviction whose
    /// write-back failed puts its victim back here, where
    /// [`pop_lru`](Self::pop_lru) took it from.
    pub(crate) fn push_cold(&mut self, idx: u32) {
        if self.links[idx as usize].in_list {
            return;
        }
        let link = &mut self.links[idx as usize];
        link.prev = self.tail;
        link.next = NIL;
        link.in_list = true;
        if self.tail != NIL {
            self.links[self.tail as usize].next = idx;
        }
        self.tail = idx;
        if self.head == NIL {
            self.head = idx;
        }
        self.len += 1;
    }

    /// Removes and returns the least-recently-used index, if any.
    pub(crate) fn pop_lru(&mut self) -> Option<u32> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        self.unlink(idx);
        Some(idx)
    }

    /// Removes `idx` from the list if present.
    #[cfg_attr(not(test), allow(dead_code))] // part of the LRU API, exercised in tests
    pub(crate) fn remove(&mut self, idx: u32) {
        if self.links[idx as usize].in_list {
            self.unlink(idx);
        }
    }

    fn unlink(&mut self, idx: u32) {
        let Link { prev, next, .. } = self.links[idx as usize];
        if prev != NIL {
            self.links[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.links[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        let link = &mut self.links[idx as usize];
        link.prev = NIL;
        link.next = NIL;
        link.in_list = false;
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_order_is_least_recently_used() {
        let mut lru = LruList::new(4);
        lru.touch(0);
        lru.touch(1);
        lru.touch(2);
        lru.touch(0); // 0 becomes MRU; order (MRU..LRU) = 0, 2, 1
        assert_eq!(lru.pop_lru(), Some(1));
        assert_eq!(lru.pop_lru(), Some(2));
        assert_eq!(lru.pop_lru(), Some(0));
        assert_eq!(lru.pop_lru(), None);
    }

    #[test]
    fn touch_is_idempotent_at_head() {
        let mut lru = LruList::new(2);
        lru.touch(1);
        lru.touch(1);
        lru.touch(1);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.pop_lru(), Some(1));
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn remove_middle_element() {
        let mut lru = LruList::new(3);
        lru.touch(0);
        lru.touch(1);
        lru.touch(2); // order: 2, 1, 0
        lru.remove(1);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.pop_lru(), Some(0));
        assert_eq!(lru.pop_lru(), Some(2));
    }

    #[test]
    fn remove_head_and_tail() {
        let mut lru = LruList::new(3);
        lru.touch(0);
        lru.touch(1);
        lru.touch(2);
        lru.remove(2); // head
        lru.remove(0); // tail
        assert_eq!(lru.pop_lru(), Some(1));
        assert_eq!(lru.pop_lru(), None);
    }

    #[test]
    fn push_cold_inserts_at_lru_end() {
        let mut lru = LruList::new(4);
        lru.touch(0);
        lru.touch(1); // order (MRU..LRU): 1, 0
        lru.push_cold(2); // order: 1, 0, 2
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.pop_lru(), Some(2));
        assert_eq!(lru.pop_lru(), Some(0));
        assert_eq!(lru.pop_lru(), Some(1));
        assert_eq!(lru.pop_lru(), None);
    }

    #[test]
    fn push_cold_keeps_existing_position() {
        let mut lru = LruList::new(4);
        lru.touch(0);
        lru.touch(1); // order: 1, 0
        lru.push_cold(1); // 1 is resident at the head: position unchanged
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.pop_lru(), Some(0));
        assert_eq!(lru.pop_lru(), Some(1));
        // Into an empty list, push_cold is both head and tail.
        lru.push_cold(3);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.pop_lru(), Some(3));
    }

    #[test]
    fn interleaved_random_operations_match_reference_model() {
        // Compare against a naive Vec-based LRU model.
        let mut lru = LruList::new(16);
        let mut model: Vec<u32> = vec![]; // front = MRU
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for _ in 0..2000 {
            match rng() % 3 {
                0 | 1 => {
                    let idx = rng() % 16;
                    lru.touch(idx);
                    model.retain(|&x| x != idx);
                    model.insert(0, idx);
                }
                _ => {
                    let got = lru.pop_lru();
                    let want = model.pop();
                    assert_eq!(got, want);
                }
            }
            assert_eq!(lru.len(), model.len());
        }
    }
}
