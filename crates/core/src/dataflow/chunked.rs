//! A copy-on-write chunked sequence: the storage under the debugger's
//! recorded history (the token arena, its eviction ring and free list,
//! the timeline ring and the per-interface histories).
//!
//! Elements live in fixed-size chunks behind `Arc`, the way
//! `p2012::Memory` keeps its pages. A clone copies one pointer per chunk
//! and shares everything; a write copies at most the one chunk it lands
//! in, and only while a clone (a checkpoint, a forked session) still
//! holds it. A checkpoint of the recorded history therefore costs what
//! changed since the previous one, not what exists.
//!
//! One type serves as a growable array (`push_back`, `get_mut`), a stack
//! (`pop_back`) and a ring (`pop_front`, `push_front`). Every chunk but
//! the last holds exactly `CHUNK` elements; the first may start with a
//! dead prefix left behind by `pop_front`, which is dropped with the
//! chunk once the whole chunk has been popped.

use std::collections::VecDeque;
use std::sync::Arc;

/// Elements per chunk.
const CHUNK: usize = 256;

#[derive(Debug, Clone)]
pub struct Chunked<T> {
    chunks: VecDeque<Arc<Vec<T>>>,
    /// Position of element 0 inside the first chunk.
    head: usize,
    len: usize,
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked {
            chunks: VecDeque::new(),
            head: 0,
            len: 0,
        }
    }
}

/// A private, writable view of a chunk; copies it if a clone shares it.
/// No `Weak` to a chunk is ever made, so a strong count of one means
/// unshared.
fn own<T: Clone>(chunk: &mut Arc<Vec<T>>) -> &mut Vec<T> {
    if Arc::strong_count(chunk) != 1 {
        let mut copy = Vec::with_capacity(CHUNK);
        copy.extend_from_slice(chunk);
        *chunk = Arc::new(copy);
    }
    Arc::get_mut(chunk).expect("chunk is unshared")
}

impl<T: Clone> Chunked<T> {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// (chunk, offset) of element `i`.
    #[inline]
    fn locate(&self, i: usize) -> (usize, usize) {
        let p = self.head + i;
        (p / CHUNK, p % CHUNK)
    }

    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        let (c, o) = self.locate(i);
        Some(&self.chunks[c][o])
    }

    /// Writable access to element `i`, copying its chunk if shared.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        let (c, o) = self.locate(i);
        Some(&mut own(&mut self.chunks[c])[o])
    }

    pub fn front(&self) -> Option<&T> {
        self.get(0)
    }

    pub fn back(&self) -> Option<&T> {
        self.get(self.len.checked_sub(1)?)
    }

    pub fn push_back(&mut self, x: T) {
        match self.chunks.back_mut() {
            Some(last) if last.len() < CHUNK => own(last).push(x),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(x);
                self.chunks.push_back(Arc::new(chunk));
            }
        }
        self.len += 1;
    }

    pub fn pop_back(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let last = own(self.chunks.back_mut().expect("non-empty"));
        let x = last.pop().expect("live element");
        let emptied = last.is_empty();
        self.len -= 1;
        if self.len == 0 {
            self.clear();
        } else if emptied {
            self.chunks.pop_back();
        }
        Some(x)
    }

    /// Remove the first element. Reads only: the chunk is dropped, not
    /// copied, once all of it has been popped.
    pub fn pop_front(&mut self) -> Option<T> {
        let x = self.front()?.clone();
        self.head += 1;
        self.len -= 1;
        if self.len == 0 {
            self.clear();
        } else if self.head == CHUNK {
            self.chunks.pop_front();
            self.head = 0;
        }
        Some(x)
    }

    pub fn push_front(&mut self, x: T) {
        if self.chunks.is_empty() {
            return self.push_back(x);
        }
        if self.head == 0 {
            // A new first chunk whose only live element is its last one;
            // the dead prefix holds copies of `x` and is never read.
            self.chunks.push_front(Arc::new(vec![x; CHUNK]));
            self.head = CHUNK - 1;
        } else {
            self.head -= 1;
            own(&mut self.chunks[0])[self.head] = x;
        }
        self.len += 1;
    }

    pub fn clear(&mut self) {
        self.chunks.clear();
        self.head = 0;
        self.len = 0;
    }

    /// Elements, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter()).skip(self.head)
    }

    /// The identity of every chunk held, for counting the storage that
    /// clones share.
    pub fn chunk_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.chunks.iter().map(|c| Arc::as_ptr(c) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contents(c: &Chunked<u32>) -> Vec<u32> {
        c.iter().copied().collect()
    }

    #[test]
    fn behaves_like_a_deque_across_chunk_boundaries() {
        let mut c = Chunked::default();
        let mut d = VecDeque::new();
        // A fixed pseudo-random walk over every operation, long enough to
        // cross many chunk boundaries in both directions.
        let mut x = 12345u32;
        for step in 0..20_000u32 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            match (x >> 16) % 7 {
                0..=2 => {
                    c.push_back(step);
                    d.push_back(step);
                }
                3 => assert_eq!(c.pop_front(), d.pop_front()),
                4 => assert_eq!(c.pop_back(), d.pop_back()),
                5 => {
                    c.push_front(step);
                    d.push_front(step);
                }
                _ => {
                    if !d.is_empty() {
                        let i = (x as usize) % d.len();
                        *c.get_mut(i).unwrap() = step;
                        d[i] = step;
                    }
                }
            }
            assert_eq!(c.len(), d.len());
            assert_eq!(c.front(), d.front());
            assert_eq!(c.back(), d.back());
        }
        assert_eq!(contents(&c), d.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn clones_share_chunks_and_writes_copy_one() {
        let mut a = Chunked::default();
        for i in 0..(4 * CHUNK as u32) {
            a.push_back(i);
        }
        let b = a.clone();
        let ids = |c: &Chunked<u32>| c.chunk_ids().collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
        *a.get_mut(CHUNK + 3).unwrap() = 999;
        let (ia, ib) = (ids(&a), ids(&b));
        let differing = ia.iter().zip(&ib).filter(|(x, y)| x != y).count();
        assert_eq!(differing, 1, "a write copies exactly its own chunk");
        assert_eq!(b.get(CHUNK + 3), Some(&(CHUNK as u32 + 3)));
        assert_eq!(a.get(CHUNK + 3), Some(&999));
        // Popping from the front never copies a shared chunk.
        let mut c = b.clone();
        for _ in 0..CHUNK + 1 {
            c.pop_front();
        }
        assert!(ids(&c).iter().all(|id| ib.contains(id)));
    }
}
