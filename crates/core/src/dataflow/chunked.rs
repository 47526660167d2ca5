//! A copy-on-write chunked sequence: the storage under the debugger's
//! recorded history (the token arena, its eviction ring and free list,
//! the timeline ring and the per-interface histories).
//!
//! Full chunks of `CHUNK` elements live behind `Arc`, the way
//! `p2012::Memory` keeps its pages, and the last, partly filled chunk is
//! an owned buffer (the tail). A clone copies one pointer per full chunk
//! and the tail's few elements; a write to a full chunk copies that one
//! chunk, and only while a clone (a checkpoint, a forked session) still
//! holds it. A push writes the tail and touches no reference count. A
//! checkpoint of the recorded history therefore costs what changed since
//! the previous one, not what exists.
//!
//! One type serves as a growable array (`push_back`, `get_mut`), a stack
//! (`pop_back`) and a ring (`pop_front`, `push_front`). Every full chunk
//! holds exactly `CHUNK` elements; the first stored chunk (the tail, when
//! there is no full one) may start with a dead prefix left behind by
//! `pop_front`, which is dropped with the chunk once the whole chunk has
//! been popped.

use std::collections::VecDeque;
use std::sync::Arc;

/// Elements per chunk, chosen by measurement on the `timetravel`
/// benchmark (DESIGN.md): a write after a snapshot copies its chunk, so a
/// smaller chunk copies less, while a clone copies one pointer per full
/// chunk, so a larger one clones faster. 64 read fastest of 16 to 256.
pub const CHUNK: usize = 64;

#[derive(Debug, Clone)]
pub struct Chunked<T> {
    /// Full chunks, shared copy-on-write.
    chunks: VecDeque<Arc<Vec<T>>>,
    /// The last chunk, owned; at most `CHUNK` elements.
    tail: Vec<T>,
    /// Position of element 0 inside the first full chunk, or inside the
    /// tail when there is none.
    head: usize,
    len: usize,
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked {
            chunks: VecDeque::new(),
            tail: Vec::new(),
            head: 0,
            len: 0,
        }
    }
}

impl<T: Clone> Chunked<T> {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Position of element `i` among the stored elements, and how many
    /// of those the full chunks hold.
    #[inline]
    fn locate(&self, i: usize) -> (usize, usize) {
        (self.head + i, self.chunks.len() * CHUNK)
    }

    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        let (p, full) = self.locate(i);
        Some(if p < full {
            &self.chunks[p / CHUNK][p % CHUNK]
        } else {
            &self.tail[p - full]
        })
    }

    /// Writable access to element `i`, copying its chunk if shared.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        let (p, full) = self.locate(i);
        Some(if p < full {
            &mut Arc::make_mut(&mut self.chunks[p / CHUNK])[p % CHUNK]
        } else {
            &mut self.tail[p - full]
        })
    }

    pub fn front(&self) -> Option<&T> {
        self.get(0)
    }

    pub fn back(&self) -> Option<&T> {
        self.get(self.len.checked_sub(1)?)
    }

    pub fn push_back(&mut self, x: T) {
        if self.tail.len() == CHUNK {
            let full = std::mem::take(&mut self.tail);
            self.chunks.push_back(Arc::new(full));
        }
        // A clone's tail is allocated to its length: grow it to a whole
        // chunk at once.
        self.tail.reserve_exact(CHUNK - self.tail.len());
        self.tail.push(x);
        self.len += 1;
    }

    pub fn pop_back(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        if self.tail.is_empty() {
            // The last full chunk becomes the tail, copied if shared.
            let last = self.chunks.pop_back().expect("non-empty");
            self.tail = Arc::try_unwrap(last).unwrap_or_else(|shared| shared.to_vec());
        }
        let x = self.tail.pop().expect("live element");
        self.len -= 1;
        if self.len == 0 {
            self.clear();
        }
        Some(x)
    }

    /// Remove the first element. Reads only: a full chunk is dropped, not
    /// copied, once all of it has been popped.
    pub fn pop_front(&mut self) -> Option<T> {
        let x = self.front()?.clone();
        self.head += 1;
        self.len -= 1;
        if self.len == 0 {
            self.clear();
        } else if self.head == CHUNK && !self.chunks.is_empty() {
            self.chunks.pop_front();
            self.head = 0;
        }
        Some(x)
    }

    pub fn push_front(&mut self, x: T) {
        if self.len == 0 {
            return self.push_back(x);
        }
        if self.head == 0 {
            // A new first chunk whose only live element is its last one;
            // the dead prefix holds copies of `x` and is never read.
            self.chunks.push_front(Arc::new(vec![x; CHUNK]));
            self.head = CHUNK - 1;
        } else {
            self.head -= 1;
            match self.chunks.front_mut() {
                Some(first) => Arc::make_mut(first)[self.head] = x,
                None => self.tail[self.head] = x,
            }
        }
        self.len += 1;
    }

    pub fn clear(&mut self) {
        self.chunks.clear();
        self.tail.clear();
        self.head = 0;
        self.len = 0;
    }

    /// Elements, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks
            .iter()
            .flat_map(|c| c.iter())
            .chain(&self.tail)
            .skip(self.head)
    }

    /// `(identity, elements stored)` of every chunk held, the tail
    /// included, for counting the storage that clones share.
    pub fn chunks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let tail = (!self.tail.is_empty()).then_some(&self.tail);
        self.chunks
            .iter()
            .map(|c| &**c)
            .chain(tail)
            .map(|c| (c.as_ptr() as usize, c.len()))
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
    fn clones_share_full_chunks_and_writes_copy_one() {
        let mut a = Chunked::default();
        for i in 0..(4 * CHUNK as u32 + 1) {
            a.push_back(i);
        }
        let b = a.clone();
        let ids = |c: &Chunked<u32>| c.chunks().map(|(id, _)| id).collect::<Vec<_>>();
        let (ia, ib) = (ids(&a), ids(&b));
        assert_eq!(ia.len(), 5);
        assert_eq!(ia[..4], ib[..4], "a clone shares every full chunk");
        assert_ne!(ia[4], ib[4], "and owns its tail");
        *a.get_mut(CHUNK + 3).unwrap() = 999;
        let ia = ids(&a);
        let differing = ia[..4].iter().zip(&ib).filter(|(x, y)| x != y).count();
        assert_eq!(differing, 1, "a write copies exactly its own chunk");
        assert_eq!(b.get(CHUNK + 3), Some(&(CHUNK as u32 + 3)));
        assert_eq!(a.get(CHUNK + 3), Some(&999));
        // Popping from the front never copies a shared chunk.
        let mut c = b.clone();
        for _ in 0..CHUNK + 1 {
            c.pop_front();
        }
        assert!(ids(&c)[..3].iter().all(|id| ib.contains(id)));
    }
}
