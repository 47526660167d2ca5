//! The P2012 memory hierarchy (Fig. 1 of the paper).
//!
//! Three levels, word-addressed:
//!
//! * **L1** — one bank per cluster, shared by the cluster's PEs (lowest
//!   latency; holds intra-cluster data links);
//! * **L2** — chip-wide, used for inter-cluster communication;
//! * **L3** — external memory reached through DMA, used for host↔fabric
//!   exchanges.
//!
//! The debugger's *watchpoints* hook the store/load paths here: every access
//! consults a (normally empty) watch list, and hits accumulate in a buffer
//! that the debugger drains after each simulated cycle. When no watchpoints
//! are set the check is a single branch on an empty `Vec`, keeping the
//! undebuggged fast path honest for the overhead benchmarks (experiment E1).
//!
//! Banks are stored as copy-on-write pages ([`PAGE_WORDS`] words each),
//! reached through a two-level page table: the table is split into
//! chunks of [`CHUNK_PAGES`] page pointers. At both levels an entry is
//! either shared (`Arc`, refcounted with every fork that references it)
//! or privately owned. Reads never promote; the first store into a shared
//! chunk copies that chunk's page pointers, and the first store into a
//! shared page copies just that page. This is what makes
//! [`Memory::fork`] — and with it debugger-session forking and
//! time-travel checkpoints — cost the table's chunk pointers plus the
//! chunks and pages written since the last fork: a thousand forked
//! sessions of the same booted application share one set of chunks and
//! page buffers until they actually diverge.

use std::sync::{Arc, OnceLock};

use debuginfo::Word;

/// A level of the hierarchy plus its instance (cluster) when relevant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    L1 { cluster: u16 },
    L2,
    L3,
}

impl Region {
    pub fn name(self) -> String {
        match self {
            Region::L1 { cluster } => format!("L1[{cluster}]"),
            Region::L2 => "L2".to_string(),
            Region::L3 => "L3".to_string(),
        }
    }
}

/// Fixed address-space layout (word addresses).
///
/// * L1 of cluster `c`: `0x1000_0000 + c * 0x0001_0000`
/// * L2: `0x2000_0000`
/// * L3: `0x3000_0000`
#[derive(Debug, Clone)]
pub struct MemoryMap {
    pub clusters: u16,
    pub l1_words: u32,
    pub l2_words: u32,
    pub l3_words: u32,
    pub l1_latency: u32,
    pub l2_latency: u32,
    pub l3_latency: u32,
}

pub const L1_BASE: u32 = 0x1000_0000;
pub const L1_STRIDE: u32 = 0x0001_0000;
pub const L2_BASE: u32 = 0x2000_0000;
pub const L3_BASE: u32 = 0x3000_0000;

impl Default for MemoryMap {
    fn default() -> Self {
        MemoryMap {
            clusters: 2,
            l1_words: 16 * 1024,
            l2_words: 256 * 1024,
            l3_words: 1024 * 1024,
            l1_latency: 1,
            l2_latency: 8,
            l3_latency: 32,
        }
    }
}

impl MemoryMap {
    pub fn l1_base(&self, cluster: u16) -> u32 {
        L1_BASE + u32::from(cluster) * L1_STRIDE
    }

    /// Decode an address into (region, offset).
    pub fn decode(&self, addr: u32) -> Result<(Region, u32), MemError> {
        if (L1_BASE..L1_BASE + u32::from(self.clusters) * L1_STRIDE).contains(&addr) {
            let cluster = ((addr - L1_BASE) / L1_STRIDE) as u16;
            let off = (addr - L1_BASE) % L1_STRIDE;
            if off < self.l1_words {
                return Ok((Region::L1 { cluster }, off));
            }
        } else if (L2_BASE..L2_BASE + self.l2_words).contains(&addr) {
            return Ok((Region::L2, addr - L2_BASE));
        } else if (L3_BASE..L3_BASE + self.l3_words).contains(&addr) {
            return Ok((Region::L3, addr - L3_BASE));
        }
        Err(MemError::Unmapped { addr })
    }

    pub fn latency(&self, region: Region) -> u32 {
        match region {
            Region::L1 { .. } => self.l1_latency,
            Region::L2 => self.l2_latency,
            Region::L3 => self.l3_latency,
        }
    }
}

/// Memory access failure, surfaced to the debugger as a PE fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    Unmapped { addr: u32 },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Unmapped { addr } => {
                write!(f, "unmapped address 0x{addr:08x}")
            }
        }
    }
}

/// Granularity of copy-on-write sharing and of the dirty-page tracking
/// used by checkpoint/replay: a bank is split into pages of this many
/// words, and only pages written since the last checkpoint boundary enter
/// the next boundary hash.
pub const PAGE_WORDS: u32 = 1024;

/// One dirty-trackable page: a bank (region) plus the page index within
/// it. Ordered so page sets hash and compare deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId {
    pub region: Region,
    pub page: u32,
}

/// Page pointers per chunk of a bank's page table: the granularity at
/// which a fork shares the table itself. A fork costs one pointer per
/// chunk; the first store into a shared chunk copies this many pointers.
pub const CHUNK_PAGES: u32 = 32;

const CHUNK_WORDS: u32 = CHUNK_PAGES * PAGE_WORDS;

/// Deterministic counts of the copy-on-write work a memory did: the
/// chunks and pages it copied because a store hit a shared one. Forks
/// carry the counts over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryWork {
    pub chunks_copied: u64,
    pub pages_copied: u64,
}

/// One copy-on-write page of bank backing store. `Shared` pages are
/// referenced by forked memories (checkpoints among them); the first
/// store promotes the page to `Owned` by copying it.
#[derive(Debug, Clone)]
enum Page {
    Shared(Arc<[Word]>),
    Owned(Vec<Word>),
}

impl Page {
    #[inline]
    fn as_slice(&self) -> &[Word] {
        match self {
            Page::Shared(p) => p,
            Page::Owned(p) => p,
        }
    }

    /// Private, writable view; copies the page if it is shared.
    #[inline]
    fn make_owned(&mut self, work: &mut MemoryWork) -> &mut [Word] {
        if let Page::Shared(p) = self {
            work.pages_copied += 1;
            *self = Page::Owned(p.to_vec());
        }
        match self {
            Page::Owned(p) => p,
            Page::Shared(_) => unreachable!("just promoted"),
        }
    }

    /// Freeze into shared form (fork time).
    fn share(&mut self) {
        if let Page::Owned(v) = self {
            *self = Page::Shared(Arc::from(std::mem::take(v).into_boxed_slice()));
        }
    }
}

/// One chunk of a bank's page table. Every page of a `Shared` chunk is
/// itself shared, so copying the chunk copies pointers, never words.
#[derive(Debug, Clone)]
enum Chunk {
    Shared(Arc<[Page]>),
    Owned(Vec<Page>),
}

impl Chunk {
    #[inline]
    fn pages(&self) -> &[Page] {
        match self {
            Chunk::Shared(c) => c,
            Chunk::Owned(c) => c,
        }
    }

    /// Private, writable table; copies the page pointers if the chunk is
    /// shared.
    #[inline]
    fn make_owned(&mut self, work: &mut MemoryWork) -> &mut [Page] {
        if let Chunk::Shared(c) = self {
            work.chunks_copied += 1;
            *self = Chunk::Owned(c.to_vec());
        }
        match self {
            Chunk::Owned(c) => c,
            Chunk::Shared(_) => unreachable!("just promoted"),
        }
    }

    /// Freeze into shared form (fork time): the pages first, then the
    /// table. A chunk nobody wrote since the last fork is already shared.
    fn share(&mut self) {
        if let Chunk::Owned(pages) = self {
            for p in pages.iter_mut() {
                p.share();
            }
            *self = Chunk::Shared(Arc::from(std::mem::take(pages)));
        }
    }

    /// The chunk's identity while it is alive (for sharing counts).
    fn id(&self) -> usize {
        self.pages().as_ptr() as usize
    }
}

/// One page as [`Memory::pages`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageView<'a> {
    /// The shared zero page: this many words, all zero.
    Zero(usize),
    /// Any other page (owned, or shared with a fork),
    /// including one that happens to hold only zeros.
    Words(&'a [Word]),
}

/// One bank as a table of COW chunks of COW pages (the last chunk may
/// hold fewer pages, and the last page fewer words).
#[derive(Debug, Clone)]
struct Bank {
    chunks: Vec<Chunk>,
}

/// The one all-zero page every untouched full page of every bank points
/// at, process-wide. [`Memory::pages`] recognises it by address, which is
/// what lets a full-memory hash skip the words it is known to hold.
fn zero_page() -> &'static Arc<[Word]> {
    static ZERO: OnceLock<Arc<[Word]>> = OnceLock::new();
    ZERO.get_or_init(|| Arc::from(vec![0; PAGE_WORDS as usize].into_boxed_slice()))
}

/// The one chunk of zero pages every untouched full chunk of every bank
/// points at, process-wide.
fn zero_chunk() -> &'static Arc<[Page]> {
    static ZERO: OnceLock<Arc<[Page]>> = OnceLock::new();
    ZERO.get_or_init(|| zero_pages(CHUNK_WORDS))
}

/// `words` zero words as shared pages: full pages point at the zero page.
fn zero_pages(words: u32) -> Arc<[Page]> {
    (0..words.div_ceil(PAGE_WORDS))
        .map(|p| match words - p * PAGE_WORDS {
            rest if rest >= PAGE_WORDS => Page::Shared(Arc::clone(zero_page())),
            rest => Page::Shared(Arc::from(vec![0; rest as usize].into_boxed_slice())),
        })
        .collect()
}

impl Bank {
    fn new(words: u32) -> Bank {
        // Untouched banks are all zeros: every full chunk starts as a
        // reference to the shared zero chunk, so constructing (and
        // forking) a memory costs pointers, not megabytes.
        let full = words / CHUNK_WORDS;
        let mut chunks: Vec<Chunk> = (0..full)
            .map(|_| Chunk::Shared(Arc::clone(zero_chunk())))
            .collect();
        let rest = words % CHUNK_WORDS;
        if rest > 0 {
            chunks.push(Chunk::Shared(zero_pages(rest)));
        }
        Bank { chunks }
    }

    #[inline]
    fn get(&self, off: u32) -> Word {
        self.page(off / PAGE_WORDS)[(off % PAGE_WORDS) as usize]
    }

    #[inline]
    fn get_mut(&mut self, off: u32, work: &mut MemoryWork) -> &mut Word {
        let pages = self.chunks[(off / CHUNK_WORDS) as usize].make_owned(work);
        let page = &mut pages[(off / PAGE_WORDS % CHUNK_PAGES) as usize];
        &mut page.make_owned(work)[(off % PAGE_WORDS) as usize]
    }

    #[inline]
    fn page(&self, page: u32) -> &[Word] {
        self.chunks[(page / CHUNK_PAGES) as usize].pages()[(page % CHUNK_PAGES) as usize].as_slice()
    }

    /// Freeze every chunk into shared form (fork).
    fn share(&mut self) {
        for c in &mut self.chunks {
            c.share();
        }
    }

    fn views(&self) -> impl Iterator<Item = PageView<'_>> {
        self.chunks.iter().flat_map(|c| c.pages()).map(|p| match p {
            Page::Shared(z) if Arc::ptr_eq(z, zero_page()) => PageView::Zero(z.len()),
            p => PageView::Words(p.as_slice()),
        })
    }

    /// Words in pages that are not the very page `base` holds at the
    /// same place (a chunk `base` shares holds none).
    fn words_apart_from(&self, base: &Bank) -> usize {
        let mut words = 0;
        for (c, b) in self.chunks.iter().zip(&base.chunks) {
            if c.id() == b.id() {
                continue;
            }
            for (p, q) in c.pages().iter().zip(b.pages()) {
                if !matches!((p, q), (Page::Shared(p), Page::Shared(q)) if Arc::ptr_eq(p, q)) {
                    words += p.as_slice().len();
                }
            }
        }
        words
    }
}

/// Watchpoint trigger kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchKind {
    Write,
    Read,
    Access,
}

#[derive(Debug, Clone, Copy)]
struct Watch {
    id: u32,
    lo: u32,
    hi: u32, // inclusive
    kind: WatchKind,
}

/// One recorded watchpoint hit: which watch, where, the value involved and
/// (for writes) the value it replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchHit {
    pub id: u32,
    pub addr: u32,
    pub was_write: bool,
    pub old: Word,
    pub new: Word,
}

/// The simulated memory system.
#[derive(Debug, Clone)]
pub struct Memory {
    map: MemoryMap,
    l1: Vec<Bank>,
    l2: Bank,
    l3: Bank,
    watches: Vec<Watch>,
    hits: Vec<WatchHit>,
    /// Dirty-page flags per bank, mirroring the bank layout above, plus an
    /// append-only list of first-touched pages — O(1) marking per store,
    /// and a checkpoint boundary drains the list instead of scanning the
    /// full (mostly idle) hierarchy.
    dirty_l1: Vec<Vec<bool>>,
    dirty_l2: Vec<bool>,
    dirty_l3: Vec<bool>,
    dirty_list: Vec<PageId>,
    work: MemoryWork,
    /// Total accesses, for the simulator-throughput benchmark (B4).
    pub reads: u64,
    pub writes: u64,
}

fn pages_for(words: u32) -> usize {
    words.div_ceil(PAGE_WORDS) as usize
}

impl Memory {
    pub fn new(map: MemoryMap) -> Self {
        let l1 = (0..map.clusters).map(|_| Bank::new(map.l1_words)).collect();
        Memory {
            l2: Bank::new(map.l2_words),
            l3: Bank::new(map.l3_words),
            l1,
            dirty_l1: (0..map.clusters)
                .map(|_| vec![false; pages_for(map.l1_words)])
                .collect(),
            dirty_l2: vec![false; pages_for(map.l2_words)],
            dirty_l3: vec![false; pages_for(map.l3_words)],
            dirty_list: Vec::new(),
            work: MemoryWork::default(),
            map,
            watches: Vec::new(),
            hits: Vec::new(),
            reads: 0,
            writes: 0,
        }
    }

    pub fn map(&self) -> &MemoryMap {
        &self.map
    }

    fn mark_dirty(&mut self, region: Region, off: u32) {
        let page = off / PAGE_WORDS;
        let flag = match region {
            Region::L1 { cluster } => &mut self.dirty_l1[cluster as usize][page as usize],
            Region::L2 => &mut self.dirty_l2[page as usize],
            Region::L3 => &mut self.dirty_l3[page as usize],
        };
        if !*flag {
            *flag = true;
            self.dirty_list.push(PageId { region, page });
        }
    }

    #[inline]
    fn bank(&self, region: Region) -> &Bank {
        match region {
            Region::L1 { cluster } => &self.l1[cluster as usize],
            Region::L2 => &self.l2,
            Region::L3 => &self.l3,
        }
    }

    /// The word at `off` of `region`, made private first.
    #[inline]
    fn cell_mut(&mut self, region: Region, off: u32) -> &mut Word {
        let bank = match region {
            Region::L1 { cluster } => &mut self.l1[cluster as usize],
            Region::L2 => &mut self.l2,
            Region::L3 => &mut self.l3,
        };
        bank.get_mut(off, &mut self.work)
    }

    /// The copy-on-write work done so far.
    pub fn work(&self) -> MemoryWork {
        self.work
    }

    /// Load a word; returns `(value, stall_cycles)`. Reads never promote a
    /// shared page — forked sessions stay deduplicated under read-mostly
    /// inspection workloads.
    pub fn read(&mut self, addr: u32) -> Result<(Word, u32), MemError> {
        self.reads += 1;
        let watched = self.match_watch(addr, false);
        let (region, off) = self.map.decode(addr)?;
        let lat = self.map.latency(region);
        let v = self.bank(region).get(off);
        if let Some(id) = watched {
            self.hits.push(WatchHit {
                id,
                addr,
                was_write: false,
                old: v,
                new: v,
            });
        }
        Ok((v, lat))
    }

    /// Store a word; returns the stall cycles.
    pub fn write(&mut self, addr: u32, value: Word) -> Result<u32, MemError> {
        self.writes += 1;
        let watched = self.match_watch(addr, true);
        let (region, off) = self.map.decode(addr)?;
        self.mark_dirty(region, off);
        let lat = self.map.latency(region);
        let cell = self.cell_mut(region, off);
        let old = *cell;
        *cell = value;
        if let Some(id) = watched {
            self.hits.push(WatchHit {
                id,
                addr,
                was_write: true,
                old,
                new: value,
            });
        }
        Ok(lat)
    }

    /// Read without latency accounting or watch triggering: the debugger's
    /// own inspection path (`print`, link occupancy displays) must not
    /// perturb the simulation — the paper stresses that debugger slowdown
    /// "does not alter the execution semantic".
    pub fn peek(&self, addr: u32) -> Result<Word, MemError> {
        let (region, off) = self.map.decode(addr)?;
        Ok(self.bank(region).get(off))
    }

    /// Write without latency/watch side effects: used by loaders and by the
    /// debugger's token-alteration commands (§III "Altering the Normal
    /// Execution").
    pub fn poke(&mut self, addr: u32, value: Word) -> Result<(), MemError> {
        let (region, off) = self.map.decode(addr)?;
        self.mark_dirty(region, off);
        *self.cell_mut(region, off) = value;
        Ok(())
    }

    fn match_watch(&self, addr: u32, is_write: bool) -> Option<u32> {
        if self.watches.is_empty() {
            return None;
        }
        self.watches
            .iter()
            .find(|w| {
                addr >= w.lo
                    && addr <= w.hi
                    && match w.kind {
                        WatchKind::Write => is_write,
                        WatchKind::Read => !is_write,
                        WatchKind::Access => true,
                    }
            })
            .map(|w| w.id)
    }

    /// Install a watch over `[lo, hi]` (inclusive, word addresses).
    pub fn add_watch(&mut self, id: u32, lo: u32, hi: u32, kind: WatchKind) {
        self.watches.push(Watch { id, lo, hi, kind });
    }

    pub fn remove_watch(&mut self, id: u32) {
        self.watches.retain(|w| w.id != id);
    }

    /// Drain the accumulated watch hits (debugger, once per cycle).
    pub fn take_hits(&mut self) -> Vec<WatchHit> {
        std::mem::take(&mut self.hits)
    }

    pub fn has_hits(&self) -> bool {
        !self.hits.is_empty()
    }

    // ---- checkpoint/replay support ----------------------------------------

    /// Drain the dirty-page set (sorted) and clear all flags. Called at
    /// each checkpoint boundary so the next interval starts clean. (Not
    /// the same as "owned": a fork taken mid-interval shares pages this
    /// memory has already dirtied.)
    pub fn take_dirty(&mut self) -> Vec<PageId> {
        let mut list = std::mem::take(&mut self.dirty_list);
        for p in &list {
            match p.region {
                Region::L1 { cluster } => {
                    self.dirty_l1[cluster as usize][p.page as usize] = false;
                }
                Region::L2 => self.dirty_l2[p.page as usize] = false,
                Region::L3 => self.dirty_l3[p.page as usize] = false,
            }
        }
        list.sort_unstable();
        list
    }

    /// The live words of `page` (last page of a bank may be partial).
    pub fn page_data(&self, p: PageId) -> &[Word] {
        self.bank(p.region).page(p.page)
    }

    /// Copy-on-write fork: every chunk of every bank's page table, and
    /// every page, becomes shared between `self` and the returned memory;
    /// the first store on either side copies the chunk's pointers and the
    /// page it touches. Only chunks written since the last fork need
    /// freezing, so a fork costs the table's chunk pointers plus what was
    /// written since. Watches, dirty tracking and access and work counters
    /// carry over verbatim.
    pub fn fork(&mut self) -> Memory {
        for b in &mut self.l1 {
            b.share();
        }
        self.l2.share();
        self.l3.share();
        self.clone()
    }

    /// Time travel: `self` (a checkpoint's memory) is about to replace
    /// `live`. The installed watches are the user's, not recorded
    /// history, so they move across — like GDB's, watchpoints survive
    /// time travel. Pending hits belong to the abandoned timeline and are
    /// dropped.
    pub fn adopt_watches(&mut self, live: &mut Memory) {
        self.watches = std::mem::take(&mut live.watches);
        self.hits.clear();
    }

    /// Words in pages this memory does not share with `base`, a memory
    /// of the same map (a fork relative, say): what it holds beyond
    /// `base`, in real words rather than address space. The multiverse
    /// universe pool accounts its snapshots against its root this way.
    pub fn words_apart_from(&self, base: &Memory) -> usize {
        self.l1
            .iter()
            .zip(&base.l1)
            .chain([(&self.l2, &base.l2), (&self.l3, &base.l3)])
            .map(|(b, base)| b.words_apart_from(base))
            .sum()
    }

    /// Every chunk of every bank's page table in address order, by
    /// identity: a chunk shared with a fork has the same id in both, so
    /// counting distinct ids over a set of memories counts the chunks
    /// they hold between them.
    pub fn chunk_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.l1
            .iter()
            .chain([&self.l2, &self.l3])
            .flat_map(|b| b.chunks.iter().map(Chunk::id))
    }

    /// Every page of every bank in address order (L1 banks by cluster,
    /// then L2, then L3): the shared zero page as its length alone, any
    /// other page as its words. A full-memory walk (the baseline hash of
    /// a checkpoint chain) costs what memory holds, not its size.
    pub fn pages(&self) -> impl Iterator<Item = PageView<'_>> {
        self.l1
            .iter()
            .chain([&self.l2, &self.l3])
            .flat_map(Bank::views)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mem() -> Memory {
        Memory::new(MemoryMap::default())
    }

    #[test]
    fn decode_all_regions() {
        let m = MemoryMap::default();
        assert_eq!(m.decode(L1_BASE).unwrap().0, Region::L1 { cluster: 0 });
        assert_eq!(
            m.decode(L1_BASE + L1_STRIDE + 5).unwrap(),
            (Region::L1 { cluster: 1 }, 5)
        );
        assert_eq!(m.decode(L2_BASE + 10).unwrap(), (Region::L2, 10));
        assert_eq!(m.decode(L3_BASE).unwrap(), (Region::L3, 0));
        assert!(m.decode(0xdead_beef).is_err());
        // hole between end of L1 bank and next stride
        assert!(m.decode(L1_BASE + m.l1_words).is_err());
    }

    #[test]
    fn latency_increases_down_the_hierarchy() {
        let mut m = mem();
        let (_, l1) = m.read(L1_BASE).unwrap();
        let (_, l2) = m.read(L2_BASE).unwrap();
        let (_, l3) = m.read(L3_BASE).unwrap();
        assert!(l1 < l2 && l2 < l3, "{l1} {l2} {l3}");
    }

    #[test]
    fn read_back_what_was_written() {
        let mut m = mem();
        m.write(L2_BASE + 42, 0xabcd).unwrap();
        assert_eq!(m.read(L2_BASE + 42).unwrap().0, 0xabcd);
        assert_eq!(m.peek(L2_BASE + 42).unwrap(), 0xabcd);
    }

    #[test]
    fn watchpoints_record_old_and_new() {
        let mut m = mem();
        m.poke(L1_BASE + 7, 5).unwrap();
        m.add_watch(3, L1_BASE + 7, L1_BASE + 7, WatchKind::Write);
        m.read(L1_BASE + 7).unwrap(); // read: no hit for write watch
        assert!(!m.has_hits());
        m.write(L1_BASE + 7, 9).unwrap();
        let hits = m.take_hits();
        assert_eq!(
            hits,
            vec![WatchHit {
                id: 3,
                addr: L1_BASE + 7,
                was_write: true,
                old: 5,
                new: 9
            }]
        );
        assert!(!m.has_hits());
    }

    #[test]
    fn access_watch_fires_on_reads_too() {
        let mut m = mem();
        m.add_watch(1, L3_BASE, L3_BASE + 10, WatchKind::Access);
        m.read(L3_BASE + 4).unwrap();
        assert_eq!(m.take_hits().len(), 1);
    }

    #[test]
    fn peek_and_poke_bypass_watches() {
        let mut m = mem();
        m.add_watch(1, L2_BASE, L2_BASE, WatchKind::Access);
        m.poke(L2_BASE, 1).unwrap();
        let _ = m.peek(L2_BASE).unwrap();
        assert!(!m.has_hits());
    }

    #[test]
    fn remove_watch_stops_hits() {
        let mut m = mem();
        m.add_watch(1, L2_BASE, L2_BASE, WatchKind::Write);
        m.remove_watch(1);
        m.write(L2_BASE, 1).unwrap();
        assert!(!m.has_hits());
    }

    #[test]
    fn writes_mark_pages_dirty_reads_do_not() {
        let mut m = mem();
        m.read(L2_BASE).unwrap();
        assert!(m.take_dirty().is_empty(), "reads must not dirty pages");
        m.write(L2_BASE, 1).unwrap();
        m.write(L2_BASE + 1, 2).unwrap(); // same page: no second entry
        m.poke(L3_BASE + PAGE_WORDS, 3).unwrap(); // pokes dirty too
        let dirty = m.take_dirty();
        assert_eq!(
            dirty,
            vec![
                PageId {
                    region: Region::L2,
                    page: 0
                },
                PageId {
                    region: Region::L3,
                    page: 1
                },
            ]
        );
        // Drained: flags reset, next write re-marks.
        assert!(m.take_dirty().is_empty());
        m.write(L2_BASE, 9).unwrap();
        assert_eq!(m.take_dirty().len(), 1);
    }

    #[test]
    fn forked_memories_do_not_alias() {
        let mut m = mem();
        m.write(L2_BASE, 1).unwrap();
        m.write(L3_BASE + 9, 7).unwrap();
        let mut child = m.fork();
        // Writes on either side stay invisible to the other.
        child.write(L2_BASE, 100).unwrap();
        m.write(L3_BASE + 9, 200).unwrap();
        assert_eq!(m.peek(L2_BASE).unwrap(), 1);
        assert_eq!(child.peek(L2_BASE).unwrap(), 100);
        assert_eq!(m.peek(L3_BASE + 9).unwrap(), 200);
        assert_eq!(child.peek(L3_BASE + 9).unwrap(), 7);
        // Untouched words are shared and identical.
        assert_eq!(
            m.peek(L1_BASE + 5).unwrap(),
            child.peek(L1_BASE + 5).unwrap()
        );
    }

    #[test]
    fn fork_preserves_dirty_tracking_independence() {
        let mut m = mem();
        m.write(L2_BASE, 1).unwrap();
        m.take_dirty();
        let mut child = m.fork();
        child.write(L2_BASE + 1, 2).unwrap();
        assert_eq!(child.take_dirty().len(), 1);
        assert!(m.take_dirty().is_empty(), "parent saw the child's write");
    }

    #[test]
    fn words_apart_count_the_pages_a_fork_does_not_share() {
        let mut root = Memory::new(ragged_map());
        root.write(L2_BASE, 1).unwrap();
        let mut snap = root.fork();
        assert_eq!(snap.words_apart_from(&root), 0);
        // A full page and the partial last pages of L1 and L2.
        snap.write(L3_BASE + CHUNK_WORDS, 2).unwrap();
        snap.write(L1_BASE + 3 * PAGE_WORDS, 3).unwrap();
        snap.write(L2_BASE + CHUNK_WORDS + 2 * PAGE_WORDS, 4)
            .unwrap();
        let apart = PAGE_WORDS as usize + 5 + 10;
        assert_eq!(snap.words_apart_from(&root), apart);
        // A fork of the snapshot shares its pages, not the root's.
        let grandchild = snap.fork();
        assert_eq!(grandchild.words_apart_from(&root), apart);
        assert_eq!(grandchild.words_apart_from(&snap), 0);
        // A store on the root's side moves the page apart too.
        root.write(L2_BASE + 1, 5).unwrap();
        assert_eq!(snap.words_apart_from(&root), apart + PAGE_WORDS as usize);
    }

    #[test]
    fn last_partial_page_has_short_slice() {
        let map = MemoryMap {
            l2_words: PAGE_WORDS + 10,
            ..MemoryMap::default()
        };
        let mut m = Memory::new(map);
        m.write(L2_BASE + PAGE_WORDS + 3, 1).unwrap();
        let dirty = m.take_dirty();
        assert_eq!(dirty.len(), 1);
        assert_eq!(m.page_data(dirty[0]).len(), 10);
    }

    /// A map whose banks end in every shape the table has: L1 is one
    /// partial chunk ending in a partial page, L2 a full chunk then a
    /// partial one ending in a partial page, L3 two full chunks (the
    /// shared zero chunk).
    fn ragged_map() -> MemoryMap {
        MemoryMap {
            clusters: 1,
            l1_words: 3 * PAGE_WORDS + 5,
            l2_words: CHUNK_WORDS + 2 * PAGE_WORDS + 10,
            l3_words: 2 * CHUNK_WORDS,
            ..MemoryMap::default()
        }
    }

    /// A memory's reference: its words flat in [`Memory::pages`] order,
    /// and which pages a store has reached in its lineage.
    #[derive(Clone)]
    struct Model {
        words: Vec<Word>,
        touched: Vec<bool>,
    }

    /// The banks of `map` in [`Memory::pages`] order: base address and
    /// length in words.
    fn banks(map: &MemoryMap) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = (0..map.clusters)
            .map(|c| (map.l1_base(c), map.l1_words))
            .collect();
        out.push((L2_BASE, map.l2_words));
        out.push((L3_BASE, map.l3_words));
        out
    }

    /// Flat word index and flat page index of `addr`.
    fn locate(map: &MemoryMap, addr: u32) -> (usize, usize) {
        let (mut word, mut page) = (0usize, 0usize);
        for (base, len) in banks(map) {
            if (base..base + len).contains(&addr) {
                let off = addr - base;
                return (word + off as usize, page + (off / PAGE_WORDS) as usize);
            }
            word += len as usize;
            page += pages_for(len);
        }
        unreachable!("address outside every bank")
    }

    /// `m` reads back exactly like `model`, and reports the zero page for
    /// exactly the untouched full pages.
    fn check(m: &Memory, model: &Model) {
        let mut word = 0;
        let mut n_pages = 0;
        for (i, view) in m.pages().enumerate() {
            let (len, zero) = match view {
                PageView::Zero(n) => (n, true),
                PageView::Words(w) => {
                    assert_eq!(w, &model.words[word..word + w.len()], "page {i}");
                    (w.len(), false)
                }
            };
            let full = len == PAGE_WORDS as usize;
            assert_eq!(zero, full && !model.touched[i], "page {i}: zero page");
            if zero {
                assert!(model.words[word..word + len].iter().all(|&w| w == 0));
            }
            word += len;
            n_pages += 1;
        }
        assert_eq!((word, n_pages), (model.words.len(), model.touched.len()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Copy-on-write at both table levels is invisible: over random
        /// stores, pokes, forks (of forks too), clones and drops across
        /// several live memories, each reads back like a flat vector.
        #[test]
        fn cow_memories_read_back_like_flat_vectors(
            ops in prop::collection::vec((0u32..8, any::<u32>(), any::<u32>()), 1..300),
        ) {
            let map = ragged_map();
            let banks = banks(&map);
            let words = banks.iter().map(|&(_, l)| l as usize).sum();
            let pages = banks.iter().map(|&(_, l)| pages_for(l)).sum();
            let mut live = vec![(
                Memory::new(map.clone()),
                Model { words: vec![0; words], touched: vec![false; pages] },
            )];
            for (kind, a, b) in ops {
                let at = a as usize % live.len();
                match kind {
                    0..=4 => {
                        // A store somewhere in a few words of a random
                        // page, zeros included.
                        let (base, len) = banks[(a >> 8) as usize % banks.len()];
                        let page = (a >> 12) % len.div_ceil(PAGE_WORDS);
                        let page_len = (len - page * PAGE_WORDS).min(PAGE_WORDS);
                        let addr = base + page * PAGE_WORDS + (b >> 16) % page_len.min(4);
                        let value = if b & 1 == 0 { 0 } else { b };
                        let (m, model) = &mut live[at];
                        if kind == 0 {
                            m.poke(addr, value).unwrap();
                        } else {
                            m.write(addr, value).unwrap();
                        }
                        let (w, p) = locate(&map, addr);
                        model.words[w] = value;
                        model.touched[p] = true;
                        for (m, model) in &live {
                            prop_assert_eq!(m.peek(addr).unwrap(), model.words[w]);
                        }
                    }
                    5 => {
                        let (m, model) = &mut live[at];
                        let child = (m.fork(), model.clone());
                        live.push(child);
                    }
                    6 => {
                        let child = live[at].clone();
                        live.push(child);
                    }
                    _ if live.len() > 1 => {
                        live.swap_remove(at);
                    }
                    _ => {}
                }
                if live.len() > 5 {
                    live.remove(0);
                }
            }
            for (m, model) in &live {
                check(m, model);
            }
        }
    }

    #[test]
    fn a_fork_copies_only_the_chunks_and_pages_written_after_it() {
        // The same stores on the default map and on one with 16 times the
        // L3: the table work a fork leaves behind does not grow with the
        // memory, and neither does a fresh memory's set of chunks.
        let work = |l3_words: u32| {
            let mut m = Memory::new(MemoryMap {
                l3_words,
                ..MemoryMap::default()
            });
            let fresh: std::collections::HashSet<usize> = m.chunk_ids().collect();
            for a in [L1_BASE, L2_BASE + 5, L3_BASE + 7, L3_BASE + CHUNK_WORDS] {
                m.write(a, 1).unwrap();
            }
            let before = m.work();
            let mut child = m.fork();
            // Two pages of one chunk, then a page of a chunk never
            // written before the fork.
            child.write(L3_BASE + 7, 2).unwrap();
            child.write(L3_BASE + PAGE_WORDS, 3).unwrap();
            child.write(L3_BASE + 5 * CHUNK_WORDS, 4).unwrap();
            m.write(L2_BASE + 5, 5).unwrap();
            let w = |m: &Memory| {
                let w = m.work();
                (
                    w.chunks_copied - before.chunks_copied,
                    w.pages_copied - before.pages_copied,
                )
            };
            (fresh.len(), before, w(&child), w(&m))
        };
        let small = work(MemoryMap::default().l3_words);
        assert_eq!(small, work(16 * MemoryMap::default().l3_words));
        // Two partial L1 chunks and the zero chunk; four stores into
        // four chunks before the fork; then two chunks and three pages in
        // the child and one of each in the parent.
        assert_eq!(
            small,
            (
                3,
                MemoryWork {
                    chunks_copied: 4,
                    pages_copied: 4
                },
                (2, 3),
                (1, 1)
            )
        );
    }
}
