//! Generic set-associative tag array with true-LRU replacement.

use suv_types::{CacheGeom, LineAddr, LINE_SHIFT};

/// One resident line.
#[derive(Debug, Clone)]
struct Way<M> {
    line: LineAddr,
    dirty: bool,
    /// LRU stamp: larger = more recently used.
    lru: u64,
    meta: M,
}

/// A line evicted to make room.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction<M> {
    /// Address of the evicted line.
    pub line: LineAddr,
    /// Whether it was dirty (needs write-back).
    pub dirty: bool,
    /// Its per-line metadata at eviction time.
    pub meta: M,
}

/// Set-associative tag array, generic over per-line metadata `M`.
#[derive(Debug, Clone)]
pub struct TagArray<M> {
    sets: Vec<Vec<Way<M>>>,
    ways: usize,
    set_mask: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<M: Clone + Default> TagArray<M> {
    /// Build from a geometry. The set count must be a power of two.
    pub fn new(geom: &CacheGeom) -> Self {
        let sets = geom.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two, got {sets}");
        TagArray {
            sets: (0..sets).map(|_| Vec::with_capacity(geom.ways)).collect(),
            ways: geom.ways,
            set_mask: sets as u64 - 1,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        ((line >> LINE_SHIFT) & self.set_mask) as usize
    }

    /// The set index a line maps to (exposed for SUV's entry encoding,
    /// which stores "L1 cache set index bits" in redirect entries).
    pub fn set_index(&self, line: LineAddr) -> usize {
        self.set_of(line)
    }

    /// Is the line resident?
    pub fn contains(&self, line: LineAddr) -> bool {
        let s = self.set_of(line);
        self.sets[s].iter().any(|w| w.line == line)
    }

    /// Touch the line (LRU update). Returns true on hit. Counts hit/miss.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        self.hit_load(line).is_some()
    }

    /// Service a load hit in one set scan: LRU touch plus metadata access.
    /// Counts hit/miss exactly as [`TagArray::touch`] does.
    pub fn hit_load(&mut self, line: LineAddr) -> Option<&mut M> {
        self.tick += 1;
        let tick = self.tick;
        let s = self.set_of(line);
        if let Some(w) = self.sets[s].iter_mut().find(|w| w.line == line) {
            w.lru = tick;
            self.hits += 1;
            Some(&mut w.meta)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Service a store hit in one set scan: LRU touch, dirty mark, and
    /// metadata access (replaces a `touch` + `meta_mut` + `mark_dirty`
    /// triple scan on the hottest cache path). Counts hit/miss.
    pub fn hit_store(&mut self, line: LineAddr) -> Option<&mut M> {
        self.tick += 1;
        let tick = self.tick;
        let s = self.set_of(line);
        if let Some(w) = self.sets[s].iter_mut().find(|w| w.line == line) {
            w.lru = tick;
            w.dirty = true;
            self.hits += 1;
            Some(&mut w.meta)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Clear a resident line's dirty bit and report whether it was dirty,
    /// in one set scan (replaces an `is_dirty` + `clean` pair). A
    /// non-resident line reports `false`.
    pub fn take_dirty(&mut self, line: LineAddr) -> bool {
        let s = self.set_of(line);
        match self.sets[s].iter_mut().find(|w| w.line == line) {
            Some(w) => std::mem::replace(&mut w.dirty, false),
            None => false,
        }
    }

    /// Insert (or touch) the line; returns the eviction needed to make
    /// room, if any. `dirty` ORs into the line's dirty bit.
    pub fn insert(&mut self, line: LineAddr, dirty: bool) -> Option<Eviction<M>> {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        let s = self.set_of(line);
        let set = &mut self.sets[s];
        if let Some(w) = set.iter_mut().find(|w| w.line == line) {
            w.lru = tick;
            w.dirty |= dirty;
            return None;
        }
        let evicted = if set.len() == ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("non-empty full set");
            let w = set.swap_remove(victim);
            Some(Eviction { line: w.line, dirty: w.dirty, meta: w.meta })
        } else {
            None
        };
        set.push(Way { line, dirty, lru: tick, meta: M::default() });
        evicted
    }

    /// Remove a line (coherence invalidation). Returns its metadata and
    /// dirty bit if it was resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<(bool, M)> {
        let s = self.set_of(line);
        let set = &mut self.sets[s];
        if let Some(i) = set.iter().position(|w| w.line == line) {
            let w = set.swap_remove(i);
            Some((w.dirty, w.meta))
        } else {
            None
        }
    }

    /// Mark a resident line dirty. Returns false if not resident.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        let s = self.set_of(line);
        match self.sets[s].iter_mut().find(|w| w.line == line) {
            Some(w) => {
                w.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Clear a resident line's dirty bit (after write-back).
    pub fn clean(&mut self, line: LineAddr) -> bool {
        let s = self.set_of(line);
        match self.sets[s].iter_mut().find(|w| w.line == line) {
            Some(w) => {
                w.dirty = false;
                true
            }
            None => false,
        }
    }

    /// Is the line resident and dirty?
    pub fn is_dirty(&self, line: LineAddr) -> bool {
        let s = self.set_of(line);
        self.sets[s].iter().any(|w| w.line == line && w.dirty)
    }

    /// Mutable metadata access for a resident line.
    pub fn meta_mut(&mut self, line: LineAddr) -> Option<&mut M> {
        let s = self.set_of(line);
        self.sets[s].iter_mut().find(|w| w.line == line).map(|w| &mut w.meta)
    }

    /// Metadata access for a resident line.
    pub fn meta(&self, line: LineAddr) -> Option<&M> {
        let s = self.set_of(line);
        self.sets[s].iter().find(|w| w.line == line).map(|w| &w.meta)
    }

    /// Iterate over all resident lines with their metadata.
    pub fn resident(&self) -> impl Iterator<Item = (LineAddr, &M)> + '_ {
        self.sets.iter().flat_map(|s| s.iter().map(|w| (w.line, &w.meta)))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(std::vec::Vec::len).sum()
    }

    /// True when no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) recorded by [`TagArray::touch`].
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suv_types::CacheGeom;

    fn small() -> TagArray<()> {
        // 4 sets x 2 ways.
        TagArray::new(&CacheGeom { capacity_bytes: 512, ways: 2, line_bytes: 64, latency: 1 })
    }

    #[test]
    fn hit_and_miss() {
        let mut c = small();
        assert!(!c.touch(0x0));
        c.insert(0x0, false);
        assert!(c.touch(0x0));
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Lines 0x000, 0x100, 0x200 all map to set 0 (4 sets * 64B = stride 0x100).
        assert!(c.insert(0x000, false).is_none());
        assert!(c.insert(0x100, false).is_none());
        c.touch(0x000); // make 0x100 the LRU way
        let ev = c.insert(0x200, true).expect("eviction");
        assert_eq!(ev.line, 0x100);
        assert!(!ev.dirty);
        assert!(c.contains(0x000));
        assert!(c.contains(0x200));
    }

    #[test]
    fn dirty_propagates_to_eviction() {
        let mut c = small();
        c.insert(0x000, false);
        assert!(c.mark_dirty(0x000));
        c.insert(0x100, false);
        let ev = c.insert(0x200, false).expect("eviction");
        assert_eq!(ev.line, 0x000);
        assert!(ev.dirty, "dirty bit must survive to eviction");
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.insert(0x40, true);
        let (dirty, ()) = c.invalidate(0x40).expect("resident");
        assert!(dirty);
        assert!(!c.contains(0x40));
        assert!(c.invalidate(0x40).is_none());
    }

    #[test]
    fn clean_clears_dirty() {
        let mut c = small();
        c.insert(0x40, true);
        assert!(c.is_dirty(0x40));
        assert!(c.clean(0x40));
        assert!(!c.is_dirty(0x40));
    }

    #[test]
    fn metadata_per_line() {
        let mut c: TagArray<u32> =
            TagArray::new(&CacheGeom { capacity_bytes: 512, ways: 2, line_bytes: 64, latency: 1 });
        c.insert(0x80, false);
        *c.meta_mut(0x80).unwrap() = 7;
        assert_eq!(c.meta(0x80), Some(&7));
        assert_eq!(c.meta(0xc0), None);
        // Re-inserting an already-resident line keeps its metadata.
        c.insert(0x80, true);
        assert_eq!(c.meta(0x80), Some(&7));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = small();
        for i in 0..4u64 {
            assert!(c.insert(i * 64, false).is_none());
        }
        assert_eq!(c.len(), 4);
        for i in 0..4u64 {
            assert!(c.contains(i * 64));
        }
    }

    #[test]
    fn hit_store_is_touch_plus_dirty_plus_meta() {
        let mut c: TagArray<u32> =
            TagArray::new(&CacheGeom { capacity_bytes: 512, ways: 2, line_bytes: 64, latency: 1 });
        assert!(c.hit_store(0x40).is_none(), "miss counted");
        c.insert(0x40, false);
        *c.hit_store(0x40).expect("resident") = 9;
        assert!(c.is_dirty(0x40));
        assert_eq!(c.meta(0x40), Some(&9));
        assert_eq!(c.hit_stats(), (1, 1));
        // LRU is refreshed: after a newer line joins the set, a store hit
        // on 0x40 makes 0x140 the LRU way again.
        c.insert(0x140, false);
        c.hit_store(0x40);
        let ev = c.insert(0x240, false).expect("eviction");
        assert_eq!(ev.line, 0x140, "hit_store must refresh LRU");
    }

    #[test]
    fn take_dirty_clears_and_reports() {
        let mut c = small();
        assert!(!c.take_dirty(0x40), "non-resident is not dirty");
        c.insert(0x40, true);
        assert!(c.take_dirty(0x40));
        assert!(!c.is_dirty(0x40));
        assert!(!c.take_dirty(0x40), "second take sees a clean line");
        assert!(c.contains(0x40), "take_dirty must not evict");
    }

    #[test]
    fn paper_l1_geometry() {
        let c: TagArray<()> = TagArray::new(&CacheGeom::l1_default());
        assert_eq!(c.set_index(0x0), 0);
        // 128 sets: set index bits are addr[12:6].
        assert_eq!(c.set_index(64), 1);
        assert_eq!(c.set_index(127 * 64), 127);
        assert_eq!(c.set_index(128 * 64), 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use suv_types::CacheGeom;

    proptest! {
        /// Residency never exceeds capacity, and a just-inserted line is
        /// always resident.
        #[test]
        fn capacity_invariant(lines in proptest::collection::vec(0u64..64, 1..500)) {
            let geom = CacheGeom { capacity_bytes: 1024, ways: 2, line_bytes: 64, latency: 1 };
            let mut c: TagArray<()> = TagArray::new(&geom);
            for l in lines {
                let line = l * 64;
                c.insert(line, false);
                prop_assert!(c.contains(line));
                prop_assert!(c.len() <= geom.lines());
            }
        }

        /// The most recently used line in a set is never the one evicted.
        #[test]
        fn mru_survives(lines in proptest::collection::vec(0u64..32, 2..200)) {
            let geom = CacheGeom { capacity_bytes: 512, ways: 2, line_bytes: 64, latency: 1 };
            let mut c: TagArray<()> = TagArray::new(&geom);
            let mut last: Option<u64> = None;
            for l in lines {
                let line = l * 64;
                if let Some(ev) = c.insert(line, false) {
                    if let Some(prev) = last {
                        prop_assert_ne!(ev.line, prev, "evicted the MRU line");
                    }
                }
                last = Some(line);
            }
        }
    }
}
