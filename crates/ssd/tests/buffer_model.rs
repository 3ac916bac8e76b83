//! Model-based property test for the stamp-indexed [`ssd::DataBuffer`] LRU.
//!
//! The reference model is the original list-scan buffer: a `VecDeque` LRU
//! order refreshed with `position()` on every touch, and eviction by
//! scanning for the oldest clean page. The model and the real buffer are
//! driven through the same seeded [`simkit::DetRng`] sequences of `write`,
//! `read`, `fill`, `mark_clean` and `crash` at capacities 1–8; hits and
//! misses, page contents, eviction counts, occupancy and the
//! oldest-first `dirty_pages()` order must match after every step.

use simkit::bytes::Bytes;
use simkit::{Bandwidth, DetRng, SimTime};
use ssd::DataBuffer;
use std::collections::{HashMap, VecDeque};

/// The reference model: linear scans over one LRU list of every cached
/// page — trivially correct, quadratic over a long write.
struct NaiveBuffer {
    capacity: usize,
    slots: HashMap<u64, (Bytes, bool)>,
    lru: VecDeque<u64>,
    evictions: u64,
    hits: u64,
    misses: u64,
}

impl NaiveBuffer {
    fn new(capacity: usize) -> Self {
        NaiveBuffer {
            capacity,
            slots: HashMap::new(),
            lru: VecDeque::new(),
            evictions: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn touch(&mut self, lpn: u64) {
        if let Some(pos) = self.lru.iter().position(|l| *l == lpn) {
            self.lru.remove(pos);
        }
        self.lru.push_back(lpn);
    }

    fn evict(&mut self) {
        while self.slots.len() > self.capacity {
            let victim = self.lru.iter().position(|l| !self.slots[l].1);
            let Some(pos) = victim else { break };
            let lpn = self.lru.remove(pos).expect("position valid");
            self.slots.remove(&lpn);
            self.evictions += 1;
        }
    }

    fn write(&mut self, lpn: u64, data: Bytes) {
        self.touch(lpn);
        self.slots.insert(lpn, (data, true));
        self.evict();
    }

    fn fill(&mut self, lpn: u64, data: Bytes) {
        self.touch(lpn);
        self.slots.insert(lpn, (data, false));
        self.evict();
    }

    fn read(&mut self, lpn: u64) -> Option<Bytes> {
        match self.slots.get(&lpn) {
            Some((data, _)) => {
                let data = data.clone();
                self.touch(lpn);
                self.hits += 1;
                Some(data)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn mark_clean(&mut self, lpn: u64) {
        if let Some(slot) = self.slots.get_mut(&lpn) {
            slot.1 = false;
        }
        self.evict();
    }

    fn crash(&mut self) {
        self.slots.clear();
        self.lru.clear();
    }

    fn dirty_pages(&self) -> Vec<u64> {
        self.lru.iter().filter(|l| self.slots[*l].1).copied().collect()
    }
}

/// Drive both buffers through `steps` random operations over a small
/// address space (so pages collide, re-touch and evict often).
fn run(seed: u64, capacity: usize, steps: usize) {
    let mut rng = DetRng::new(seed);
    let mut real = DataBuffer::new(capacity, 16, Bandwidth::gbytes_per_sec(2.0));
    let mut model = NaiveBuffer::new(capacity);
    let lpns = capacity as u64 * 2 + 2;
    for step in 0..steps {
        let lpn = rng.uniform(0, lpns - 1);
        let ctx = format!("seed {seed:#x} capacity {capacity} step {step}");
        match rng.uniform(0, 99) {
            0..=29 => {
                let data = Bytes::from(vec![step as u8; 16]);
                real.write(SimTime::ZERO, lpn, data.clone());
                model.write(lpn, data);
            }
            30..=54 => {
                let got = real.read(SimTime::ZERO, lpn).map(|(d, _)| d);
                assert_eq!(got, model.read(lpn), "read hit/miss and content: {ctx}");
            }
            55..=74 => {
                let data = Bytes::from(vec![!(step as u8); 16]);
                real.fill(SimTime::ZERO, lpn, data.clone());
                model.fill(lpn, data);
            }
            75..=97 => {
                // Mostly clean a page the flusher would pick (the oldest
                // dirty one); sometimes an arbitrary, possibly absent, page.
                let target = if rng.chance(0.7) {
                    model.dirty_pages().first().copied().unwrap_or(lpn)
                } else {
                    lpn
                };
                real.mark_clean(target);
                model.mark_clean(target);
            }
            _ => {
                real.crash();
                model.crash();
            }
        }
        let stats = real.stats();
        assert_eq!(stats.read_hits, model.hits, "hits: {ctx}");
        assert_eq!(stats.read_misses, model.misses, "misses: {ctx}");
        assert_eq!(stats.evictions, model.evictions, "evictions: {ctx}");
        assert_eq!(real.occupancy(), model.slots.len(), "occupancy: {ctx}");
        let dirty = model.dirty_pages();
        assert_eq!(real.dirty_pages(), dirty, "dirty order: {ctx}");
        assert_eq!(real.dirty_count(), dirty.len(), "dirty count: {ctx}");
        for l in 0..lpns {
            assert_eq!(real.peek(l), model.slots.get(&l).map(|s| s.0.clone()), "peek {l}: {ctx}");
        }
    }
}

#[test]
fn stamp_indexed_lru_matches_list_scan_model() {
    for capacity in 1..=8 {
        for seed in 0..8u64 {
            run(0xB0FF_0000 + seed * 16 + capacity as u64, capacity, 2_000);
        }
    }
}

#[test]
fn long_dirty_write_then_clean_matches_model() {
    // The checkpoint shape: a long run of dirty writes past capacity,
    // then the flusher cleaning them oldest-first, then re-reads.
    let capacity = 8;
    let mut real = DataBuffer::new(capacity, 16, Bandwidth::gbytes_per_sec(2.0));
    let mut model = NaiveBuffer::new(capacity);
    let page = Bytes::from(vec![7u8; 16]);
    for lpn in 0..64 {
        real.write(SimTime::ZERO, lpn, page.clone());
        model.write(lpn, page.clone());
    }
    assert_eq!(real.dirty_pages(), model.dirty_pages());
    for lpn in 0..64 {
        real.mark_clean(lpn);
        model.mark_clean(lpn);
        assert_eq!(real.stats().evictions, model.evictions, "after cleaning {lpn}");
    }
    for lpn in 0..64 {
        let got = real.read(SimTime::ZERO, lpn).map(|(d, _)| d);
        assert_eq!(got, model.read(lpn), "lpn {lpn}");
    }
    assert_eq!(real.occupancy(), capacity);
    assert_eq!(real.stats().evictions, model.evictions);
}
