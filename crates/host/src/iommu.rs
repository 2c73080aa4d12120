//! IOMMU with IO-TLB and page-walk cost model.
//!
//! Every inbound DMA address is translated. Translations hit a small,
//! fully-associative, LRU IO-TLB; misses pay a multi-level page-table
//! walk and occupy the (finitely parallel) page-walk machinery. The
//! paper infers an IO-TLB of 64 entries on Intel systems (window knee
//! at 64 × 4 KiB = 256 KiB) and a walk cost of ≈ 330 ns (§6.5); both
//! are parameters here, as is the page size — the paper forces 4 KiB
//! pages with `sp_off`, and recommends super-pages (2 MiB) as the
//! mitigation, which this model also supports.
//!
//! The IO-TLB is looked up once per page of every translated TLP, so
//! each lookup is O(1) whatever the capacity:
//!
//! * `tlb_entries` fixed slots, each holding `(domain, page)` and the
//!   links of an intrusive recency list: most recently used at the
//!   head, the LRU victim at the tail. A hit moves its slot to the
//!   head; a miss takes a free slot or evicts the tail. Unused slots
//!   are chained on a free list through the same `next` link.
//! * An open-addressed index from `(domain, page)` to slot, linear
//!   probing over a power-of-two table at most half full. Evictions
//!   and flushes delete with backward shift, so probes never need
//!   tombstones.
//!
//! This is exact LRU: it makes the same hit, miss and eviction
//! decisions as scanning the entries for the least recent use.
//! `lru_index_matches_linear_scan_reference` pins it against that scan.

use pcie_sim::{SimTime, Timeline};

/// Result of one translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// When the translated request may proceed.
    pub ready_at: SimTime,
    /// Whether the IO-TLB hit.
    pub tlb_hit: bool,
}

/// IOMMU statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IommuStats {
    /// IO-TLB hits.
    pub tlb_hits: u64,
    /// IO-TLB misses (page walks).
    pub tlb_misses: u64,
    /// Misses that displaced a live entry (the TLB was full) — the
    /// §6.5 contention signal: a lone device sweeping a working set
    /// that fits the TLB never evicts, co-located devices do.
    pub tlb_evictions: u64,
}

/// Largest IO-TLB capacity [`Iommu::new`] accepts (slot numbers and
/// the index stay within `u32`).
pub const MAX_TLB_ENTRIES: usize = 1 << 24;

/// "No slot": an empty index cell, or the end of a list.
const NIL: u32 = u32::MAX;

/// One IO-TLB entry plus its recency-list links.
#[derive(Debug, Clone, Copy)]
struct Slot {
    page: u64,
    domain: u32,
    /// Towards the head (more recently used).
    prev: u32,
    /// Towards the tail (less recently used); the free-list link while
    /// the slot is unused.
    next: u32,
}

/// The IO-TLB: exact LRU over fixed slots (see the module docs).
#[derive(Debug, Clone)]
struct IoTlb {
    slots: Vec<Slot>,
    /// Slot numbers by hash of `(domain, page)`, [`NIL`] when empty.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the hash keeps its top bits.
    shift: u32,
    head: u32,
    tail: u32,
    free: u32,
}

impl IoTlb {
    fn new(entries: usize) -> Self {
        let index_len = (2 * entries).next_power_of_two();
        let mut tlb = IoTlb {
            slots: vec![
                Slot {
                    page: 0,
                    domain: 0,
                    prev: NIL,
                    next: NIL,
                };
                entries
            ],
            index: vec![NIL; index_len],
            shift: 64 - index_len.trailing_zeros(),
            head: NIL,
            tail: NIL,
            free: NIL,
        };
        tlb.clear();
        tlb
    }

    /// Empties the TLB: every slot back on the free list.
    fn clear(&mut self) {
        self.index.fill(NIL);
        let n = self.slots.len() as u32;
        for (i, s) in self.slots.iter_mut().enumerate() {
            s.next = if i as u32 + 1 < n { i as u32 + 1 } else { NIL };
        }
        self.free = 0;
        self.head = NIL;
        self.tail = NIL;
    }

    fn home(&self, domain: u32, page: u64) -> usize {
        let key = page ^ (u64::from(domain) << 40);
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    /// The slot holding `(domain, page)`, if resident.
    fn find(&self, domain: u32, page: u64) -> Option<u32> {
        let mut i = self.home(domain, page);
        loop {
            let s = self.index[i];
            if s == NIL {
                return None;
            }
            let e = &self.slots[s as usize];
            if e.page == page && e.domain == domain {
                return Some(s);
            }
            i = (i + 1) & self.mask();
        }
    }

    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_head(&mut self, s: u32) {
        let old = self.head;
        let e = &mut self.slots[s as usize];
        e.prev = NIL;
        e.next = old;
        match old {
            NIL => self.tail = s,
            h => self.slots[h as usize].prev = s,
        }
        self.head = s;
    }

    /// Marks resident slot `s` most recently used.
    fn touch(&mut self, s: u32) {
        if self.head != s {
            self.unlink(s);
            self.push_head(s);
        }
    }

    /// Installs `(domain, page)` (not resident) as most recently used,
    /// evicting the LRU entry when no slot is free. Returns whether it
    /// evicted.
    fn insert(&mut self, domain: u32, page: u64) -> bool {
        let evicted = self.free == NIL;
        let s = if evicted {
            let victim = self.tail;
            self.remove(victim);
            victim
        } else {
            let s = self.free;
            self.free = self.slots[s as usize].next;
            s
        };
        let mut i = self.home(domain, page);
        while self.index[i] != NIL {
            i = (i + 1) & self.mask();
        }
        self.index[i] = s;
        let e = &mut self.slots[s as usize];
        e.domain = domain;
        e.page = page;
        self.push_head(s);
        evicted
    }

    /// Unlinks resident slot `s` and deletes it from the index by
    /// backward shift: later members of its probe run move up into the
    /// hole unless that would place them before their home cell. The
    /// slot is not put on the free list.
    fn remove(&mut self, s: u32) {
        self.unlink(s);
        let e = self.slots[s as usize];
        let mask = self.mask();
        let mut hole = self.home(e.domain, e.page);
        while self.index[hole] != s {
            hole = (hole + 1) & mask;
        }
        let mut i = (hole + 1) & mask;
        loop {
            let t = self.index[i];
            if t == NIL {
                break;
            }
            let te = &self.slots[t as usize];
            let home = self.home(te.domain, te.page);
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.index[hole] = t;
                hole = i;
            }
            i = (i + 1) & mask;
        }
        self.index[hole] = NIL;
    }

    /// Drops every entry of `domain`; the others keep their recency
    /// order.
    fn flush_domain(&mut self, domain: u32) {
        let mut s = self.head;
        while s != NIL {
            let next = self.slots[s as usize].next;
            if self.slots[s as usize].domain == domain {
                self.remove(s);
                self.slots[s as usize].next = self.free;
                self.free = s;
            }
            s = next;
        }
    }
}

/// The IOMMU model.
#[derive(Debug, Clone)]
pub struct Iommu {
    page_size: u64,
    tlb_entries: usize,
    walk_latency: SimTime,
    walker_gap: SimTime,
    hit_latency: SimTime,
    /// The IO-TLB is shared between all devices/domains behind the
    /// IOMMU — the paper's §9 asks exactly whether entries are shared;
    /// on Intel parts they are, so co-located devices evict each other.
    tlb: IoTlb,
    walker: Timeline,
    stats: IommuStats,
}

impl Iommu {
    /// Builds an IOMMU. See the accessors for parameter meanings.
    ///
    /// # Panics
    /// Unless `page_size` is a power of two of at least 4 KiB and
    /// `tlb_entries` is in `1..=`[`MAX_TLB_ENTRIES`].
    pub fn new(
        page_size: u64,
        tlb_entries: usize,
        walk_latency: SimTime,
        walker_gap: SimTime,
        hit_latency: SimTime,
    ) -> Self {
        assert!(page_size.is_power_of_two() && page_size >= 4096);
        assert!((1..=MAX_TLB_ENTRIES).contains(&tlb_entries));
        Iommu {
            page_size,
            tlb_entries,
            walk_latency,
            walker_gap,
            hit_latency,
            tlb: IoTlb::new(tlb_entries),
            walker: Timeline::new(),
            stats: IommuStats::default(),
        }
    }

    /// Intel-like defaults with 4 KiB pages (the paper's `sp_off`
    /// configuration): 64-entry IO-TLB, 330 ns walks.
    pub fn intel_4k() -> Self {
        Iommu::new(
            4096,
            64,
            SimTime::from_ns(330),
            SimTime::from_ns(45),
            SimTime::from_ns(2),
        )
    }

    /// The same IOMMU with 2 MiB super-pages — the paper's recommended
    /// mitigation (§7): the IO-TLB then covers 128 MiB.
    pub fn intel_superpages() -> Self {
        Iommu::new(
            2 * 1024 * 1024,
            64,
            SimTime::from_ns(330),
            SimTime::from_ns(45),
            SimTime::from_ns(2),
        )
    }

    /// Page size used for mappings (4 KiB with `sp_off`, 2 MiB with
    /// super-pages).
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// IO-TLB capacity in entries (Intel: 64, inferred in §6.5).
    pub fn tlb_entries(&self) -> usize {
        self.tlb_entries
    }

    /// Latency of a full page-table walk (≈ 330 ns, §6.5).
    pub fn walk_latency(&self) -> SimTime {
        self.walk_latency
    }

    /// Minimum spacing between walks through the walk machinery —
    /// models the finite number of concurrent walkers.
    pub fn walker_gap(&self) -> SimTime {
        self.walker_gap
    }

    /// Cost of a TLB hit.
    pub fn hit_latency(&self) -> SimTime {
        self.hit_latency
    }

    /// Address range covered by the IO-TLB.
    pub fn tlb_reach(&self) -> u64 {
        self.page_size * self.tlb_entries as u64
    }

    /// Translates the access `[addr, addr+len)` at time `now`, in the
    /// default domain (single-device setups).
    pub fn translate(&mut self, now: SimTime, addr: u64, len: u32) -> Translation {
        self.translate_in(now, 0, addr, len)
    }

    /// Translates within an explicit protection `domain` (one per
    /// device function). Accesses spanning a page boundary require all
    /// translations; the returned time covers them in sequence.
    pub fn translate_in(&mut self, now: SimTime, domain: u32, addr: u64, len: u32) -> Translation {
        let first = addr / self.page_size;
        let last = (addr + len.max(1) as u64 - 1) / self.page_size;
        let mut ready = now;
        let mut all_hit = true;
        for page in first..=last {
            let t = self.translate_page(ready, domain, page);
            ready = t.ready_at;
            all_hit &= t.tlb_hit;
        }
        Translation {
            ready_at: ready,
            tlb_hit: all_hit,
        }
    }

    fn translate_page(&mut self, now: SimTime, domain: u32, page: u64) -> Translation {
        if let Some(s) = self.tlb.find(domain, page) {
            self.tlb.touch(s);
            self.stats.tlb_hits += 1;
            return Translation {
                ready_at: now + self.hit_latency,
                tlb_hit: true,
            };
        }
        // Miss: occupy the walker, pay the walk latency, install entry.
        self.stats.tlb_misses += 1;
        let res = self.walker.reserve(now, self.walker_gap);
        let ready = res.start + self.walk_latency;
        if self.tlb.insert(domain, page) {
            self.stats.tlb_evictions += 1;
        }
        Translation {
            ready_at: ready,
            tlb_hit: false,
        }
    }

    /// Invalidates every IO-TLB entry of `domain` (an unmap /
    /// domain-flush, as an OS IOMMU driver issues). O(entries); the
    /// surviving entries keep their LRU order.
    pub fn flush_domain(&mut self, domain: u32) {
        self.tlb.flush_domain(domain);
    }

    /// Statistics so far.
    pub fn stats(&self) -> IommuStats {
        self.stats
    }

    /// Flushes the IO-TLB and clears statistics/queueing.
    pub fn reset(&mut self) {
        self.tlb.clear();
        self.stats = IommuStats::default();
        self.walker.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut m = Iommu::intel_4k();
        let t0 = m.translate(SimTime::ZERO, 0x1000, 64);
        assert!(!t0.tlb_hit);
        assert_eq!(t0.ready_at, SimTime::from_ns(330));
        let t1 = m.translate(SimTime::ZERO, 0x1040, 64);
        assert!(t1.tlb_hit, "same page");
        assert_eq!(t1.ready_at, SimTime::from_ns(2));
    }

    #[test]
    fn capacity_is_64_pages() {
        let mut m = Iommu::intel_4k();
        assert_eq!(m.tlb_reach(), 256 * 1024); // the paper's 256KiB knee
                                               // Touch 64 distinct pages, then re-touch: all hits.
        for p in 0..64u64 {
            m.translate(SimTime::ZERO, p * 4096, 8);
        }
        let mut t = SimTime::ZERO;
        for p in 0..64u64 {
            let tr = m.translate(t, p * 4096, 8);
            assert!(tr.tlb_hit, "page {p}");
            t = tr.ready_at;
        }
        // 65th page evicts; a sweep over 65 pages re-misses everything.
        m.reset();
        for _round in 0..3 {
            for p in 0..65u64 {
                m.translate(SimTime::ZERO, p * 4096, 8);
            }
        }
        let s = m.stats();
        assert_eq!(s.tlb_hits, 0, "LRU + sequential sweep = pathological");
        assert_eq!(s.tlb_misses, 3 * 65);
    }

    #[test]
    fn page_spanning_access_translates_twice() {
        let mut m = Iommu::intel_4k();
        let t = m.translate(SimTime::ZERO, 4096 - 32, 64);
        assert!(!t.tlb_hit);
        assert_eq!(m.stats().tlb_misses, 2);
    }

    #[test]
    fn superpages_extend_reach() {
        let mut m = Iommu::intel_superpages();
        assert_eq!(m.tlb_reach(), 128 * 1024 * 1024);
        // A 64 MiB working set fits: after the first sweep, all hits.
        let window = 64 * 1024 * 1024u64;
        let step = 2 * 1024 * 1024u64;
        for a in (0..window).step_by(step as usize) {
            m.translate(SimTime::ZERO, a, 64);
        }
        for a in (0..window).step_by(step as usize) {
            assert!(m.translate(SimTime::ZERO, a, 64).tlb_hit);
        }
    }

    #[test]
    fn walker_serialises_bursts() {
        let mut m = Iommu::intel_4k();
        // 10 misses arriving simultaneously: the k-th starts k*gap later.
        let mut last = SimTime::ZERO;
        for p in 0..10u64 {
            let t = m.translate(SimTime::ZERO, p * 4096, 8);
            assert!(t.ready_at > last);
            last = t.ready_at;
        }
        let expect = SimTime::from_ns(9 * 45 + 330);
        assert_eq!(last, expect);
    }

    /// The IO-TLB as a `Vec` of `(domain, page, lru_stamp)`, scanned
    /// on every lookup with the victim picked by `min_by_key` on the
    /// stamp: the model the O(1) structure replaced, kept as its
    /// reference.
    struct LinearScan {
        page_size: u64,
        entries: usize,
        tlb: Vec<(u32, u64, u64)>,
        stamp: u64,
        walker: Timeline,
        stats: IommuStats,
    }

    impl LinearScan {
        fn translate_in(&mut self, now: SimTime, domain: u32, addr: u64, len: u32) -> Translation {
            let first = addr / self.page_size;
            let last = (addr + len.max(1) as u64 - 1) / self.page_size;
            let mut ready = now;
            let mut all_hit = true;
            for page in first..=last {
                self.stamp += 1;
                let stamp = self.stamp;
                if let Some(e) = self
                    .tlb
                    .iter_mut()
                    .find(|(d, p, _)| *d == domain && *p == page)
                {
                    e.2 = stamp;
                    self.stats.tlb_hits += 1;
                    ready = ready + SimTime::from_ns(2);
                    continue;
                }
                all_hit = false;
                self.stats.tlb_misses += 1;
                ready =
                    self.walker.reserve(ready, SimTime::from_ns(45)).start + SimTime::from_ns(330);
                if self.tlb.len() < self.entries {
                    self.tlb.push((domain, page, stamp));
                } else {
                    self.stats.tlb_evictions += 1;
                    let victim = self.tlb.iter_mut().min_by_key(|e| e.2).unwrap();
                    *victim = (domain, page, stamp);
                }
            }
            Translation {
                ready_at: ready,
                tlb_hit: all_hit,
            }
        }

        fn flush_domain(&mut self, domain: u32) {
            self.tlb.retain(|(d, _, _)| *d != domain);
        }
    }

    #[test]
    fn lru_index_matches_linear_scan_reference() {
        use pcie_sim::SplitMix64;
        for entries in [1usize, 2, 64, 512] {
            for domains in 1..=4u32 {
                let mut fast = Iommu::new(
                    4096,
                    entries,
                    SimTime::from_ns(330),
                    SimTime::from_ns(45),
                    SimTime::from_ns(2),
                );
                let mut reference = LinearScan {
                    page_size: 4096,
                    entries,
                    tlb: Vec::new(),
                    stamp: 0,
                    walker: Timeline::new(),
                    stats: IommuStats::default(),
                };
                let mut rng = SplitMix64::new(entries as u64 * 31 + u64::from(domains));
                // A working set around 1.5× the capacity: hits, misses
                // and evictions all occur.
                let pages = (entries as u64 * 3 / 2).max(2);
                let mut now = SimTime::ZERO;
                for step in 0..20_000 {
                    let domain = rng.next_below(u64::from(domains)) as u32;
                    if rng.chance(0.005) {
                        fast.flush_domain(domain);
                        reference.flush_domain(domain);
                        continue;
                    }
                    let addr = rng.next_below(pages) * 4096 + rng.next_below(4096);
                    let len = rng.next_below(9000) as u32;
                    now = now + SimTime::from_ns(rng.next_below(200));
                    let got = fast.translate_in(now, domain, addr, len);
                    let want = reference.translate_in(now, domain, addr, len);
                    assert_eq!(
                        got, want,
                        "entries {entries}, domains {domains}, step {step}"
                    );
                }
                let stats = fast.stats();
                assert_eq!(
                    stats, reference.stats,
                    "entries {entries}, domains {domains}"
                );
                assert!(stats.tlb_hits > 0 && stats.tlb_evictions > 0, "{stats:?}");
            }
        }
    }

    #[test]
    fn zero_len_translates_one_page() {
        let mut m = Iommu::intel_4k();
        m.translate(SimTime::ZERO, 0, 0);
        assert_eq!(m.stats().tlb_misses, 1);
    }
}
