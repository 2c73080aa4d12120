//! Dense per-flow state, sized for millions of concurrent flows.
//!
//! The engine tracks one compact record per live flow — 4-tuple,
//! packets remaining, steered queue — in one preallocated dense
//! array of live records. A flow's id is its current index in that
//! array: insert pushes, a uniform sample ("which flow does the next
//! packet belong to?") is one random index, and completion is an O(1)
//! `swap_remove` that moves the last record into the hole. Every
//! operation touches one record, and nothing on the per-packet path
//! allocates: at 10⁶–10⁷ flows a per-packet `HashMap` or `Box` would
//! dominate the generator's cost and wreck run-to-run layout
//! determinism.

use crate::rss::FlowKey;
use pcie_sim::SplitMix64;

/// One live flow: 20 bytes, so 10⁷ flows fit in ~200 MB and the
/// 1.25·10⁶-flow benchmark configuration in ~25 MB.
#[derive(Debug, Clone, Copy)]
struct Flow {
    key: FlowKey,
    /// Packets left before the flow completes.
    remaining: u32,
    /// RX queue the flow's RSS hash steers to (fixed at insert).
    queue: u16,
}

/// Lifetime statistics of one [`FlowTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTableStats {
    /// Flows inserted over the table's lifetime.
    pub inserts: u64,
    /// Flows that ran out of packets and were removed.
    pub completions: u64,
    /// Packets attributed to flows via [`FlowTable::note_packet`].
    pub packets: u64,
    /// High-water mark of concurrently live flows.
    pub peak_active: u32,
}

/// A fixed-capacity dense table of live flows with O(1) insert,
/// uniform sample, and remove.
///
/// Flow ids are dense indices: an id stays valid until the next
/// completion, which moves the last flow into the completed flow's
/// index.
#[derive(Debug, Clone)]
pub struct FlowTable {
    live: Vec<Flow>,
    capacity: usize,
    stats: FlowTableStats,
}

impl FlowTable {
    /// A table holding at most `capacity` concurrent flows. All
    /// memory is allocated here, none on the packet path.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or exceeds `u32::MAX` flows.
    pub fn with_capacity(capacity: usize) -> FlowTable {
        assert!(capacity > 0, "need room for at least one flow");
        assert!(capacity <= u32::MAX as usize, "flow ids are u32");
        FlowTable {
            live: Vec::with_capacity(capacity),
            capacity,
            stats: FlowTableStats::default(),
        }
    }

    /// Maximum concurrent flows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently live flows.
    pub fn active(&self) -> u32 {
        self.live.len() as u32
    }

    /// Whether the table holds `capacity` flows.
    pub fn is_full(&self) -> bool {
        self.live.len() == self.capacity
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> FlowTableStats {
        self.stats
    }

    /// Inserts a flow with `packets` packets to live for, steered to
    /// `queue`. Returns its id, or `None` if the table is full.
    ///
    /// # Panics
    /// Panics if `packets` is zero (a flow must carry traffic).
    pub fn insert(&mut self, key: FlowKey, queue: u16, packets: u32) -> Option<u32> {
        assert!(packets > 0, "zero-packet flow");
        if self.is_full() {
            return None;
        }
        let id = self.live.len() as u32;
        self.live.push(Flow {
            key,
            remaining: packets,
            queue,
        });
        self.stats.inserts += 1;
        self.stats.peak_active = self.stats.peak_active.max(id + 1);
        Some(id)
    }

    /// Samples a live flow uniformly (one RNG draw), or `None` if the
    /// table is empty.
    pub fn pick(&self, rng: &mut SplitMix64) -> Option<u32> {
        if self.live.is_empty() {
            return None;
        }
        Some(rng.next_below(self.live.len() as u64) as u32)
    }

    /// The 4-tuple of a live flow.
    pub fn key(&self, id: u32) -> FlowKey {
        self.live[id as usize].key
    }

    /// The RX queue a live flow steers to.
    pub fn queue(&self, id: u32) -> u16 {
        self.live[id as usize].queue
    }

    /// Packets the flow still has to send.
    pub fn remaining(&self, id: u32) -> u32 {
        self.live[id as usize].remaining
    }

    /// Attributes one packet to the flow `id`. Returns `true` if that
    /// was the flow's last packet: the flow is removed by an O(1)
    /// `swap_remove`, so the last live flow takes over id `id`.
    pub fn note_packet(&mut self, id: u32) -> bool {
        self.stats.packets += 1;
        let f = &mut self.live[id as usize];
        f.remaining -= 1;
        if f.remaining > 0 {
            return false;
        }
        self.live.swap_remove(id as usize);
        self.stats.completions += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_sim::hash::Fnv1a;

    fn key(n: u32) -> FlowKey {
        FlowKey {
            src_ip: n,
            dst_ip: !n,
            src_port: n as u16,
            dst_port: 80,
        }
    }

    #[test]
    fn insert_sample_complete_roundtrip() {
        let mut t = FlowTable::with_capacity(4);
        let a = t.insert(key(1), 2, 1).unwrap();
        let b = t.insert(key(2), 5, 3).unwrap();
        assert_eq!(t.active(), 2);
        assert_eq!(t.queue(a), 2);
        assert_eq!(t.key(b), key(2));
        assert!(t.note_packet(a), "single-packet flow completes");
        assert_eq!(t.active(), 1);
        // The completion swap-removed `a`: the surviving flow moved,
        // so find it again by its key.
        let b = (0..t.active()).find(|&id| t.key(id) == key(2)).unwrap();
        assert_eq!((t.queue(b), t.remaining(b)), (5, 3));
        assert!(!t.note_packet(b));
        assert!(!t.note_packet(b));
        assert!(t.note_packet(b), "third packet finishes the flow");
        assert_eq!(t.active(), 0);
        let s = t.stats();
        assert_eq!((s.inserts, s.completions, s.packets), (2, 2, 4));
        assert_eq!(s.peak_active, 2);
    }

    #[test]
    fn capacity_is_enforced_and_room_recycles() {
        let mut t = FlowTable::with_capacity(2);
        let a = t.insert(key(1), 0, 1).unwrap();
        t.insert(key(2), 0, 1).unwrap();
        assert!(t.is_full());
        assert!(t.insert(key(3), 0, 1).is_none(), "full table rejects");
        t.note_packet(a);
        assert!(t.insert(key(3), 0, 1).is_some(), "room came back");
    }

    #[test]
    fn uniform_pick_touches_every_flow() {
        let mut t = FlowTable::with_capacity(64);
        for n in 0..64 {
            t.insert(key(n), 0, 1).unwrap();
        }
        let mut rng = SplitMix64::new(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4000 {
            seen.insert(t.pick(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 64, "every live flow reachable");
    }

    #[test]
    fn heavy_churn_preserves_accounting() {
        // 100k flows through a 1k-flow table: swap-remove bookkeeping
        // must survive arbitrary interleaving of removals.
        let cap = 1_000;
        let mut t = FlowTable::with_capacity(cap);
        let mut rng = SplitMix64::new(42);
        let mut next = 0u32;
        for _ in 0..cap {
            t.insert(key(next), (next % 8) as u16, 1 + next % 7)
                .unwrap();
            next += 1;
        }
        // The live order decides which flow each pick lands on; folding
        // the picked 4-tuples pins that order through the churn.
        let mut picked = Fnv1a::default();
        for _ in 0..100_000 {
            let id = t.pick(&mut rng).unwrap();
            let k = t.key(id);
            picked.eat([k.src_ip, k.dst_ip, k.src_port.into(), k.dst_port.into()].map(u64::from));
            if t.note_packet(id) {
                t.insert(key(next), (next % 8) as u16, 1 + next % 7)
                    .unwrap();
                next += 1;
            }
        }
        assert_eq!(t.active(), cap as u32, "replacement keeps occupancy");
        let s = t.stats();
        assert_eq!(s.inserts, u64::from(next));
        assert_eq!(s.completions, u64::from(next) - u64::from(t.active()));
        assert_eq!(s.packets, 100_000);
        assert_eq!(s.peak_active, cap as u32);
        assert_eq!(picked.finish(), 0xc4c0_f1d3_a116_02b9, "pick order changed");
    }

    #[test]
    fn empty_table_pick_is_none() {
        let mut t = FlowTable::with_capacity(1);
        let mut rng = SplitMix64::new(1);
        assert!(t.pick(&mut rng).is_none());
        let a = t.insert(key(1), 0, 1).unwrap();
        t.note_packet(a);
        assert!(t.pick(&mut rng).is_none());
    }
}
