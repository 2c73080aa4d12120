//! The RX ring core: the receive half of a descriptor-ring NIC queue,
//! shared by every simulation that runs one ([`crate::DriverSim`] and
//! `pcie_flows::QueueSim`).
//!
//! [`RxCore`] owns the platform, the packet and descriptor buffers,
//! the RX free-list ring, the completion ring and the timing wheel of
//! deferred phases. It implements what every RX queue does the same
//! way: host warm-up and the initial fill, the device side of each
//! packet (payload DMA + completion write-back), the driver's refill
//! policy with its two deferred phases (post + doorbell, descriptor
//! fetch), and the event-ordering rule that interleaves scheduled
//! phases with the caller's service trigger.
//!
//! The caller keeps everything that differs: when its driver notices
//! packets, what a service round costs, and what happens after
//! receive (echo back out a TX ring, or terminate at the
//! application). Its event loop pops [`RxCore::next_due`] and either
//! issues the phase (refills via [`RxCore::issue_refill`]) or runs its
//! own service round, so the shared code never branches on which
//! caller it serves.

use pcie_device::{DmaPath, Platform};
use pcie_host::buffer::BufferAllocator;
use pcie_host::HostBuffer;
use pcie_nic::DescriptorRing;
use pcie_sim::{EventQueue, SimTime};
use std::collections::VecDeque;

use self::ring_offsets::{CQ_RING_OFF, DESC_ENTRY, RX_RING_OFF};

/// Descriptor-buffer layout constants shared by the simulations and
/// their documentation (DESIGN.md §10).
pub mod ring_offsets {
    /// RX/fill ring base offset within the descriptor buffer.
    pub const RX_RING_OFF: u64 = 0;
    /// TX ring base offset.
    pub const TX_RING_OFF: u64 = 16 * 1024;
    /// Completion ring base offset.
    pub const CQ_RING_OFF: u64 = 32 * 1024;
    /// MSI/MSI-X vector target address offset.
    pub const MSI_VECTOR_OFF: u64 = 48 * 1024;
    /// TX completion write-back cell offset.
    pub const TXWB_OFF: u64 = 48 * 1024 + 64;
    /// Descriptor entry size in bytes (16 B, the common hardware
    /// format: address + length + flags).
    pub const DESC_ENTRY: u32 = 16;
}

/// Bytes per packet-buffer slot.
pub const SLOT_BYTES: u64 = 2048;

/// RX payload slots, at the start of the packet buffer (2 MiB). A
/// caller that also transmits asks for a larger buffer and uses the
/// bytes past `RX_SLOTS × SLOT_BYTES` itself.
pub const RX_SLOTS: u32 = 1024;

/// Descriptor buffer size: the rings plus the MSI and write-back
/// cells of [`ring_offsets`].
const DESC_BUF_BYTES: u64 = 64 * 1024;

/// Time between device polls of a host-resident fill/buffer ring when
/// no doorbell is required (AF_XDP fill ring in need-wakeup mode with
/// entries available, io_uring registered buffer rings).
const FILL_POLL: SimTime = SimTime::from_ns(200);

/// How the driver tells the device about refilled RX buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefillDoorbell {
    /// A tail-pointer doorbell per refill batch: the device learns
    /// immediately (kernel, DPDK).
    Always,
    /// `XDP_USE_NEED_WAKEUP`: a wakeup doorbell only when the device
    /// has drained the fill ring; otherwise the device's fill poller
    /// picks the entries up on its next pass.
    NeedWakeup,
    /// Never: the device polls the ring (io_uring buffer rings).
    Never,
}

/// The ring events an [`RxCore`] counts into its caller's counters.
pub trait RingCounters {
    /// A doorbell (PIO write) to the device; `wakeup` marks a
    /// need-wakeup doorbell for a drained fill ring.
    fn doorbell(&mut self, wakeup: bool);
    /// A refill batch was posted.
    fn refill(&mut self);
}

/// Geometry and refill policy of one [`RxCore`], fixed at
/// construction from the caller's own configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxSpec {
    /// Packet buffer size in bytes (at least `RX_SLOTS × SLOT_BYTES`).
    /// The buffers are allocated packet buffer first, so this also
    /// places the descriptor buffer.
    pub pkt_buf_bytes: u64,
    /// RX free-list ring capacity in slots.
    pub ring_size: u32,
    /// Completion ring capacity in slots.
    pub cq_size: u32,
    /// Buffers consumed before the driver posts a refill batch (capped
    /// at half the ring).
    pub refill_batch: u32,
    /// How refills reach the device.
    pub doorbell: RefillDoorbell,
}

/// One RX packet visible in host memory awaiting driver attention.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    /// Wire arrival time.
    pub arr: SimTime,
    /// Host-memory visibility (payload + completion absorbed).
    pub hw: SimTime,
    /// Packet index (selects the buffer slot).
    pub idx: u32,
    /// Payload bytes.
    pub size: u32,
}

/// The two deferred phases of an RX refill.
#[derive(Debug, Clone)]
pub enum Refill {
    /// Driver returns `n` buffers to the free list (+ doorbell).
    Post {
        /// Buffers returned.
        n: u32,
    },
    /// Device fetches the refill descriptors; the buffers become
    /// usable when the fetch completes.
    Fetch {
        /// Coalesced descriptor ranges to fetch.
        ranges: Vec<(u64, u32)>,
        /// Buffers credited on completion.
        n: u32,
    },
}

/// The next event of an RX queue's loop (see [`RxCore::next_due`]).
#[derive(Debug)]
pub enum Due<P> {
    /// A scheduled phase, popped from the wheel, to issue at its time.
    Phase(SimTime, P),
    /// The caller's service trigger fires at this time.
    Service(SimTime),
}

/// The shared RX half of a NIC queue; `P` is the caller's deferred
/// phase type, which carries [`Refill`]s.
///
/// Deferred phases follow one rule. The platform's issue ports and
/// wire timelines are FIFO: a transaction issued *out of call order*
/// at a future want time pushes every later-issued earlier-want
/// transaction behind it, which under load compounds into unbounded
/// artificial queueing. Driver and device follow-on actions (TX
/// batches, refills) are therefore *scheduled* when decided and
/// *issued* phase by phase, each phase's platform calls carrying a
/// want time equal to the phase's own event time — the same "issue at
/// or behind now" discipline as `NicSim`'s lag, generalised to an
/// event queue.
pub struct RxCore<P> {
    /// The platform every DMA, doorbell and MSI goes through.
    pub platform: Platform,
    /// Packet payload buffer: [`RX_SLOTS`] RX slots, then any caller
    /// region.
    pub(crate) pkt_buf: HostBuffer,
    /// Descriptor buffer: rings + MSI vector (see [`ring_offsets`]).
    pub(crate) desc_buf: HostBuffer,
    /// RX free-list / fill ring (driver produces, device consumes).
    pub(crate) rx_ring: DescriptorRing,
    /// Completion ring (device produces, driver consumes).
    pub(crate) cq_ring: DescriptorRing,
    /// Packets visible in host memory awaiting the driver, in arrival
    /// order.
    pub(crate) pending: VecDeque<Pending>,
    /// When the driver core becomes free; a poll loop's iteration grid
    /// restarts here.
    pub cpu_free: SimTime,
    /// Latest completion of any device work.
    pub done_max: SimTime,
    /// Scratch for ring slot indices.
    pub(crate) slot_scratch: Vec<u32>,
    /// Scratch for coalesced descriptor ranges.
    pub(crate) range_scratch: Vec<(u64, u32)>,
    /// RX buffers the *device* currently holds (posted and fetched).
    buffers_avail: u32,
    /// Refill batches in flight: (device-visible time, buffer count).
    refill_events: VecDeque<(SimTime, u32)>,
    /// Buffers consumed since the last refill batch.
    consumed_since_refill: u32,
    /// Consumed buffers that trigger a refill batch.
    refill_threshold: u32,
    /// How refills reach the device.
    doorbell: RefillDoorbell,
    /// Scheduled phases not yet issued to the platform, on the
    /// simulator's timing wheel: time-ordered with FIFO tie-breaking,
    /// with the wheel's scheduled-in-the-past check guarding the
    /// caller's event logic.
    deferred: EventQueue<P>,
}

impl<P: From<Refill>> RxCore<P> {
    /// Allocates and warms the buffers over `platform`, builds the RX
    /// and completion rings, and posts the initial fill: the driver
    /// posts the whole free list before enabling RX — one tail write
    /// (counted into `counters`), one coalesced descriptor fetch, whose
    /// completion seeds [`RxCore::done_max`].
    pub fn new(platform: Platform, spec: RxSpec, counters: &mut impl RingCounters) -> Self {
        debug_assert!(spec.pkt_buf_bytes >= u64::from(RX_SLOTS) * SLOT_BYTES);
        let mut alloc = BufferAllocator::default_layout();
        let pkt_buf = alloc.alloc(spec.pkt_buf_bytes, 0);
        let desc_buf = alloc.alloc(DESC_BUF_BYTES, 0);
        let rx_ring = DescriptorRing::new(&desc_buf, RX_RING_OFF, DESC_ENTRY, spec.ring_size);
        let cq_ring = DescriptorRing::new(&desc_buf, CQ_RING_OFF, DESC_ENTRY, spec.cq_size);
        let mut rx = RxCore {
            platform,
            pkt_buf,
            desc_buf,
            rx_ring,
            cq_ring,
            pending: VecDeque::new(),
            cpu_free: SimTime::ZERO,
            done_max: SimTime::ZERO,
            slot_scratch: Vec::with_capacity(1024),
            range_scratch: Vec::with_capacity(8),
            buffers_avail: 0,
            refill_events: VecDeque::new(),
            consumed_since_refill: 0,
            // Capped at half the ring so small test rings still refill
            // before the free list can run dry in closed loop.
            refill_threshold: spec.refill_batch.min(spec.ring_size / 2).max(1),
            doorbell: spec.doorbell,
            deferred: EventQueue::new(),
        };
        // Rings and packet buffers are driver-touched continuously and
        // stay cache-resident, as in `NicSim`.
        rx.platform.host.host_warm(&rx.desc_buf, 0, DESC_BUF_BYTES);
        rx.platform
            .host
            .host_warm(&rx.pkt_buf, 0, spec.pkt_buf_bytes);
        let initial = rx.rx_ring.free();
        rx.rx_ring.produce_into(initial, &mut rx.slot_scratch);
        counters.doorbell(false);
        let t0 = rx.platform.pio_write(SimTime::ZERO, 4);
        rx.rx_ring
            .dma_ranges_into(&rx.slot_scratch, &mut rx.range_scratch);
        let ranges = rx.range_scratch.clone();
        rx.done_max = rx.fetch_descriptors(t0, &ranges);
        rx.buffers_avail = initial;
        rx
    }

    /// RX buffers the device holds right now.
    pub fn buffers_avail(&self) -> u32 {
        self.buffers_avail
    }

    /// The RX free-list ring.
    pub fn rx_ring(&self) -> &DescriptorRing {
        &self.rx_ring
    }

    /// Schedules `phase` at `at` on the timing wheel.
    pub fn schedule(&mut self, at: SimTime, phase: P) {
        self.deferred.push_labeled(at, "rx-queue-phase", phase);
    }

    /// The next event due by `until`: the earliest scheduled phase
    /// (popped), or the caller's service trigger `service_at`.
    /// Scheduled phases win ties: they were decided by an earlier
    /// round.
    pub fn next_due(&mut self, service_at: Option<SimTime>, until: SimTime) -> Option<Due<P>> {
        match (service_at, self.deferred.peek_time()) {
            (_, Some(ti)) if ti <= until && service_at.is_none_or(|tt| ti <= tt) => {
                let (at, phase) = self.deferred.pop().expect("peeked phase");
                Some(Due::Phase(at, phase))
            }
            (Some(tt), _) if tt <= until => Some(Due::Service(tt)),
            _ => None,
        }
    }

    /// Settles the queue at wire arrival `at`, after the caller ran
    /// its loop up to `at`: credits landed refills and, when nothing
    /// is scheduled, lets the wheel jump its cursor to `at`.
    ///
    /// Quiescent: every phase at or before `at` has been issued and
    /// nothing later is pending, and all follow-on work is scheduled
    /// at ≥ the times it is decided at (≥ `at`). Declaring the gap
    /// lets the wheel jump in O(1) instead of cascading across the
    /// idle stretch — the win behind low-load runs with coalescing
    /// timers tens of µs out.
    pub fn settle(&mut self, at: SimTime) {
        self.apply_refills(at);
        if self.deferred.is_empty() {
            self.deferred.fast_forward(at);
        }
    }

    /// The earliest time a landed refill or a scheduled phase can make
    /// progress, or `None` if neither is outstanding.
    pub fn next_progress(&self) -> Option<SimTime> {
        let refills = self.refill_events.iter().map(|&(t, _)| t);
        refills.chain(self.deferred.peek_time()).min()
    }

    // ----- device side ---------------------------------------------

    /// One packet arriving off the wire at `arr` into slot `idx`:
    /// consume a posted buffer, DMA the payload, write the completion
    /// entry, and queue the packet for the driver. Returns `false` if
    /// the completion was lost to a full completion queue (io_uring
    /// CQ-overflow semantics: the payload DMA already happened —
    /// wasted wire work — and the device silently recycles the frame
    /// to its free list, with no host involvement).
    pub fn device_rx(&mut self, arr: SimTime, size: u32, idx: u32) -> bool {
        debug_assert!(self.buffers_avail > 0);
        self.rx_ring.consume_into(1, &mut self.slot_scratch);
        debug_assert!(!self.slot_scratch.is_empty());
        self.buffers_avail -= 1;

        let off = u64::from(idx % RX_SLOTS) * SLOT_BYTES;
        let payload = self
            .platform
            .dma_write(arr, &self.pkt_buf, off, size, DmaPath::DmaEngine);
        if self.cq_ring.free() == 0 {
            self.rx_ring.produce_into(1, &mut self.slot_scratch);
            self.buffers_avail += 1;
            self.done_max = self.done_max.max(payload.done);
            return false;
        }
        self.cq_ring.produce_into(1, &mut self.slot_scratch);
        let cq_off = self.cq_ring.slot_offset(self.slot_scratch[0]);
        let wb =
            self.platform
                .dma_write(arr, &self.desc_buf, cq_off, DESC_ENTRY, DmaPath::DmaEngine);
        let hw = payload.absorbed.max(wb.absorbed);
        self.pending.push_back(Pending { arr, hw, idx, size });
        true
    }

    // ----- driver side ---------------------------------------------

    /// Reaps the oldest packet if it is host-visible by `t`: pops it
    /// and consumes its completion entry.
    pub fn reap(&mut self, t: SimTime) -> Option<Pending> {
        if self.pending.front()?.hw > t {
            return None;
        }
        self.cq_ring.consume_into(1, &mut self.slot_scratch);
        self.pending.pop_front()
    }

    /// The first tick of a poll loop with period `poll_iter`, anchored
    /// where the core last went idle, at or after the oldest pending
    /// packet became host-visible; `None` if nothing is pending.
    pub fn next_poll_tick(&self, poll_iter: SimTime) -> Option<SimTime> {
        let (base, target) = (self.cpu_free, self.pending.front()?.hw);
        if base >= target {
            return Some(base);
        }
        let step_ps = poll_iter.as_ps().max(1);
        let k = target.saturating_sub(base).as_ps().div_ceil(step_ps);
        Some(base.saturating_add(SimTime::from_ps(k.saturating_mul(step_ps))))
    }

    /// Poll iterations that found nothing between the core going idle
    /// and a hit at `t` (counted in O(1), not simulated one by one).
    pub fn empty_polls_before(&self, t: SimTime, poll_iter: SimTime) -> u64 {
        t.saturating_sub(self.cpu_free).as_ns() / poll_iter.as_ns().max(1)
    }

    /// Returns `n` processed buffers to the driver's free list. Buffers
    /// go back only after the driver has processed their packets (the
    /// frame is in use until then) — this is what bounds the
    /// completion queue in closed loop. Once enough have accumulated,
    /// schedules a refill batch at `at`.
    pub fn recycle(&mut self, at: SimTime, n: u32) {
        self.consumed_since_refill += n;
        if self.consumed_since_refill >= self.refill_threshold {
            let n = std::mem::take(&mut self.consumed_since_refill);
            self.schedule(at, Refill::Post { n }.into());
        }
    }

    /// Issues one refill phase at its event time `at`. Every platform
    /// call carries `want == at`; the fetch follows the post at the
    /// time the device learns of it.
    pub fn issue_refill(&mut self, at: SimTime, refill: Refill, counters: &mut impl RingCounters) {
        match refill {
            Refill::Post { n } => {
                counters.refill();
                self.rx_ring.produce_into(n, &mut self.slot_scratch);
                debug_assert_eq!(self.slot_scratch.len() as u32, n, "freelist accounting");
                let fetch_at = match self.doorbell {
                    RefillDoorbell::Always => {
                        counters.doorbell(false);
                        self.platform.pio_write(at, 4)
                    }
                    RefillDoorbell::NeedWakeup
                        if self.buffers_avail == 0 && self.refill_events.is_empty() =>
                    {
                        counters.doorbell(true);
                        self.platform.pio_write(at, 4)
                    }
                    RefillDoorbell::NeedWakeup | RefillDoorbell::Never => at + FILL_POLL,
                };
                self.rx_ring
                    .dma_ranges_into(&self.slot_scratch, &mut self.range_scratch);
                let ranges = self.range_scratch.clone();
                self.schedule(fetch_at, Refill::Fetch { ranges, n }.into());
            }
            Refill::Fetch { ranges, n } => {
                let done = self.fetch_descriptors(at, &ranges);
                self.refill_events.push_back((done, n));
            }
        }
    }

    /// Credits refill batches whose descriptor fetch completed by
    /// `now` back to the device. Fetch completions are not guaranteed
    /// monotone across batches, so this scans the whole (short) queue.
    pub fn apply_refills(&mut self, now: SimTime) {
        let mut credited = 0u32;
        self.refill_events.retain(|&(t, n)| {
            if t <= now {
                credited += n;
                false
            } else {
                true
            }
        });
        self.buffers_avail += credited;
    }

    /// Device reads of descriptor `ranges`, all issued at `at`;
    /// returns when the last one completes.
    pub fn fetch_descriptors(&mut self, at: SimTime, ranges: &[(u64, u32)]) -> SimTime {
        let mut done = at;
        for &(off, len) in ranges {
            let r = self
                .platform
                .dma_read(at, &self.desc_buf, off, len, DmaPath::DmaEngine);
            done = done.max(r.done);
        }
        done
    }
}
