//! The driver simulation proper: one state machine, four patterns.
//!
//! [`DriverSim`] drives a live [`Platform`] (built via
//! `BenchSetup::build_nic_platform` in `pcie-core`) through the full
//! RX → software → TX echo path of a single-core driver. All four
//! [`DriverPattern`]s share the same device-side machinery — the RX
//! ring core of [`crate::rx`] plus the TX echo below — issued through
//! the same `pcie-device` ports and credit gates as every other
//! simulation in the workspace. Only the *notification* edge (MSI vs.
//! memory polling) and the per-packet software costs differ, so
//! differences in the results are attributable to the interaction
//! pattern, not to a forked hot path.
//!
//! The simulation is event-driven in virtual time. Each delivered
//! packet walks the six telescoping stages of
//! `pcie_telemetry::DriverStage` (`rx_dma → notify → rx_sw → app →
//! tx_post → tx_dma`, each boundary defined there); the stage sums
//! reconcile exactly with end-to-end latency per packet (asserted in
//! tests and by the `ext_drivers` benchmark).

use crate::config::{DriverConfig, DriverPattern, OfferedLoad};
use crate::rx::ring_offsets::{DESC_ENTRY, MSI_VECTOR_OFF, TXWB_OFF, TX_RING_OFF};
use crate::rx::{Due, Pending, Refill, RefillDoorbell, RingCounters, RxCore, RxSpec};
use crate::rx::{RX_SLOTS, SLOT_BYTES};
use pcie_device::{DmaPath, Platform};
use pcie_sim::time::diff_ns;
use pcie_sim::{SimTime, SplitMix64};
use pcie_telemetry::{CounterGroup, DriverStage, Snapshot, StageBreakdown, StageSample};

/// Salt folded into the config seed (via [`SplitMix64::salted`]) so
/// the XDP verdict stream never collides with the fault, flow or
/// host-jitter stream families derived from the same master seed.
const DRIVER_STREAM_SALT: u64 = 0x000D_D1E7_5EED_0DD5;

/// Lifetime event counters for one simulation run. Every field is a
/// plain count; the set is exported as the `driver.<pattern>`
/// telemetry group by [`DriverSim::snapshot`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverCounters {
    /// Packets offered by the MAC (arrivals, including drops).
    pub offered: u64,
    /// Packets delivered through the full RX → app → TX echo path.
    pub delivered: u64,
    /// Packets dropped for lack of a posted RX buffer (open-loop
    /// overload): the AF_XDP fill-ring underrun, the kernel freelist
    /// empty case.
    pub fill_underruns: u64,
    /// Packets whose payload was DMAed but whose completion was lost
    /// to a full completion queue (io_uring CQ overflow semantics).
    pub cq_overflows: u64,
    /// Packets dropped early by the XDP verdict (`XDP_DROP`) — these
    /// consumed PCIe bandwidth and verdict CPU but skipped delivery.
    pub early_drops: u64,
    /// MSI/MSI-X interrupts raised.
    pub irqs: u64,
    /// Interrupts fired because the frame-count threshold was met.
    pub coalesce_frame_fires: u64,
    /// Interrupts fired by the coalescing timer with a partial batch.
    pub coalesce_timer_fires: u64,
    /// Device register (PIO) reads by the driver.
    pub pio_reads: u64,
    /// Poll-loop iterations that found at least one packet.
    pub polls: u64,
    /// Poll-loop iterations that found nothing (pure CPU burn).
    pub empty_polls: u64,
    /// Doorbell (PIO) writes: TX tails and RX/fill tails.
    pub doorbells: u64,
    /// RX buffer refill batches posted.
    pub refills: u64,
    /// Explicit wakeup doorbells (AF_XDP `XDP_USE_NEED_WAKEUP` path:
    /// only rung when the device drained the fill ring).
    pub wakeups: u64,
    /// Completion-queue entries reaped by the driver (io_uring).
    pub cqes: u64,
    /// TX submission batches (one doorbell each).
    pub tx_batches: u64,
}

impl DriverCounters {
    /// All counters as a telemetry group named `driver.<pattern>`.
    pub fn telemetry_group(&self, pattern: DriverPattern) -> CounterGroup {
        let mut g = CounterGroup::new(format!("driver.{}", pattern.name()));
        g.push("offered", self.offered)
            .push("delivered", self.delivered)
            .push("fill_underruns", self.fill_underruns)
            .push("cq_overflows", self.cq_overflows)
            .push("early_drops", self.early_drops)
            .push("irqs", self.irqs)
            .push("coalesce_frame_fires", self.coalesce_frame_fires)
            .push("coalesce_timer_fires", self.coalesce_timer_fires)
            .push("pio_reads", self.pio_reads)
            .push("polls", self.polls)
            .push("empty_polls", self.empty_polls)
            .push("doorbells", self.doorbells)
            .push("refills", self.refills)
            .push("wakeups", self.wakeups)
            .push("cqes", self.cqes)
            .push("tx_batches", self.tx_batches);
        g
    }

    /// Total packets dropped (no-buffer + CQ overflow), excluding XDP
    /// early drops, which are a deliberate program verdict.
    pub fn dropped(&self) -> u64 {
        self.fill_underruns + self.cq_overflows
    }
}

impl RingCounters for DriverCounters {
    fn doorbell(&mut self, wakeup: bool) {
        if wakeup {
            self.wakeups += 1;
        } else {
            self.doorbells += 1;
        }
    }

    fn refill(&mut self) {
        self.refills += 1;
    }
}

/// Result of one [`DriverSim::run`].
#[derive(Debug, Clone, Copy)]
pub struct DriverRunResult {
    /// Pattern simulated.
    pub pattern: DriverPattern,
    /// Packet size in bytes.
    pub pkt_size: u32,
    /// Packets offered.
    pub offered: u64,
    /// Packets delivered end-to-end.
    pub delivered: u64,
    /// Packets dropped (buffer exhaustion + CQ overflow).
    pub dropped: u64,
    /// Packets dropped early by the XDP verdict.
    pub early_drops: u64,
    /// Virtual time from first arrival to last TX completion.
    pub elapsed: SimTime,
    /// Delivered packets per second, in millions.
    pub mpps: f64,
    /// Delivered payload rate in Gb/s.
    pub gbps: f64,
    /// Mean end-to-end latency (arrival to TX wire completion), ns.
    pub mean_ns: f64,
    /// Median end-to-end latency, ns.
    pub p50_ns: f64,
    /// 99th-percentile end-to-end latency, ns.
    pub p99_ns: f64,
}

/// A processed packet awaiting TX issuance, with its stage boundaries.
#[derive(Debug, Clone, Copy)]
struct TxItem {
    p: Pending,
    /// When the driver became aware of the packet (notify end).
    aware: SimTime,
    /// RX software processing end.
    proc_done: SimTime,
    /// Application echo end.
    app_done: SimTime,
}

/// One phase of the TX echo or an RX refill whose platform
/// transactions have not been issued yet (see [`RxCore`] for why
/// phases are scheduled when decided and issued at their own time).
#[derive(Debug, Clone)]
enum Deferred {
    /// Driver publishes TX descriptors and rings the doorbell.
    TxDoorbell {
        /// The batch, in processing order.
        items: Vec<TxItem>,
    },
    /// The doorbell has arrived; the device fetches the descriptors.
    TxDescFetch {
        /// Doorbell arrival at the device (TX-post stage boundary).
        db_arr: SimTime,
        /// Coalesced descriptor ranges to fetch.
        ranges: Vec<(u64, u32)>,
        /// The batch, carried through to completion.
        items: Vec<TxItem>,
    },
    /// Descriptors fetched; the device streams the payload reads and
    /// the packets leave on the wire.
    TxPayload {
        /// Doorbell arrival (TX-DMA stage base).
        db_arr: SimTime,
        /// The batch, carried through to completion.
        items: Vec<TxItem>,
    },
    /// Coalesced TX completion write-back retiring `n` descriptors.
    TxWriteback {
        /// Descriptors to retire.
        n: u32,
    },
    /// An RX refill phase, issued by the [`RxCore`].
    Refill(Refill),
}

impl From<Refill> for Deferred {
    fn from(r: Refill) -> Self {
        Deferred::Refill(r)
    }
}

/// A driver interaction-pattern simulation bound to a platform.
///
/// Build one per (pattern, config) pair, call [`DriverSim::run`], then
/// [`DriverSim::snapshot`] for telemetry. Runs accumulate: a second
/// `run` continues on warm rings and merged histograms, which is
/// intended for multi-size sweeps that want combined stats; build a
/// fresh sim for independent measurements.
pub struct DriverSim {
    /// The pattern being simulated.
    pub pattern: DriverPattern,
    /// The knobs in force.
    pub cfg: DriverConfig,
    /// The RX half: platform, buffers, RX and completion rings, the
    /// deferred-phase wheel. The packet buffer holds the RX slots in
    /// its lower half and the TX slots in its upper half.
    rx: RxCore<Deferred>,
    /// TX ring (driver produces, device consumes).
    tx_ring: pcie_nic::DescriptorRing,
    /// Event counters.
    pub counters: DriverCounters,
    /// Per-stage latency attribution for delivered packets.
    pub stages: StageBreakdown<DriverStage>,
    /// XDP verdict stream (forked from the config seed).
    rng: SplitMix64,
}

impl DriverSim {
    /// Builds a simulation of `pattern` with knobs `cfg` over a
    /// freshly constructed `platform` (use
    /// `BenchSetup::build_nic_platform` from `pcie-core`).
    ///
    /// # Panics
    /// On an invalid config (see [`DriverConfig::validate`]).
    pub fn new(pattern: DriverPattern, cfg: DriverConfig, platform: Platform) -> Self {
        cfg.validate().expect("invalid driver config");
        let (cq_size, doorbell) = match pattern {
            DriverPattern::KernelIrq | DriverPattern::DpdkPoll => {
                (cfg.ring_size, RefillDoorbell::Always)
            }
            DriverPattern::AfXdp => (cfg.ring_size, RefillDoorbell::NeedWakeup),
            DriverPattern::IoUring => (cfg.cq_size, RefillDoorbell::Never),
        };
        let spec = RxSpec {
            // RX slots, then as many TX slots.
            pkt_buf_bytes: 2 * u64::from(RX_SLOTS) * SLOT_BYTES,
            ring_size: cfg.ring_size,
            cq_size,
            refill_batch: cfg.refill_batch,
            doorbell,
        };
        let mut counters = DriverCounters::default();
        let rx = RxCore::new(platform, spec, &mut counters);
        let tx_ring =
            pcie_nic::DescriptorRing::new(&rx.desc_buf, TX_RING_OFF, DESC_ENTRY, cfg.ring_size);
        DriverSim {
            pattern,
            cfg,
            rx,
            tx_ring,
            counters,
            stages: StageBreakdown::new(),
            rng: SplitMix64::salted(cfg.seed, DRIVER_STREAM_SALT).fork(),
        }
    }

    /// Offers `n` packets of `pkt_size` bytes under the configured
    /// load and echoes delivered ones back out the TX path.
    pub fn run(&mut self, pkt_size: u32, n: u32) -> DriverRunResult {
        assert!((60..=2048).contains(&pkt_size), "unrealistic packet");
        assert!(n > 0);
        let wire = SimTime::from_ns_f64(pkt_size as f64 * 8.0 / self.cfg.mac_gbps);
        let inter = match self.cfg.load {
            OfferedLoad::Saturate => wire,
            OfferedLoad::OpenLoopGbps(g) => {
                SimTime::from_ns_f64(pkt_size as f64 * 8.0 / g).max(wire)
            }
        };
        let mut next_arr = SimTime::ZERO;
        for i in 0..n {
            let mut arr = next_arr;
            self.advance(arr);
            self.rx.settle(arr);
            if self.rx.buffers_avail() == 0 {
                match self.cfg.load {
                    OfferedLoad::OpenLoopGbps(_) => {
                        // Open loop: the wire does not wait. No posted
                        // buffer means the MAC drops the frame.
                        self.counters.offered += 1;
                        self.counters.fill_underruns += 1;
                        next_arr += inter;
                        continue;
                    }
                    OfferedLoad::Saturate => {
                        // Closed loop: stall the MAC until the driver
                        // catches up and a refill lands.
                        arr = self.wait_for_buffer(arr);
                        next_arr = arr;
                    }
                }
            }
            self.counters.offered += 1;
            if !self.rx.device_rx(arr, pkt_size, i) {
                self.counters.cq_overflows += 1;
            }
            next_arr += inter;
        }
        // Drain: service everything still pending. Coalescing timers
        // fire their partial batches here.
        self.advance(SimTime::MAX);

        let elapsed = self.rx.done_max;
        let secs = elapsed.as_ns_f64() * 1e-9;
        let delivered = self.counters.delivered;
        let e2e = self.stages.end_to_end();
        DriverRunResult {
            pattern: self.pattern,
            pkt_size,
            offered: self.counters.offered,
            delivered,
            dropped: self.counters.dropped(),
            early_drops: self.counters.early_drops,
            elapsed,
            mpps: if secs > 0.0 {
                delivered as f64 / secs / 1e6
            } else {
                0.0
            },
            gbps: if elapsed > SimTime::ZERO {
                delivered as f64 * pkt_size as f64 * 8.0 / elapsed.as_ns_f64()
            } else {
                0.0
            },
            mean_ns: if delivered > 0 {
                self.stages.grand_total_ns() / delivered as f64
            } else {
                0.0
            },
            p50_ns: e2e.quantile_ns(0.50),
            p99_ns: e2e.quantile_ns(0.99),
        }
    }

    /// Full cross-layer telemetry snapshot: the platform's link/host/
    /// engine groups plus the driver counters, ring counters and the
    /// six-stage driver latency breakdown.
    pub fn snapshot(&self, label: impl Into<String>) -> Snapshot {
        let mut snap = self.rx.platform.telemetry_snapshot(label);
        snap.add_group(self.counters.telemetry_group(self.pattern));
        snap.add_group(self.stages.telemetry_group());
        snap.add_group(self.rx.rx_ring.telemetry_group("rx"));
        snap.add_group(self.tx_ring.telemetry_group("tx"));
        snap.add_group(self.rx.cq_ring.telemetry_group("cq"));
        snap
    }

    /// Read access to the underlying platform (wire counters etc.).
    pub fn platform(&self) -> &Platform {
        &self.rx.platform
    }

    /// Blocks (in virtual time) until a posted buffer is available;
    /// returns the adjusted arrival time.
    fn wait_for_buffer(&mut self, mut arr: SimTime) -> SimTime {
        let mut guard = 0u32;
        while self.rx.buffers_avail() == 0 {
            // The earliest thing that can make progress: a refill
            // fetch landing, a scheduled interaction phase, or a
            // notification trigger.
            let next = [self.rx.next_progress(), self.next_action_time()]
                .into_iter()
                .flatten()
                .min();
            let Some(t) = next else {
                panic!(
                    "driver deadlock: no buffers, no refills, nothing pending \
                     (ring_size {}, refill_batch {})",
                    self.cfg.ring_size, self.cfg.refill_batch
                );
            };
            arr = arr.max(t);
            self.advance(arr);
            self.rx.apply_refills(arr);
            guard += 1;
            assert!(guard < 1_000_000, "livelock in buffer wait");
        }
        arr
    }

    // ----- driver side ---------------------------------------------

    /// Runs every driver event — scheduled interaction phases and
    /// notification triggers — whose time is ≤ `until`, in time order.
    fn advance(&mut self, until: SimTime) {
        while let Some(due) = self.rx.next_due(self.next_action_time(), until) {
            match due {
                Due::Phase(at, phase) => self.issue(at, phase),
                Due::Service(t) => self.service(t),
            }
        }
    }

    /// When the driver next notices pending work, or `None` if nothing
    /// is pending.
    fn next_action_time(&self) -> Option<SimTime> {
        match self.pattern {
            // The poll loop runs on a fixed-cost iteration grid
            // starting when the core last went idle; the packet is
            // noticed by the first iteration at or after its
            // host-memory visibility.
            DriverPattern::DpdkPoll | DriverPattern::AfXdp => {
                self.rx.next_poll_tick(self.cfg.poll_iter)
            }
            DriverPattern::KernelIrq | DriverPattern::IoUring => {
                let first = self.rx.pending.front()?;
                let frames = self.cfg.irq_coalesce_frames as usize;
                Some(match self.rx.pending.get(frames - 1) {
                    Some(p) => p.hw,
                    None => first.hw + SimTime::from_us(self.cfg.irq_coalesce_usecs as u64),
                })
            }
        }
    }

    /// Runs one notification + processing round triggered at `t`.
    fn service(&mut self, t: SimTime) {
        self.rx.apply_refills(t);
        let aware = match self.pattern {
            DriverPattern::DpdkPoll | DriverPattern::AfXdp => {
                self.counters.empty_polls += self.rx.empty_polls_before(t, self.cfg.poll_iter);
                self.counters.polls += 1;
                t + self.cfg.poll_iter
            }
            DriverPattern::KernelIrq | DriverPattern::IoUring => {
                let frames = self.cfg.irq_coalesce_frames as usize;
                if self.rx.pending.get(frames - 1).is_some_and(|p| p.hw <= t) {
                    self.counters.coalesce_frame_fires += 1;
                } else {
                    self.counters.coalesce_timer_fires += 1;
                }
                self.counters.irqs += 1;
                // The MSI is a real 4 B posted write through the same
                // issue port and credit gates as the data path.
                let msi_at = self.rx.platform.msi(t, &self.rx.desc_buf, MSI_VECTOR_OFF);
                let mut wake = msi_at + self.cfg.irq_entry;
                if self.cfg.driver_reads_registers && self.pattern == DriverPattern::KernelIrq {
                    // Legacy drivers re-read the ring head register
                    // before trusting write-backs: one PIO round trip
                    // on the critical path (the paper's §4 LAT_RD
                    // argument for why drivers should not do this).
                    wake = self.rx.platform.pio_read(wake, 4);
                    self.counters.pio_reads += 1;
                }
                wake
            }
        };
        let start = aware.max(self.rx.cpu_free);

        // Collect the batch: everything visible by the time the
        // handler actually runs, bounded by the burst size for the
        // polling patterns (interrupt handlers drain NAPI-style).
        let limit = match self.pattern {
            DriverPattern::DpdkPoll | DriverPattern::AfXdp => self.cfg.burst as usize,
            DriverPattern::KernelIrq | DriverPattern::IoUring => usize::MAX,
        };
        let mut batch = Vec::with_capacity(limit.min(self.rx.pending.len()));
        while batch.len() < limit {
            match self.rx.reap(start) {
                Some(p) => batch.push(p),
                None => break,
            }
        }
        debug_assert!(!batch.is_empty(), "service round found nothing");
        self.process_batch(start, &batch);
    }

    /// Driver software: RX processing, app echo, TX submission —
    /// serialised on the single driver core.
    fn process_batch(&mut self, aware: SimTime, batch: &[Pending]) {
        let cfg = self.cfg;
        let mut t = aware;
        let mut tx_queue: Vec<TxItem> = Vec::with_capacity(batch.len());
        for p in batch {
            if self.pattern == DriverPattern::IoUring {
                self.counters.cqes += 1;
            }
            let (cost, delivered) = match self.pattern {
                DriverPattern::KernelIrq => (cfg.kernel_rx, true),
                DriverPattern::DpdkPoll => (cfg.dpdk_rx, true),
                DriverPattern::AfXdp => {
                    if cfg.xdp_drop_frac > 0.0 && self.rng.chance(cfg.xdp_drop_frac) {
                        (cfg.xdp_verdict, false)
                    } else {
                        (cfg.xdp_verdict + cfg.afxdp_rx, true)
                    }
                }
                DriverPattern::IoUring => (cfg.iouring_cqe, true),
            };
            let proc_done = t + cost;
            t = proc_done;
            if !delivered {
                self.counters.early_drops += 1;
                continue;
            }
            let copy = if self.pattern == DriverPattern::KernelIrq {
                // The socket path copies the payload to userspace and
                // back; the three zero-copy patterns skip this.
                SimTime::from_ns_f64(cfg.copy_ns_per_byte * p.size as f64 * 2.0)
            } else {
                SimTime::ZERO
            };
            let app_done = proc_done + cfg.app + copy;
            t = app_done;
            tx_queue.push(TxItem {
                p: *p,
                aware,
                proc_done,
                app_done,
            });
        }
        self.rx.cpu_free = t;

        // Schedule (not issue) the device interactions this round
        // decided on; `advance` issues them when the clock gets there,
        // in order with the arrival stream.
        if !tx_queue.is_empty() {
            self.rx
                .schedule(t, Deferred::TxDoorbell { items: tx_queue });
        }
        self.rx.recycle(t, batch.len() as u32);
    }

    /// Issues one scheduled interaction phase at its event time `at`.
    /// Every platform call below carries `want == at`, so issuance
    /// stays chronological with the arrival stream; latency chains
    /// (doorbell → fetch → payload → write-back) are expressed by
    /// scheduling the follow-on phase at this phase's completion time.
    fn issue(&mut self, at: SimTime, action: Deferred) {
        let rx = &mut self.rx;
        match action {
            Deferred::TxDoorbell { items } => {
                self.counters.tx_batches += 1;
                self.tx_ring
                    .produce_into(items.len() as u32, &mut rx.slot_scratch);
                debug_assert_eq!(rx.slot_scratch.len(), items.len(), "TX ring full");
                self.counters.doorbells += 1;
                let db_arr = rx.platform.pio_write(at, 4);
                self.tx_ring
                    .dma_ranges_into(&rx.slot_scratch, &mut rx.range_scratch);
                let ranges = rx.range_scratch.clone();
                rx.schedule(
                    db_arr,
                    Deferred::TxDescFetch {
                        db_arr,
                        ranges,
                        items,
                    },
                );
            }
            Deferred::TxDescFetch {
                db_arr,
                ranges,
                items,
            } => {
                let desc_done = rx.fetch_descriptors(at, &ranges);
                rx.schedule(desc_done, Deferred::TxPayload { db_arr, items });
            }
            Deferred::TxPayload { db_arr, items } => {
                let n = items.len() as u32;
                let mut last_done = at;
                for TxItem {
                    p,
                    aware,
                    proc_done,
                    app_done,
                } in items
                {
                    // TX slots follow the RX slots.
                    let tx_off = u64::from(RX_SLOTS + p.idx % RX_SLOTS) * SLOT_BYTES;
                    let r =
                        rx.platform
                            .dma_read(at, &rx.pkt_buf, tx_off, p.size, DmaPath::DmaEngine);
                    last_done = last_done.max(r.done);
                    let mut sample = StageSample::default();
                    sample
                        .set(DriverStage::RxDma, diff_ns(p.hw, p.arr))
                        .set(DriverStage::Notify, diff_ns(aware, p.hw))
                        .set(DriverStage::RxSoftware, diff_ns(proc_done, aware))
                        .set(DriverStage::App, diff_ns(app_done, proc_done))
                        .set(DriverStage::TxPost, diff_ns(db_arr, app_done))
                        .set(DriverStage::TxDma, diff_ns(r.done, db_arr));
                    self.stages.record(&sample);
                    self.counters.delivered += 1;
                    rx.done_max = rx.done_max.max(r.done);
                }
                // One TX completion write-back per batch (write-back
                // coalescing, one of §5's descriptor optimisations).
                rx.schedule(last_done, Deferred::TxWriteback { n });
            }
            Deferred::TxWriteback { n } => {
                let wb = rx.platform.dma_write(
                    at,
                    &rx.desc_buf,
                    TXWB_OFF,
                    DESC_ENTRY,
                    DmaPath::DmaEngine,
                );
                rx.done_max = rx.done_max.max(wb.absorbed);
                self.tx_ring.consume_into(n, &mut rx.slot_scratch);
            }
            Deferred::Refill(r) => rx.issue_refill(at, r, &mut self.counters),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PATTERNS;
    use pciebench::BenchSetup;

    fn sim(pattern: DriverPattern, cfg: DriverConfig) -> DriverSim {
        DriverSim::new(pattern, cfg, BenchSetup::nfp6000_hsw().build_nic_platform())
    }

    #[test]
    fn all_patterns_deliver_everything_in_closed_loop() {
        for pattern in PATTERNS {
            let mut s = sim(pattern, DriverConfig::default());
            let r = s.run(128, 2_000);
            assert_eq!(r.offered, 2_000, "{}", pattern.name());
            assert_eq!(r.delivered, 2_000, "{}", pattern.name());
            assert_eq!(r.dropped, 0, "{}", pattern.name());
            assert!(r.mpps > 0.0 && r.p99_ns > 0.0, "{}", pattern.name());
        }
    }

    #[test]
    fn stage_sums_telescope_to_end_to_end() {
        for pattern in PATTERNS {
            let mut s = sim(pattern, DriverConfig::default());
            s.run(256, 1_000);
            assert!(s.stages.telescopes(), "{}", pattern.name());
            assert_eq!(s.stages.count(), 1_000);
        }
    }

    #[test]
    fn polling_beats_interrupts_on_notify_latency() {
        // Low open-loop rate: queues stay empty, so `notify` isolates
        // the notification edge itself (poll grid vs. MSI + coalesce).
        let cfg = DriverConfig::default().with_load(OfferedLoad::OpenLoopGbps(1.0));
        let mut dpdk = sim(DriverPattern::DpdkPoll, cfg);
        let mut irq = sim(DriverPattern::KernelIrq, cfg);
        dpdk.run(64, 2_000);
        irq.run(64, 2_000);
        let dpdk_notify = dpdk.stages.mean_ns(DriverStage::Notify);
        let irq_notify = irq.stages.mean_ns(DriverStage::Notify);
        assert!(
            dpdk_notify < irq_notify,
            "poll notify {dpdk_notify:.0} ns should beat IRQ {irq_notify:.0} ns"
        );
        assert!(irq.counters.irqs > 0);
        assert_eq!(dpdk.counters.irqs, 0, "pollers never interrupt");
        assert_eq!(dpdk.counters.pio_reads, 0, "pollers never read registers");
    }

    #[test]
    fn xdp_early_drops_skip_delivery() {
        let cfg = DriverConfig {
            xdp_drop_frac: 0.5,
            ..DriverConfig::default()
        };
        let mut s = sim(DriverPattern::AfXdp, cfg);
        let r = s.run(64, 4_000);
        assert_eq!(r.offered, 4_000);
        assert!(r.early_drops > 1_000 && r.early_drops < 3_000, "~half drop");
        assert_eq!(r.delivered + r.early_drops, 4_000);
        // Verdict stream is deterministic per seed.
        let mut s2 = sim(DriverPattern::AfXdp, cfg);
        let r2 = s2.run(64, 4_000);
        assert_eq!(r.early_drops, r2.early_drops);
        assert_eq!(r.elapsed, r2.elapsed);
    }

    #[test]
    fn msi_traffic_shows_in_telemetry_only_for_irq_patterns() {
        for pattern in PATTERNS {
            let mut s = sim(pattern, DriverConfig::default());
            s.run(128, 1_000);
            let snap = s.snapshot("t");
            let engine = snap
                .groups()
                .iter()
                .find(|g| g.component == "device.engine")
                .expect("engine group");
            if pattern.interrupt_driven() {
                assert!(
                    engine.get("msi_writes").unwrap_or(0) > 0,
                    "{}",
                    pattern.name()
                );
            } else {
                assert_eq!(engine.get("msi_writes"), None, "{}", pattern.name());
            }
            assert!(snap
                .groups()
                .iter()
                .any(|g| g.component == format!("driver.{}", pattern.name())));
            assert!(snap.groups().iter().any(|g| g.component == "driver.stages"));
        }
    }

    #[test]
    fn saturation_is_reproducible() {
        for pattern in PATTERNS {
            let mut a = sim(pattern, DriverConfig::default());
            let mut b = sim(pattern, DriverConfig::default());
            let ra = a.run(512, 1_500);
            let rb = b.run(512, 1_500);
            assert_eq!(ra.elapsed, rb.elapsed, "{}", pattern.name());
            assert_eq!(ra.p99_ns, rb.p99_ns, "{}", pattern.name());
        }
    }
}
