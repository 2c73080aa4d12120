//! Stage attribution: per-item latency breakdowns whose stage
//! contributions sum exactly to the end-to-end latency.
//!
//! Every pipeline the simulator models — one DMA transaction, one
//! packet through a driver, one RPC across the switch — is a fixed
//! sequence of stages. The simulation timestamps each boundary;
//! consecutive differences telescope, so per-stage contributions
//! **sum exactly to the end-to-end latency**, the invariant behind the
//! `fig6` stage-attributed CDFs (paper §5–6).
//!
//! One accumulator, [`StageBreakdown`], serves every pipeline. A
//! pipeline only declares its stage enum through [`StageSet`]: the
//! stage list, names, exported counter keys and histogram geometry.
//! [`Stage`] (DMA), [`DriverStage`] (driver path) and [`RpcStage`]
//! (RPC fabric) are the three sets in use.

use crate::counters::CounterGroup;
use crate::hist::LatencyHistogram;
use std::fmt::Debug;
use std::marker::PhantomData;

/// The most stages any [`StageSet`] may declare: per-stage values live
/// in fixed `[f64; MAX_STAGES]` arrays.
pub const MAX_STAGES: usize = 8;

/// A pipeline's stage enum: everything [`StageBreakdown`] needs to
/// record, export and bucket its samples.
pub trait StageSet: Copy + Eq + Debug + 'static {
    /// Every stage in pipeline order; `ALL[i].index() == i`.
    const ALL: &'static [Self];
    /// Stable snake_case stage names in pipeline order, used in JSON,
    /// CSV and bench output.
    const NAMES: &'static [&'static str];
    /// `<name>_total_ns` counter keys in pipeline order.
    const TOTAL_KEYS: &'static [&'static str];
    /// Component name of [`StageBreakdown::telemetry_group`].
    const GROUP: &'static str;
    /// Counter key of the number of recorded samples in that group.
    const COUNT_KEY: &'static str;
    /// Histogram bucket width, ns.
    const BUCKET_WIDTH_NS: u64;
    /// Histogram bucket count; latencies past `BUCKET_WIDTH_NS ×
    /// BUCKETS` saturate into the overflow bucket.
    const BUCKETS: usize;

    /// Position of this stage in [`StageSet::ALL`].
    fn index(self) -> usize;

    /// Stable snake_case name of this stage.
    fn name(self) -> &'static str {
        Self::NAMES[self.index()]
    }
}

/// Declares a stage enum and its [`StageSet`] impl from one table:
/// each stage's variant and export name in pipeline order, plus the
/// counter group, count key and histogram geometry. Counter keys are
/// derived from the names (`<name>_total_ns`).
macro_rules! stage_set {
    (
        $(#[$meta:meta])*
        pub enum $set:ident {
            group: $group:literal,
            count_key: $count:literal,
            buckets: $width:literal ns x $n:literal,
            $( $(#[$vmeta:meta])* $stage:ident => $name:literal, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $set {
            $( $(#[$vmeta])* $stage, )+
        }

        impl StageSet for $set {
            const ALL: &'static [Self] = &[$($set::$stage),+];
            const NAMES: &'static [&'static str] = &[$($name),+];
            const TOTAL_KEYS: &'static [&'static str] = &[$(concat!($name, "_total_ns")),+];
            const GROUP: &'static str = $group;
            const COUNT_KEY: &'static str = $count;
            const BUCKET_WIDTH_NS: u64 = $width;
            const BUCKETS: usize = $n;

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

stage_set! {
    /// One stage of the DMA critical path, in pipeline order.
    ///
    /// A device-initiated read traverses a fixed pipeline: the DMA
    /// engine issues it, a read tag and non-posted credit are
    /// allocated, the request TLP serialises onto the wire, the host
    /// (root complex → IOMMU → LLC/DRAM) produces the data, the
    /// completion TLP(s) serialise back, and the engine finishes
    /// internal bookkeeping. The simulator timestamps the *critical*
    /// (last-completing) chunk of each transfer at every boundary.
    pub enum Stage {
        group: "dma.stages",
        count_key: "transactions",
        // 10 µs: comfortably covers the paper's 300 ns – 2.5 µs
        // latency band (Figure 6).
        buckets: 25 ns x 400,
        /// Waiting for a free DMA-engine worker slot and the issue port
        /// (occupancy / queueing delay; absorbs the doorbell write for
        /// write-then-read ops).
        Issue => "issue",
        /// Waiting for a PCIe read tag and a non-posted header credit.
        TagAlloc => "tag_alloc",
        /// Request TLP serialisation + propagation on the upstream
        /// wire.
        RequestWire => "request_wire",
        /// Root complex, IOMMU, LLC and DRAM processing on the host.
        Host => "host",
        /// Completion TLP serialisation + propagation on the downstream
        /// wire (last completion of the critical chunk).
        CompletionWire => "completion_wire",
        /// Data-link-layer and device error recovery: TLP
        /// retransmissions (NAK round trips, replay-timer expiries)
        /// plus device-level completion-timeout waits and read
        /// re-issues. Exactly zero on a fault-free run.
        Replay => "replay",
        /// Device-internal completion handling after the last data
        /// beat.
        DeviceCompletion => "device_completion",
    }
}

stage_set! {
    /// One stage of the per-packet driver path, in pipeline order.
    ///
    /// A NIC driver adds a second pipeline above the DMA one: the
    /// packet lands in host memory, the driver finds out (interrupt,
    /// poll loop, completion queue), software processes it, the
    /// application reacts, and a response is posted and fetched. Each
    /// `pcie-drivers` interaction pattern walks exactly these
    /// boundaries, from MAC arrival to the response fetched by the
    /// device. The `rx_dma` and `tx_dma` stages are themselves composed
    /// of [`Stage`]s — the two breakdowns nest.
    pub enum DriverStage {
        group: "driver.stages",
        count_key: "packets",
        // 200 µs: driver-path latencies reach hundreds of microseconds
        // under heavy interrupt coalescing.
        buckets: 50 ns x 4000,
        /// MAC arrival → packet payload and receive descriptor
        /// write-back absorbed in host memory (pure PCIe/hardware time;
        /// nests the DMA stage breakdown of [`Stage`]).
        RxDma => "rx_dma",
        /// Host-visible → the driver *knows*: interrupt coalescing
        /// wait, MSI write TLP and IRQ entry for interrupt-driven
        /// patterns, or the residual poll-loop gap for busy-polling
        /// patterns, or completion queue reaping for io_uring.
        Notify => "notify",
        /// Driver software per-packet receive work: skb allocation and
        /// protocol demux (kernel), mbuf handling (DPDK), XDP verdict +
        /// redirect (AF_XDP), CQE handling (io_uring). Serialised on
        /// the driver CPU, so batch queueing lands here.
        RxSoftware => "rx_sw",
        /// Application work on the delivered packet (the echo
        /// turnaround), including any copy out of driver buffers.
        App => "app",
        /// Response handed to the driver → transmit descriptor posted
        /// and the doorbell (or fill/submission-ring update) visible to
        /// the device; doorbell-batching wait lands here.
        TxPost => "tx_post",
        /// Doorbell visible → the device has fetched the transmit
        /// descriptor and the response payload (response on the wire).
        TxDma => "tx_dma",
    }
}

stage_set! {
    /// One stage of the per-RPC fabric pipeline, in pipeline order.
    ///
    /// The RPC-serving pipeline of `pcie-rpc` spans *two* devices and
    /// the switch between them: a request lands at the NIC, is
    /// RSS-steered to a queue, crosses the fabric to the accelerator,
    /// is served, and the response crosses back and leaves on the wire
    /// (wire arrival → response on the wire). The
    /// `fabric_req`/`fabric_resp` stages are where the host-bypass vs
    /// host-bounce datapaths diverge — under ACS redirect they absorb
    /// the root-complex hop and any IOMMU TLB misses, so the
    /// bypass-vs-bounce gap is directly readable from the stage means.
    pub enum RpcStage {
        group: "rpc.stages",
        count_key: "rpcs",
        // 200 µs, as for the driver path: RPC latencies stretch into
        // tens of microseconds once a deep ring queues behind a
        // saturated fabric or IOMMU walker.
        buckets: 50 ns x 4000,
        /// Wire arrival at the NIC → request payload absorbed into the
        /// NIC's staging buffer (ingress MAC/DMA serialisation,
        /// including any queueing behind earlier arrivals on the
        /// ingress engine).
        IngressDma => "ingress_dma",
        /// Request visible to the NIC pipeline → RSS hash computed and
        /// the request parked on its per-queue ring (fixed classify
        /// cost).
        Steer => "steer",
        /// Queue issue → request bytes absorbed by the accelerator
        /// across the fabric (P2P write through the switch; under ACS
        /// redirect this includes the root-complex hop and IOMMU
        /// translations).
        FabricReq => "fabric_req",
        /// Request absorbed at the accelerator → response ready
        /// (service core queueing + the configured service time).
        AccelService => "accel_service",
        /// Response issue → response bytes absorbed back at the NIC
        /// across the fabric (the return P2P write; same bypass/bounce
        /// split as `fabric_req`).
        FabricResp => "fabric_resp",
        /// Response at the NIC → response on the wire (egress MAC/DMA
        /// serialisation, including queueing on the egress engine).
        EgressDma => "egress_dma",
    }
}

/// Per-stage durations (ns) for one item's trip through pipeline `S`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSample<S: StageSet> {
    /// Duration of each stage, indexed per [`StageSet::index`]; slots
    /// past `S::ALL.len()` stay zero.
    ns: [f64; MAX_STAGES],
    set: PhantomData<S>,
}

impl<S: StageSet> Default for StageSample<S> {
    fn default() -> Self {
        StageSample {
            ns: [0.0; MAX_STAGES],
            set: PhantomData,
        }
    }
}

impl<S: StageSet> StageSample<S> {
    /// Sets one stage's duration, clamped at zero; chainable.
    pub fn set(&mut self, stage: S, ns: f64) -> &mut Self {
        self.ns[stage.index()] = ns.max(0.0);
        self
    }

    /// Duration of one stage.
    pub fn get(&self, stage: S) -> f64 {
        self.ns[stage.index()]
    }

    /// Sum over all stages — by construction the end-to-end latency.
    pub fn total_ns(&self) -> f64 {
        self.ns[..S::ALL.len()].iter().sum()
    }
}

/// Accumulated stage attribution over many items of pipeline `S`:
/// per-stage totals and histograms plus an end-to-end histogram.
#[derive(Debug, Clone)]
pub struct StageBreakdown<S: StageSet> {
    /// Per-stage accumulated nanoseconds, indexed per
    /// [`StageSet::index`].
    totals_ns: [f64; MAX_STAGES],
    /// Per-stage latency histograms.
    per_stage: Vec<LatencyHistogram>,
    /// End-to-end latency histogram.
    end_to_end: LatencyHistogram,
    /// Number of items recorded.
    count: u64,
    set: PhantomData<S>,
}

impl<S: StageSet> Default for StageBreakdown<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: StageSet> StageBreakdown<S> {
    /// Creates an empty accumulator with `S`'s histogram geometry.
    pub fn new() -> Self {
        const { assert!(S::ALL.len() <= MAX_STAGES) };
        let hist = || LatencyHistogram::new(S::BUCKET_WIDTH_NS, S::BUCKETS);
        StageBreakdown {
            totals_ns: [0.0; MAX_STAGES],
            per_stage: S::ALL.iter().map(|_| hist()).collect(),
            end_to_end: hist(),
            count: 0,
            set: PhantomData,
        }
    }

    /// Records one item's stage breakdown.
    pub fn record(&mut self, sample: &StageSample<S>) {
        for (i, h) in self.per_stage.iter_mut().enumerate() {
            let v = sample.ns[i];
            self.totals_ns[i] += v;
            h.record_ns(v);
        }
        self.end_to_end.record_ns(sample.total_ns());
        self.count += 1;
    }

    /// Folds `other` into `self`, so accumulators recorded
    /// independently (one per queue, one per `pcie-par` worker)
    /// aggregate into exact whole-run stage totals and quantiles.
    pub fn merge(&mut self, other: &StageBreakdown<S>) {
        for (i, h) in self.per_stage.iter_mut().enumerate() {
            self.totals_ns[i] += other.totals_ns[i];
            h.merge(&other.per_stage[i]);
        }
        self.end_to_end.merge(&other.end_to_end);
        self.count += other.count;
    }

    /// Number of items recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Accumulated nanoseconds in one stage.
    pub fn total_ns(&self, stage: S) -> f64 {
        self.totals_ns[stage.index()]
    }

    /// Mean contribution of one stage per item, ns.
    pub fn mean_ns(&self, stage: S) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns(stage) / self.count as f64
        }
    }

    /// Sum of all per-stage totals — equals the end-to-end total
    /// within floating-point rounding.
    pub fn grand_total_ns(&self) -> f64 {
        self.totals_ns[..S::ALL.len()].iter().sum()
    }

    /// Whether the stage totals reconcile with the end-to-end total
    /// (equal up to summation order, 1e-6 relative): the telescoping
    /// invariant every pipeline asserts.
    pub fn telescopes(&self) -> bool {
        let grand = self.grand_total_ns();
        (grand - self.end_to_end.total_ns()).abs() <= 1e-6 * grand.max(1.0)
    }

    /// The per-stage histogram.
    pub fn histogram(&self, stage: S) -> &LatencyHistogram {
        &self.per_stage[stage.index()]
    }

    /// The end-to-end latency histogram.
    pub fn end_to_end(&self) -> &LatencyHistogram {
        &self.end_to_end
    }

    /// The stage totals as the `S::GROUP` counter group: the item
    /// count, one `<stage>_total_ns` per stage and
    /// `end_to_end_total_ns`, so snapshots carry the breakdown
    /// alongside the component counters.
    pub fn telemetry_group(&self) -> CounterGroup {
        let mut g = CounterGroup::new(S::GROUP);
        g.push(S::COUNT_KEY, self.count);
        for (&key, &total) in S::TOTAL_KEYS.iter().zip(&self.totals_ns) {
            g.push(key, total as u64);
        }
        g.push("end_to_end_total_ns", self.end_to_end.total_ns() as u64);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a generic check over every stage set.
    macro_rules! for_each_set {
        ($check:ident) => {
            $check::<Stage>();
            $check::<DriverStage>();
            $check::<RpcStage>();
        };
    }

    /// A sample with stage `i` set to `base + 10 i` ns.
    fn ramp<S: StageSet>(base: f64) -> StageSample<S> {
        let mut s = StageSample::default();
        for (i, &stage) in S::ALL.iter().enumerate() {
            s.set(stage, base + 10.0 * i as f64);
        }
        s
    }

    #[test]
    fn sample_sum_is_total() {
        fn check<S: StageSet>() {
            let s = ramp::<S>(2.5);
            let n = S::ALL.len() as f64;
            let want = 2.5 * n + 10.0 * n * (n - 1.0) / 2.0;
            assert!((s.total_ns() - want).abs() < 1e-9, "{:?}", S::ALL);
            assert_eq!(s.get(S::ALL[1]), 12.5);
        }
        for_each_set!(check);
    }

    #[test]
    fn negative_stage_duration_clamps() {
        fn check<S: StageSet>() {
            let mut s = StageSample::<S>::default();
            for &stage in S::ALL {
                s.set(stage, -1e-12);
                assert_eq!(s.get(stage), 0.0, "{stage:?}");
            }
        }
        for_each_set!(check);
    }

    #[test]
    fn stats_accumulate_and_reconcile() {
        fn check<S: StageSet>() {
            let mut stats = StageBreakdown::<S>::new();
            for i in 0..100 {
                let mut s = ramp::<S>(5.0);
                s.set(S::ALL[0], 200.0 + i as f64);
                stats.record(&s);
            }
            assert_eq!(stats.count(), 100);
            assert_eq!(stats.end_to_end().count(), 100);
            for &stage in S::ALL {
                assert_eq!(stats.histogram(stage).count(), 100, "{stage:?}");
            }
            let e2e = stats.end_to_end().total_ns();
            assert!((stats.grand_total_ns() - e2e).abs() < 1e-6, "{:?}", S::ALL);
            assert!(stats.telescopes());
            assert!((stats.mean_ns(S::ALL[1]) - 15.0).abs() < 1e-9);
            assert!((stats.mean_ns(S::ALL[0]) - 249.5).abs() < 1e-9);
            stats.totals_ns[0] += 1.0;
            assert!(!stats.telescopes(), "a lost nanosecond must show");
        }
        for_each_set!(check);
    }

    #[test]
    fn stage_names_keys_and_indices_are_stable() {
        fn check<S: StageSet>(names: &[&str]) {
            assert_eq!(S::NAMES, names);
            assert_eq!(S::ALL.len(), names.len());
            assert!(S::ALL.len() <= MAX_STAGES);
            for (i, &stage) in S::ALL.iter().enumerate() {
                assert_eq!(stage.index(), i);
                assert_eq!(stage.name(), names[i]);
                assert_eq!(S::TOTAL_KEYS[i], format!("{}_total_ns", names[i]));
            }
            assert_eq!(S::TOTAL_KEYS.len(), names.len());
        }
        check::<Stage>(&[
            "issue",
            "tag_alloc",
            "request_wire",
            "host",
            "completion_wire",
            "replay",
            "device_completion",
        ]);
        check::<DriverStage>(&["rx_dma", "notify", "rx_sw", "app", "tx_post", "tx_dma"]);
        check::<RpcStage>(&[
            "ingress_dma",
            "steer",
            "fabric_req",
            "accel_service",
            "fabric_resp",
            "egress_dma",
        ]);
    }

    #[test]
    fn telemetry_group_exports_totals() {
        // Group, count key and key order are what snapshots export:
        // the count, one `<name>_total_ns` per stage, the end-to-end
        // total.
        fn check<S: StageSet>(group: &str, count_key: &str) {
            let mut stats = StageBreakdown::<S>::new();
            let mut s = StageSample::default();
            s.set(S::ALL[0], 1000.0)
                .set(*S::ALL.last().unwrap(), 2000.0);
            stats.record(&s);
            let g = stats.telemetry_group();
            assert_eq!(g.component, group);
            let keys: Vec<&str> = g.counters().iter().map(|&(k, _)| k).collect();
            assert_eq!(keys[0], count_key);
            assert_eq!(keys[1..=S::ALL.len()], *S::TOTAL_KEYS);
            assert_eq!(keys[S::ALL.len() + 1..], ["end_to_end_total_ns"]);
            assert_eq!(g.get(count_key), Some(1));
            assert_eq!(g.get(S::TOTAL_KEYS[0]), Some(1000));
            assert_eq!(g.get(S::TOTAL_KEYS[S::ALL.len() - 1]), Some(2000));
            assert_eq!(g.get("end_to_end_total_ns"), Some(3000));
        }
        check::<Stage>("dma.stages", "transactions");
        check::<DriverStage>("driver.stages", "packets");
        check::<RpcStage>("rpc.stages", "rpcs");
    }

    #[test]
    fn long_tail_lands_in_histogram_not_overflow() {
        fn check<S: StageSet>(width_ns: u64, buckets: usize) {
            assert_eq!((S::BUCKET_WIDTH_NS, S::BUCKETS), (width_ns, buckets));
            // Three quarters of the range: 150 µs for the driver and
            // RPC sets (a coalescing wait, an IOMMU-walker backlog).
            let tail = (width_ns * buckets as u64 * 3 / 4) as f64;
            let mut stats = StageBreakdown::<S>::new();
            let mut s = StageSample::default();
            s.set(S::ALL[1], tail);
            stats.record(&s);
            assert_eq!(stats.histogram(S::ALL[1]).overflow(), 0);
            assert_eq!(stats.end_to_end().overflow(), 0);
        }
        check::<Stage>(25, 400);
        check::<DriverStage>(50, 4000);
        check::<RpcStage>(50, 4000);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        fn check<S: StageSet>() {
            let mut a = StageBreakdown::<S>::new();
            let mut b = StageBreakdown::<S>::new();
            let mut whole = StageBreakdown::<S>::new();
            for i in 0..10 {
                let s = ramp::<S>(500.0 + i as f64);
                if i % 2 == 0 {
                    a.record(&s);
                } else {
                    b.record(&s);
                }
                whole.record(&s);
            }
            a.merge(&b);
            assert_eq!(a.count(), whole.count());
            assert_eq!(a.end_to_end(), whole.end_to_end());
            for &stage in S::ALL {
                assert_eq!(a.histogram(stage), whole.histogram(stage));
                assert!((a.total_ns(stage) - whole.total_ns(stage)).abs() < 1e-9);
            }
        }
        for_each_set!(check);
    }
}
