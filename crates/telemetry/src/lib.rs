//! # pcie-telemetry — cross-layer observability for the simulator
//!
//! The paper's contribution is *attribution*: Table 2's findings rest
//! on knowing where in the PCIe path every nanosecond went — link
//! serialisation, LLC/DDIO hits, IOMMU TLB misses, DMA-engine
//! queueing. This crate is the substrate the rest of the workspace
//! uses to expose those internals:
//!
//! * [`CounterGroup`] / [`Snapshot`] — ordered, named per-component
//!   counter registries (link wire counters, cache hit/miss/writeback,
//!   IO-TLB hit/miss/page-walk, DMA-engine occupancy, credit stalls)
//!   assembled into one snapshot per benchmark run;
//! * [`LatencyHistogram`] — fixed-width-bucket latency histograms with
//!   a saturating overflow bucket, cheap enough to update per
//!   transaction;
//! * [`StageBreakdown`] — per-item stage attribution whose stage
//!   contributions sum exactly to the end-to-end latency, the
//!   simulator's answer to "*where* did the 400 ns go?" (paper §5–6,
//!   Figure 6 discussion). One generic accumulator serves three stage
//!   sets ([`StageSet`]): the per-DMA critical path [`Stage`] (`issue →
//!   tag_alloc → request_wire → host → completion_wire → replay →
//!   device_completion`), the per-packet driver path [`DriverStage`]
//!   used by `pcie-drivers` and `pcie-flows` (`rx_dma → notify → rx_sw
//!   → app → tx_post → tx_dma`, whose DMA stages nest the [`Stage`]
//!   breakdown), and the per-RPC fabric path [`RpcStage`] used by
//!   `pcie-rpc` (`ingress_dma → steer → fabric_req → accel_service →
//!   fabric_resp → egress_dma`). Accumulators merge, so per-queue
//!   workers aggregate into exact whole-run quantiles;
//! * JSON and CSV export ([`Snapshot::to_json`], [`Snapshot::to_csv`])
//!   with zero external dependencies, consumed by `repro_report`,
//!   `pciebench_cli` and the figure binaries.
//!
//! ## Zero-cost-when-disabled contract
//!
//! Telemetry never sits on a hot path unconditionally. Layers hold an
//! `Option<StageBreakdown<Stage>>`-style handle that is `None` unless
//! explicitly enabled (`BenchSetup::with_telemetry`,
//! `Platform::enable_telemetry`): disabled, the only cost is an
//! untaken branch per DMA; the aggregate counters that were already
//! maintained before this crate existed (wire counters, cache stats)
//! remain always-on. Benchmarks therefore run at identical throughput
//! with telemetry off.
//!
//! ```
//! use pcie_telemetry::{CounterGroup, LatencyHistogram, Snapshot};
//!
//! let mut g = CounterGroup::new("link.upstream");
//! g.push("tlps", 3).push("tlp_bytes", 264);
//! let mut h = LatencyHistogram::new(25, 400); // 25 ns buckets, 10 µs range
//! h.record_ns(437.0);
//! let mut snap = Snapshot::new("demo");
//! snap.add_group(g);
//! assert!(snap.to_json().contains("\"tlp_bytes\": 264"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod hist;
pub mod json;
pub mod snapshot;
pub mod stages;

pub use counters::CounterGroup;
pub use hist::LatencyHistogram;
pub use snapshot::{Snapshot, StageReport};
pub use stages::{DriverStage, RpcStage, Stage, StageBreakdown, StageSample, StageSet};
