//! Bandwidth micro-benchmarks (§4.2): `BW_RD`, `BW_WR`, `BW_RDWR`.
//!
//! Many DMA worker threads issue transactions against a shared
//! transaction budget; bandwidth is the data moved divided by the time
//! the last transaction completes. For `BW_RDWR` the workers alternate:
//! a read when the shared counter is even, a write when odd (§5.1) —
//! which makes MRd TLPs compete with MWr TLPs for the upstream
//! direction. As in the paper's plots, `BW_RDWR` reports the payload
//! rate *per direction*.

use crate::access::AccessSequence;
use crate::params::BenchParams;
use crate::scratch::BenchScratch;
use crate::setup::BenchSetup;
use pcie_device::DmaPath;
use pcie_link::Direction;
use pcie_sim::SimTime;
use pcie_telemetry::Snapshot;

/// Which bandwidth benchmark to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BwOp {
    /// `BW_RD`: DMA reads only.
    Rd,
    /// `BW_WR`: DMA writes only.
    Wr,
    /// `BW_RDWR`: alternating reads and writes.
    RdWr,
}

impl BwOp {
    /// The benchmark's paper name.
    pub fn name(self) -> &'static str {
        match self {
            BwOp::Rd => "BW_RD",
            BwOp::Wr => "BW_WR",
            BwOp::RdWr => "BW_RDWR",
        }
    }
}

/// Result of a bandwidth run.
#[derive(Debug, Clone)]
pub struct BwResult {
    /// The benchmark run.
    pub op: BwOp,
    /// Geometry used.
    pub params: BenchParams,
    /// Transactions issued.
    pub transactions: usize,
    /// Achieved payload bandwidth in Gb/s (per direction for RDWR).
    pub gbps: f64,
    /// Transaction rate in millions/second.
    pub mtps: f64,
    /// Wall-clock (simulated) duration.
    pub elapsed: SimTime,
    /// DLL overhead fraction observed on (upstream, downstream).
    pub dll_overhead: (f64, f64),
    /// Cross-layer telemetry snapshot, present when the setup was
    /// built [`BenchSetup::with_telemetry`].
    pub telemetry: Option<Snapshot>,
}

/// Runs a bandwidth benchmark of `n` transactions.
pub fn run_bandwidth(
    setup: &BenchSetup,
    params: &BenchParams,
    op: BwOp,
    n: usize,
    path: DmaPath,
) -> BwResult {
    run_bandwidth_with(setup, params, op, n, path, &mut BenchScratch::new())
}

/// [`run_bandwidth`] drawing its access order into `scratch`'s
/// reusable buffer — the full-suite hot path. Results are
/// bit-identical to [`run_bandwidth`].
pub fn run_bandwidth_with(
    setup: &BenchSetup,
    params: &BenchParams,
    op: BwOp,
    n: usize,
    path: DmaPath,
    scratch: &mut BenchScratch,
) -> BwResult {
    assert!(n > 0);
    let (mut platform, buf) = setup.build_with(params, &mut scratch.cache_pool);
    let order = std::mem::take(&mut scratch.order);
    let mut offsets = AccessSequence::with_buffer(params, setup.seed ^ 0xBA4D, order);
    let mut last = SimTime::ZERO;
    for i in 0..n {
        let off = offsets.next_offset();
        let r = match op {
            BwOp::Rd => platform.dma_read(SimTime::ZERO, &buf, off, params.transfer, path),
            BwOp::Wr => platform.dma_write(SimTime::ZERO, &buf, off, params.transfer, path),
            // "each worker issues a DMA Read if the counter is even and
            // a DMA Write when the counter is odd" (§5.1).
            BwOp::RdWr => {
                if i % 2 == 0 {
                    platform.dma_read(SimTime::ZERO, &buf, off, params.transfer, path)
                } else {
                    platform.dma_write(SimTime::ZERO, &buf, off, params.transfer, path)
                }
            }
        };
        last = last.max(r.done);
    }
    scratch.order = offsets.into_buffer();
    let elapsed = last;
    let data_bytes = match op {
        BwOp::Rd | BwOp::Wr => n as u64 * params.transfer as u64,
        // Per-direction payload: half the transactions flow each way.
        // (With odd `n` the extra transaction is a read; the half-
        // transfer rounding is < 0.1% for any realistic n.)
        BwOp::RdWr => n as u64 * params.transfer as u64 / 2,
    };
    let gbps = data_bytes as f64 * 8.0 / elapsed.as_secs_f64() / 1e9;
    let mtps = n as f64 / elapsed.as_secs_f64() / 1e6;
    let up = platform.link().counters(Direction::Upstream);
    let down = platform.link().counters(Direction::Downstream);
    let dll_overhead = (up.dll_overhead_fraction(), down.dll_overhead_fraction());
    let telemetry = platform
        .telemetry_enabled()
        .then(|| platform.telemetry_snapshot(format!("{}/{}", op.name(), params.transfer)));
    platform.host.recycle_caches(&mut scratch.cache_pool);
    BwResult {
        op,
        params: *params,
        transactions: n,
        gbps,
        mtps,
        elapsed,
        dll_overhead,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_model::bandwidth as model;
    use pcie_model::config::LinkConfig;

    const N: usize = 8_000;

    fn bw(setup: &BenchSetup, transfer: u32, op: BwOp) -> f64 {
        run_bandwidth(
            setup,
            &BenchParams::baseline(transfer),
            op,
            N,
            DmaPath::DmaEngine,
        )
        .gbps
    }

    #[test]
    fn netfpga_follows_model_for_reads() {
        let setup = BenchSetup::netfpga_hsw();
        let link = LinkConfig::gen3_x8();
        for sz in [64u32, 256, 1024] {
            let sim = bw(&setup, sz, BwOp::Rd);
            let m = model::read_bandwidth(&link, sz) / 1e9;
            assert!(
                (sim - m).abs() / m < 0.10,
                "BW_RD {sz}B: sim {sim} vs model {m}"
            );
        }
    }

    #[test]
    fn netfpga_write_bw_at_or_above_model() {
        // §6.1: the model's flow-control estimate is conservative for
        // uni-directional traffic, so measured ≳ model.
        let setup = BenchSetup::netfpga_hsw();
        let link = LinkConfig::gen3_x8();
        for sz in [256u32, 1024] {
            let sim = bw(&setup, sz, BwOp::Wr);
            let m = model::write_bandwidth(&link, sz) / 1e9;
            assert!(sim > 0.97 * m, "BW_WR {sz}B: sim {sim} vs model {m}");
            assert!(sim < 1.15 * m, "BW_WR {sz}B: sim {sim} vs model {m}");
        }
    }

    #[test]
    fn nfp_reads_slower_than_netfpga_at_small_sizes() {
        // §6.1: the NFP's DMA-engine overheads cost throughput at small
        // transfer sizes.
        let nfp = BenchSetup::nfp6000_hsw();
        let netfpga = BenchSetup::netfpga_hsw();
        let a = bw(&nfp, 64, BwOp::Rd);
        let b = bw(&netfpga, 64, BwOp::Rd);
        assert!(a < b, "NFP {a} should trail NetFPGA {b} at 64B");
        // §6.4 quotes ~32 Gb/s for warm local 64B reads on the NFP.
        assert!((25.0..38.0).contains(&a), "NFP 64B BW_RD {a}");
    }

    #[test]
    fn rdwr_between_rd_and_link_limit() {
        let setup = BenchSetup::netfpga_hsw();
        let link = LinkConfig::gen3_x8();
        let sim = bw(&setup, 64, BwOp::RdWr);
        let m = model::read_write_bandwidth(&link, 64) / 1e9;
        assert!((sim - m).abs() / m < 0.15, "BW_RDWR 64B: {sim} vs {m}");
    }

    #[test]
    fn neither_read_rate_sustains_40g_at_64b_minus_overheads() {
        // "neither implementation is able to achieve a read throughput
        // required to transfer 40Gb/s Ethernet at line rate for small
        // packet sizes" — 64B requires only ~30.5G of payload, but
        // descriptors etc. eat the margin; here we simply check the
        // measured numbers sit in the right neighbourhood.
        let nfp = bw(&BenchSetup::nfp6000_hsw(), 64, BwOp::Rd);
        assert!(nfp < 40.0);
    }

    #[test]
    fn sawtooth_visible_in_sim() {
        let setup = BenchSetup::netfpga_hsw();
        let at_256 = bw(&setup, 256, BwOp::Wr);
        let at_257 = bw(&setup, 257, BwOp::Wr);
        assert!(
            at_257 < at_256,
            "257B ({at_257}) must dip below 256B ({at_256})"
        );
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let setup = BenchSetup::netfpga_hsw();
        let mut scratch = BenchScratch::new();
        for sz in [64u32, 257, 1024] {
            let p = BenchParams::baseline(sz);
            let fresh = run_bandwidth(&setup, &p, BwOp::RdWr, 500, DmaPath::DmaEngine);
            let reused = run_bandwidth_with(
                &setup,
                &p,
                BwOp::RdWr,
                500,
                DmaPath::DmaEngine,
                &mut scratch,
            );
            assert_eq!(fresh.gbps, reused.gbps, "size {sz}");
            assert_eq!(fresh.mtps, reused.mtps, "size {sz}");
            assert_eq!(fresh.elapsed, reused.elapsed, "size {sz}");
        }
    }

    #[test]
    fn result_metadata() {
        let setup = BenchSetup::netfpga_hsw();
        let r = run_bandwidth(
            &setup,
            &BenchParams::baseline(64),
            BwOp::Rd,
            1000,
            DmaPath::DmaEngine,
        );
        assert_eq!(r.transactions, 1000);
        assert!(r.mtps > 1.0);
        assert!(r.elapsed > SimTime::ZERO);
        assert!(r.dll_overhead.0 >= 0.0 && r.dll_overhead.1 > 0.0);
        assert_eq!(r.op.name(), "BW_RD");
    }
}
