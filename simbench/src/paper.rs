//! `paper_grid`: the §5.4 grid on NFP6000-HSW, with an IOMMU axis.
//!
//! Universe: LAT_RD, LAT_WRRD, BW_RD, BW_WR, BW_RDWR × 21 transfer
//! sizes (64–2048 B and ±1 B) × 8 windows (4 KiB–64 MiB) × Cold /
//! HostWarm / DeviceWarm × IOMMU off / 4 KiB, at offset 0 with a random
//! access order and `SuiteConfig::paper`'s transaction counts. A stratum
//! is one (IOMMU, window, cache state, benchmark); a round takes one
//! transfer size from every stratum, in a seeded per-stratum order, so
//! every round keeps every window × cache-state pair.

use crate::harness::{
    absorb_pool, across_pool, guarded, permutation, positive, CellOut, Clock, Fnv, Workload,
};
use pcie_device::{DmaPath, Platform};
use pcie_host::buffer::BufferAllocator;
use pcie_host::cache::CacheStorage;
use pcie_host::HostSystem;
use pcie_host::Iommu;
use pcie_par::Pool;
use pcie_sim::SimTime;
use pciebench::access::AccessSequence;
use pciebench::suite::{Measurement, SuiteJob, SuiteOp};
use pciebench::{
    BenchParams, BenchScratch, BenchSetup, BwOp, CacheState, IommuMode, LatOp, Pattern, Summary,
};
use std::collections::HashMap;
use std::sync::Mutex;

const OPS: [SuiteOp; 5] = [
    SuiteOp::Lat(LatOp::Rd),
    SuiteOp::Lat(LatOp::WrRd),
    SuiteOp::Bw(BwOp::Rd),
    SuiteOp::Bw(BwOp::Wr),
    SuiteOp::Bw(BwOp::RdWr),
];
/// Windows, largest first: a round starts with its longest cells so the
/// pool's tail stays short.
const WINDOWS: [u64; 8] = [
    64 << 20,
    16 << 20,
    4 << 20,
    1 << 20,
    256 << 10,
    64 << 10,
    16 << 10,
    4 << 10,
];
const STATES: [CacheState; 3] = [
    CacheState::Cold,
    CacheState::HostWarm,
    CacheState::DeviceWarm,
];
const IOMMU: [IommuMode; 2] = [IommuMode::Off, IommuMode::FourK];
const BASES: [u32; 7] = [64, 128, 256, 512, 1024, 1536, 2048];
const SIZES: usize = 21;
/// `SuiteConfig::paper` transaction counts.
const N_LAT: usize = 2_000;
const N_BW: usize = 20_000;
/// `run_latency_summary`'s gap between transactions (lat.rs).
const JOURNAL_GAP: SimTime = SimTime::from_ns(60);
/// Access-order salts of the latency and bandwidth loops (lat.rs, bw.rs).
const LAT_SALT: u64 = 0xACCE55;
const BW_SALT: u64 = 0xBA4D;

/// Transfer sizes every plan takes in round 0, at both IOMMU settings:
/// `(benchmark, window, cache state, transfer)`.
///
/// The two DeviceWarm cells show the DeviceWarm measurement defect
/// (NOTES.md). The eight 64 MiB cells are the first eight of their
/// window's block in a round, with the eight distinct access orders of
/// the smallest access units (64 B and 128 B). `BenchScratch` keeps the
/// last eight access orders, each a `u32` per unit of the window, so
/// these eight fill it to its largest footprint (24 MiB) in every run,
/// whatever transfer sizes the seed draws later: `peak_rss_mb` does not
/// depend on the draw.
const PINNED: [(&str, u64, CacheState, u32); 10] = [
    ("BW_WR", 64 << 20, CacheState::DeviceWarm, 64),
    ("BW_RD", 4 << 20, CacheState::DeviceWarm, 64),
    ("LAT_RD", 64 << 20, CacheState::Cold, 63),
    ("LAT_WRRD", 64 << 20, CacheState::Cold, 64),
    ("BW_RD", 64 << 20, CacheState::Cold, 63),
    ("BW_WR", 64 << 20, CacheState::Cold, 64),
    ("BW_RDWR", 64 << 20, CacheState::Cold, 65),
    ("LAT_RD", 64 << 20, CacheState::HostWarm, 65),
    ("LAT_WRRD", 64 << 20, CacheState::HostWarm, 127),
    ("BW_RD", 64 << 20, CacheState::HostWarm, 127),
];

#[derive(Debug, Clone, Copy)]
struct Cell {
    iommu: usize,
    op: SuiteOp,
    params: BenchParams,
    n: usize,
}

fn size(i: usize) -> u32 {
    BASES[i / 3] + (i % 3) as u32 - 1
}

fn op_name(op: SuiteOp) -> &'static str {
    match op {
        SuiteOp::Lat(o) => o.name(),
        SuiteOp::Bw(o) => o.name(),
    }
}

fn state_name(c: CacheState) -> &'static str {
    match c {
        CacheState::Cold => "cold",
        CacheState::HostWarm => "hostwarm",
        CacheState::DeviceWarm => "devicewarm",
    }
}

/// Per-worker state of the traced pass: an LLC buffer pool and a memo
/// of access-order prefixes, mirroring what `BenchScratch` keeps for
/// the untraced path.
#[derive(Default)]
struct TraceScratch {
    caches: CacheStorage,
    orders: HashMap<(u64, u32, u64), Vec<u64>>,
}

pub struct PaperGrid {
    setups: [BenchSetup; 2],
    cells: Vec<Cell>,
    scratch: Mutex<Vec<BenchScratch>>,
    trace_scratch: Mutex<Vec<TraceScratch>>,
}

impl PaperGrid {
    pub fn new() -> PaperGrid {
        let mut cells = Vec::new();
        for (iommu, _) in IOMMU.iter().enumerate() {
            for &window in &WINDOWS {
                for &cache in &STATES {
                    for &op in &OPS {
                        for s in 0..SIZES {
                            let params = BenchParams {
                                window,
                                transfer: size(s),
                                offset: 0,
                                pattern: Pattern::Random,
                                cache,
                                ..BenchParams::baseline(size(s))
                            };
                            params.validate().expect("paper grid geometry is valid");
                            let n = if matches!(op, SuiteOp::Lat(_)) {
                                N_LAT
                            } else {
                                N_BW
                            };
                            cells.push(Cell {
                                iommu,
                                op,
                                params,
                                n,
                            });
                        }
                    }
                }
            }
        }
        let base = BenchSetup::nfp6000_hsw();
        PaperGrid {
            setups: [base.clone(), base.with_iommu(IommuMode::FourK)],
            cells,
            scratch: Mutex::new(Vec::new()),
            trace_scratch: Mutex::new(Vec::new()),
        }
    }

    fn untraced(&self, scratch: &mut BenchScratch, i: usize) -> CellOut {
        let c = self.cells[i];
        guarded(i, Clock::Thread, |out| {
            let job = SuiteJob {
                params: c.params,
                op: c.op,
                n: c.n,
            };
            let e = job.run(&self.setups[c.iommu], scratch);
            finish(out, c, e.value);
        })
    }

    /// The cell with layer spans. The library gives no seam inside
    /// `SuiteJob::run`, so this mirrors `BenchSetup::build_with`
    /// (setup.rs), `measure` (lat.rs) and `run_bandwidth_with` (bw.rs)
    /// step for step from their public parts, and its spans time this
    /// copy, not those functions. Any change to those three, the
    /// DeviceWarm defect fix included, must change this function in the
    /// same commit, or `--golden paper_grid` refuses to write a table
    /// because the untraced and traced digests disagree.
    fn traced(&self, ts: &mut TraceScratch, i: usize) -> CellOut {
        let c = self.cells[i];
        let setup = &self.setups[c.iommu];
        guarded(i, Clock::Thread, |out| {
            let l = &mut out.layers;
            let p = &c.params;
            // BenchSetup::build_with, one public call at a time.
            let buf = BufferAllocator::default_layout().alloc(p.window.max(4096), 0);
            let mut pf = l.span("host.build_s", || {
                let mut host =
                    HostSystem::new_reusing(setup.preset.clone(), setup.seed, &mut ts.caches);
                host.set_iommu(match setup.iommu {
                    IommuMode::Off => None,
                    IommuMode::FourK => Some(Iommu::intel_4k()),
                    IommuMode::SuperPages => Some(Iommu::intel_superpages()),
                });
                Platform::new(setup.device, host, setup.link, setup.timing)
            });
            match p.cache {
                CacheState::Cold => l.span("host.warm_s", || pf.host.thrash_caches()),
                CacheState::HostWarm => {
                    l.span("host.warm_s", || pf.host.host_warm(&buf, 0, p.window))
                }
                CacheState::DeviceWarm => {
                    l.span("device.warm_s", || {
                        pf.device_warm(&buf, 0, p.window, setup.link.mps)
                    });
                    let warm = pf.telemetry_snapshot("");
                    let dmas = warm
                        .group("device.engine")
                        .and_then(|g| g.get("dma_writes"));
                    l.add("device.warm_dmas", dmas.unwrap_or(0) as f64);
                }
            }
            let salt = if matches!(c.op, SuiteOp::Lat(_)) {
                LAT_SALT
            } else {
                BW_SALT
            };
            if ts.orders.len() >= 16 {
                ts.orders.clear();
            }
            let offsets = ts
                .orders
                .entry((p.window, p.transfer, salt))
                .or_insert_with(|| {
                    let mut seq = AccessSequence::new(p, setup.seed ^ salt);
                    (0..c.n).map(|_| seq.next_offset()).collect()
                });
            let path = DmaPath::DmaEngine;
            let value = match c.op {
                SuiteOp::Lat(op) => {
                    let mut samples = Vec::with_capacity(c.n);
                    l.span("device.dma_s", || {
                        let mut now = SimTime::ZERO;
                        for &off in offsets.iter() {
                            let r = match op {
                                LatOp::Rd => pf.dma_read(now, &buf, off, p.transfer, path),
                                LatOp::WrRd => pf.dma_write_read(now, &buf, off, p.transfer, path),
                            };
                            samples.push(pf.quantize(r.latency()).as_ns_f64());
                            now = r.done + JOURNAL_GAP;
                        }
                    });
                    let s = Summary::from_unsorted_mut(&mut samples);
                    Measurement::LatencyNs {
                        median: s.median,
                        p95: s.p95,
                        p99: s.p99,
                    }
                }
                SuiteOp::Bw(op) => {
                    let last = l.span("device.dma_s", || {
                        let mut last = SimTime::ZERO;
                        for (k, &off) in offsets.iter().enumerate() {
                            let read = match op {
                                BwOp::Rd => true,
                                BwOp::Wr => false,
                                BwOp::RdWr => k % 2 == 0,
                            };
                            let r = if read {
                                pf.dma_read(SimTime::ZERO, &buf, off, p.transfer, path)
                            } else {
                                pf.dma_write(SimTime::ZERO, &buf, off, p.transfer, path)
                            };
                            last = last.max(r.done);
                        }
                        last
                    });
                    let bytes = match op {
                        BwOp::Rd | BwOp::Wr => c.n as u64 * p.transfer as u64,
                        BwOp::RdWr => c.n as u64 * p.transfer as u64 / 2,
                    };
                    Measurement::Bandwidth {
                        gbps: bytes as f64 * 8.0 / last.as_secs_f64() / 1e9,
                        mtps: c.n as f64 / last.as_secs_f64() / 1e6,
                    }
                }
            };
            l.add("device.dmas", c.n as f64);
            let snap = pf.telemetry_snapshot("");
            l.absorb_platform(&snap);
            out.counts = Some(Fnv::default().snapshot(&snap).finish());
            pf.host.recycle_caches(&mut ts.caches);
            finish(out, c, value);
        })
    }
}

fn finish(out: &mut CellOut, c: Cell, value: Measurement) {
    let mut h = Fnv::default();
    match value {
        Measurement::LatencyNs { median, p95, p99 } => {
            h.float(median).float(p95).float(p99);
            positive(out, "median latency ns", median);
            positive(out, "p99 latency ns", p99);
        }
        Measurement::Bandwidth { gbps, mtps } => {
            h.float(gbps).float(mtps);
            positive(out, "Gb/s", gbps);
            positive(out, "Mt/s", mtps);
        }
    }
    out.results = h.finish();
    out.ops = c.n as u64;
}

impl Workload for PaperGrid {
    fn op_name(&self) -> &'static str {
        "DMA transaction"
    }

    fn universe(&self) -> Vec<String> {
        self.cells
            .iter()
            .map(|c| {
                format!(
                    "{}/{}/{}/{}/{}",
                    op_name(c.op),
                    c.params.transfer,
                    c.params.window,
                    state_name(c.params.cache),
                    if c.iommu == 0 {
                        "iommu-off"
                    } else {
                        "iommu-4k"
                    }
                )
            })
            .collect()
    }

    fn round(&self, seed: u64, r: usize) -> Vec<usize> {
        (0..self.cells.len() / SIZES)
            .map(|stratum| {
                let first = &self.cells[stratum * SIZES];
                let mut order = permutation(seed, 0x9A9E_0000 + stratum as u64, SIZES);
                let pinned = PINNED.iter().find(|&&(b, w, c, _)| {
                    b == op_name(first.op) && w == first.params.window && c == first.params.cache
                });
                if let Some(&(_, _, _, t)) = pinned {
                    let at = order
                        .iter()
                        .position(|&s| size(s) == t)
                        .expect("size in grid");
                    order.swap(0, at);
                }
                stratum * SIZES + order[r % SIZES]
            })
            .collect()
    }

    fn warm_cells(&self) -> usize {
        // One per worker.
        2
    }

    fn min_cells(&self) -> usize {
        // At least ten cells beyond the reported p99.
        1_000
    }

    fn run_round(&self, cells: &[usize], traced: bool, pool: &Pool) -> Vec<CellOut> {
        if !traced {
            return across_pool(pool, cells, &self.scratch, BenchScratch::new, |s, i| {
                self.untraced(s, i)
            })
            .0;
        }
        let (mut outs, stats) = across_pool(
            pool,
            cells,
            &self.trace_scratch,
            TraceScratch::default,
            |s, i| self.traced(s, i),
        );
        absorb_pool(&mut outs[0].layers, &stats);
        outs
    }
}
