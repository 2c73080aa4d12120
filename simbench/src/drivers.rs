//! `drivers_ber`: the driver zoo at closed-loop saturation over a link
//! with a symmetric bit-error rate of 1e-6.
//!
//! Universe: 64 platform seeds. One cell is one seed's ext_drivers
//! saturation grid: 4 patterns × {64, 1500} B, each one
//! `DriverSim::run` of 20 k packets on `build_nic_platform`, fanned
//! across the pool. A round is one cell.

use crate::harness::{
    absorb_pool, conserved, guarded, permutation, positive, CellOut, Clock, Fnv, Layers, Workload,
    CHILD_S,
};
use pcie_drivers::{
    DriverConfig, DriverPattern, DriverRunResult, DriverSim, OfferedLoad, PATTERNS,
};
use pcie_par::Pool;
use pcie_sim::SplitMix64;
use pcie_telemetry::Snapshot;
use pciebench::BenchSetup;

const SIZES: [u32; 2] = [64, 1500];
const SEEDS: usize = 64;
const PACKETS: u32 = 20_000;
const BER: f64 = 1e-6;

fn run_key(p: DriverPattern) -> &'static str {
    match p {
        DriverPattern::KernelIrq => "drivers.kernel_irq.run_s",
        DriverPattern::DpdkPoll => "drivers.dpdk_poll.run_s",
        DriverPattern::AfXdp => "drivers.af_xdp.run_s",
        DriverPattern::IoUring => "drivers.io_uring.run_s",
    }
}

/// One simulation of a cell: its result, its snapshot and, traced, its
/// layer sums.
type Sim = (DriverRunResult, Snapshot, Layers);

pub struct DriversBer {
    setups: Vec<BenchSetup>,
    cfg: DriverConfig,
}

impl DriversBer {
    pub fn new() -> DriversBer {
        let setups = (0..SEEDS)
            .map(|k| {
                let seed = SplitMix64::stream(0x5eed_d81f, 0xD81F, k as u64).next_u64();
                BenchSetup::nfp6000_hsw().with_seed(seed).with_ber(BER)
            })
            .collect();
        DriversBer {
            setups,
            cfg: DriverConfig::default().with_load(OfferedLoad::Saturate),
        }
    }

    fn sim(&self, setup: &BenchSetup, pattern: DriverPattern, size: u32, traced: bool) -> Sim {
        let mut l = Layers::default();
        if !traced {
            let mut sim = DriverSim::new(pattern, self.cfg, setup.build_nic_platform());
            let r = sim.run(size, PACKETS);
            return (r, sim.snapshot(""), l);
        }
        let platform = l.span("host.build_s", || setup.build_nic_platform());
        let mut sim = l.span("drivers.build_s", || {
            DriverSim::new(pattern, self.cfg, platform)
        });
        let r = l.span(run_key(pattern), || sim.run(size, PACKETS));
        let snap = sim.snapshot("");
        l.absorb_platform(&snap);
        let c = &sim.counters;
        l.add("drivers.polls", c.polls as f64);
        l.add("drivers.empty_polls", c.empty_polls as f64);
        l.add("drivers.irqs", c.irqs as f64);
        l.add("drivers.doorbells", c.doorbells as f64);
        (r, snap, l)
    }

    fn cell(&self, k: usize, traced: bool, pool: &Pool) -> CellOut {
        let setup = &self.setups[k];
        let grid: Vec<(DriverPattern, u32)> = PATTERNS
            .iter()
            .flat_map(|&p| SIZES.map(|sz| (p, sz)))
            .collect();
        guarded(k, Clock::Process, |out| {
            let (sims, stats) = pool.run_with_timed(
                grid.len(),
                || (),
                |_, j| {
                    let (pattern, size) = grid[j];
                    self.sim(setup, pattern, size, traced)
                },
            );
            let mut results = Fnv::default();
            let mut counts = Fnv::default();
            for (r, snap, l) in &sims {
                conserved(
                    out,
                    "offered == delivered + dropped + early drops",
                    r.offered,
                    r.delivered + r.dropped + r.early_drops,
                );
                conserved(out, "offered == packets", r.offered, u64::from(PACKETS));
                positive(out, "delivered Mpps", r.mpps);
                positive(out, "p99 ns", r.p99_ns);
                results
                    .word(r.offered)
                    .word(r.delivered)
                    .word(r.dropped)
                    .word(r.early_drops);
                results.word(r.elapsed.as_ps()).float(r.mpps).float(r.gbps);
                results.float(r.mean_ns).float(r.p50_ns).float(r.p99_ns);
                counts.snapshot(snap);
                out.ops += r.offered;
                out.layers.merge(l);
            }
            out.results = results.finish();
            out.counts = Some(counts.finish());
            if traced {
                // The simulations' spans overlap on the pool; the cell's
                // child is the grid's wall time.
                out.layers.0.remove(CHILD_S);
                out.layers.add(CHILD_S, stats.wall.as_secs_f64());
                absorb_pool(&mut out.layers, &stats);
            }
        })
    }
}

impl Workload for DriversBer {
    fn op_name(&self) -> &'static str {
        "packet"
    }

    fn universe(&self) -> Vec<String> {
        (0..SEEDS).map(|k| format!("seed{k}")).collect()
    }

    fn round(&self, seed: u64, r: usize) -> Vec<usize> {
        vec![permutation(seed, 0xD8_0000, SEEDS)[r % SEEDS]]
    }

    fn run_round(&self, cells: &[usize], traced: bool, pool: &Pool) -> Vec<CellOut> {
        cells.iter().map(|&i| self.cell(i, traced, pool)).collect()
    }
}
