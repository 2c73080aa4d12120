//! `rpc_fabric`: RPC serving over the switch at 0.8× the accelerator
//! capacity, host bypass and host bounce.
//!
//! Universe: 32 engine seeds. One cell is one seed's pair of
//! `RpcEngine::run`s, bypass then bounce, each of 200 k Poisson RPCs
//! over 4 queues: the comparison ext_rpc makes at one load point. A
//! round is one cell.

use crate::harness::{
    conserved, guarded, permutation, positive, CellOut, Clock, Fnv, Layers, Workload,
};
use pcie_par::Pool;
use pcie_rpc::{Datapath, RpcEngine, RpcEngineConfig, RpcProfile, RpcRunReport};
use pcie_sim::SplitMix64;

const PATHS: [Datapath; 2] = [Datapath::HostBypass, Datapath::HostBounce];
const SEEDS: usize = 32;
const QUEUES: u32 = 4;
const RPCS: u64 = 200_000;
const LOAD: f64 = 0.8;

pub struct RpcFabric {
    /// `[bypass, bounce]` engines per seed.
    engines: Vec<[RpcEngine; 2]>,
}

impl RpcFabric {
    pub fn new() -> RpcFabric {
        let engines = (0..SEEDS)
            .map(|k| {
                PATHS.map(|datapath| {
                    let cfg = RpcEngineConfig {
                        queues: QUEUES,
                        datapath,
                        seed: SplitMix64::stream(0x5eed_49c0, 0x49C0, k as u64).next_u64(),
                        ..RpcEngineConfig::default()
                    };
                    let rps = LOAD * cfg.capacity_rps();
                    RpcEngine::new(cfg, RpcProfile::standard(rps, RPCS))
                })
            })
            .collect();
        RpcFabric { engines }
    }

    fn cell(&self, i: usize, traced: bool, pool: &Pool) -> CellOut {
        guarded(i, Clock::Process, |out| {
            let mut results = Fnv::default();
            let mut counts = Fnv::default();
            for e in &self.engines[i] {
                let r = if traced {
                    let key = match e.config().datapath {
                        Datapath::HostBypass => "rpc.bypass.run_s",
                        Datapath::HostBounce => "rpc.bounce.run_s",
                    };
                    let r = out.layers.span(key, || e.run(pool));
                    absorb(&mut out.layers, &r);
                    r
                } else {
                    e.run(pool)
                };
                check(out, e, &r);
                results.word(r.fingerprint());
                counts.snapshot(&r.snapshot(""));
                out.ops += r.offered();
            }
            out.results = results.finish();
            out.counts = Some(counts.finish());
        })
    }
}

fn absorb(l: &mut Layers, r: &RpcRunReport) {
    l.add("rpc.redirects", r.p2p_redirects() as f64);
    l.add("host.iotlb_misses", r.iommu_misses() as f64);
    l.add(
        "host.iotlb_hits",
        r.queues.iter().map(|q| q.iommu_hits).sum::<u64>() as f64,
    );
    let stalls: u64 = r
        .queues
        .iter()
        .flat_map(|q| q.ports.iter())
        .map(|p| p.credit_stalls)
        .sum();
    l.add("topo.credit_stalls", stalls as f64);
    l.add("topo.p2p_bytes", r.p2p_in_bytes() as f64);
    let down: u64 = r.queues.iter().map(|q| q.uplink_down.1).sum();
    l.add("topo.uplink_bytes", (r.uplink_up_bytes() + down) as f64);
}

fn check(out: &mut CellOut, e: &RpcEngine, r: &RpcRunReport) {
    conserved(
        out,
        "offered == completed + dropped",
        r.offered(),
        r.completed() + r.dropped(),
    );
    conserved(
        out,
        "offered == profile RPCs",
        r.offered(),
        e.profile().rpcs,
    );
    positive(out, "p50 ns", r.p50_ns());
    positive(out, "p99 ns", r.p99_ns());
    positive(out, "completed Mrps", r.completed_mrps());
}

impl Workload for RpcFabric {
    fn op_name(&self) -> &'static str {
        "RPC"
    }

    fn universe(&self) -> Vec<String> {
        (0..SEEDS).map(|k| format!("seed{k}")).collect()
    }

    fn round(&self, seed: u64, r: usize) -> Vec<usize> {
        vec![permutation(seed, 0x49_0000, SEEDS)[r % SEEDS]]
    }

    fn run_round(&self, cells: &[usize], traced: bool, pool: &Pool) -> Vec<CellOut> {
        cells.iter().map(|&i| self.cell(i, traced, pool)).collect()
    }
}
