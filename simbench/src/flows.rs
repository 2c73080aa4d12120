//! `flows_million`: the million-flow engine at 0.8× and 1.2× capacity.
//!
//! Universe: 2 offered loads × 16 engine seeds. One cell is one
//! `FlowEngine::run` with 1.25 M concurrent flows over 8 RSS queues,
//! 200 k Poisson packets, bounded-Pareto flow lengths and IMIX sizes,
//! using ext_flows' service model. A round is one cell per load.

use crate::harness::{
    conserved, guarded, permutation, positive, CellOut, Clock, Fnv, Layers, Workload,
};
use pcie_flows::{
    ArrivalProcess, FlowEngine, FlowEngineConfig, FlowLength, FlowRunReport, ServiceModel,
    TrafficProfile,
};
use pcie_nic::traffic::Workload as Sizes;
use pcie_par::Pool;
use pcie_sim::{SimTime, SplitMix64};
use pciebench::BenchSetup;
use std::sync::Mutex;
use std::time::Instant;

const LOADS: [f64; 2] = [0.8, 1.2];
const SEEDS: usize = 16;
const FLOWS: u32 = 1_250_000;
const QUEUES: u32 = 8;
const PACKETS: u64 = 200_000;

/// ext_flows' per-queue service model.
fn service() -> ServiceModel {
    ServiceModel {
        rx_sw: SimTime::from_ns(400),
        app: SimTime::from_ns(100),
        ring_size: 256,
        ..ServiceModel::default()
    }
}

pub struct FlowsMillion {
    engines: Vec<FlowEngine>,
    setup: BenchSetup,
}

impl FlowsMillion {
    pub fn new() -> FlowsMillion {
        let capacity = service().capacity_pps() * f64::from(QUEUES);
        let mut engines = Vec::new();
        for &load in &LOADS {
            for k in 0..SEEDS {
                let cfg = FlowEngineConfig {
                    queues: QUEUES,
                    service: service(),
                    seed: SplitMix64::stream(0x5eed_f705, 0xF10A, k as u64).next_u64(),
                    ..FlowEngineConfig::default()
                };
                let profile = TrafficProfile {
                    flows: FLOWS,
                    packets: PACKETS,
                    arrival: ArrivalProcess::Poisson {
                        pps: load * capacity,
                    },
                    flow_length: FlowLength::BoundedPareto {
                        min: 1,
                        max: 10_000,
                        alpha: 1.2,
                    },
                    sizes: Sizes::Imix,
                };
                engines.push(FlowEngine::new(cfg, profile));
            }
        }
        FlowsMillion {
            engines,
            setup: BenchSetup::nfp6000_hsw(),
        }
    }

    fn cell(&self, i: usize, traced: bool, pool: &Pool) -> CellOut {
        guarded(i, Clock::Process, |out| {
            let e = &self.engines[i];
            let r = if traced {
                let layers = Mutex::new(Layers::default());
                let first_build = Mutex::new(None::<Instant>);
                let t0 = Instant::now();
                let r = e.run(pool, |_q| {
                    let t = Instant::now();
                    first_build
                        .lock()
                        .expect("no build panicked")
                        .get_or_insert(t);
                    let p = self.setup.build_nic_platform();
                    layers
                        .lock()
                        .expect("no build panicked")
                        .add("host.build_s", t.elapsed().as_secs_f64());
                    p
                });
                let run_s = t0.elapsed().as_secs_f64();
                let first = first_build
                    .into_inner()
                    .expect("no build panicked")
                    .unwrap_or(t0);
                let schedule_s = first.duration_since(t0).as_secs_f64();
                let l = &mut out.layers;
                l.merge(&layers.into_inner().expect("no build panicked"));
                l.add("flows.schedule_s", schedule_s);
                l.add("flows.fanout_s", run_s - schedule_s);
                l.add(crate::harness::CHILD_S, run_s);
                l.add("flows.table_inserts", r.table.inserts as f64);
                l.add("flows.offered", r.offered() as f64);
                l.add("flows.dropped", r.dropped() as f64);
                l.add("flows.imbalance_sum", r.imbalance());
                l.add("flows.runs", 1.0);
                r
            } else {
                e.run(pool, |_q| self.setup.build_nic_platform())
            };
            check(out, e, &r);
        })
    }
}

fn check(out: &mut CellOut, e: &FlowEngine, r: &FlowRunReport) {
    conserved(
        out,
        "offered == delivered + dropped",
        r.offered(),
        r.delivered() + r.dropped(),
    );
    conserved(
        out,
        "offered == profile packets",
        r.offered(),
        e.profile().packets,
    );
    positive(out, "p50 ns", r.p50_ns());
    positive(out, "p99 ns", r.p99_ns());
    positive(out, "delivered Mpps", r.delivered_mpps());
    out.results = Fnv::default().word(r.fingerprint()).finish();
    out.counts = Some(Fnv::default().snapshot(&r.snapshot("")).finish());
    out.ops = r.offered();
}

impl Workload for FlowsMillion {
    fn op_name(&self) -> &'static str {
        "packet"
    }

    fn universe(&self) -> Vec<String> {
        let mut keys = Vec::new();
        for &load in &LOADS {
            for k in 0..SEEDS {
                keys.push(format!("load{load}/seed{k}"));
            }
        }
        keys
    }

    fn round(&self, seed: u64, r: usize) -> Vec<usize> {
        (0..LOADS.len())
            .map(|li| li * SEEDS + permutation(seed, 0xF1_0000 + li as u64, SEEDS)[r % SEEDS])
            .collect()
    }

    fn run_round(&self, cells: &[usize], traced: bool, pool: &Pool) -> Vec<CellOut> {
        cells.iter().map(|&i| self.cell(i, traced, pool)).collect()
    }
}
