//! Cross-crate determinism: the whole stack — RNG, access patterns,
//! jitter, cache state, closed-loop scheduling — must be bit-for-bit
//! reproducible per seed. Reproducibility is the point of the suite.

use pcie_bench_repro::bench::{
    run_bandwidth, run_latency, BenchParams, BenchSetup, BwOp, CacheState, LatOp, Pattern,
};
use pcie_bench_repro::device::DmaPath;
use pcie_bench_repro::host::presets::NumaPlacement;

fn params() -> BenchParams {
    BenchParams {
        window: 64 * 1024,
        transfer: 64,
        offset: 0,
        pattern: Pattern::Random,
        cache: CacheState::HostWarm,
        placement: NumaPlacement::Local,
    }
}

#[test]
fn latency_runs_identical_per_seed() {
    let setup = BenchSetup::nfp6000_hsw();
    let a = run_latency(&setup, &params(), LatOp::Rd, 1_500, DmaPath::DmaEngine);
    let b = run_latency(&setup, &params(), LatOp::Rd, 1_500, DmaPath::DmaEngine);
    assert_eq!(a.samples_ns, b.samples_ns);
    assert_eq!(a.summary, b.summary);
}

#[test]
fn bandwidth_runs_identical_per_seed() {
    let setup = BenchSetup::netfpga_hsw();
    let a = run_bandwidth(&setup, &params(), BwOp::RdWr, 5_000, DmaPath::DmaEngine);
    let b = run_bandwidth(&setup, &params(), BwOp::RdWr, 5_000, DmaPath::DmaEngine);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.gbps.to_bits(), b.gbps.to_bits(), "bit-identical Gb/s");
}

#[test]
fn different_seeds_differ() {
    let a = run_latency(
        &BenchSetup::nfp6000_hsw(),
        &params(),
        LatOp::Rd,
        1_500,
        DmaPath::DmaEngine,
    );
    let b = run_latency(
        &BenchSetup::nfp6000_hsw().with_seed(999),
        &params(),
        LatOp::Rd,
        1_500,
        DmaPath::DmaEngine,
    );
    assert_ne!(a.samples_ns, b.samples_ns);
    // ...but the *distribution* is stable: medians within the NFP's
    // 19.2ns timestamp quantum plus one jitter step.
    assert!((a.summary.median - b.summary.median).abs() < 60.0);
}

#[test]
fn multi_chunk_reads_match_pinned_fingerprint() {
    // A seeded sweep of reads whose sizes force multi-chunk requests
    // and completions and whose offsets rotate the MPS/RCB alignment.
    // Every issue/done/absorbed instant, both directions' wire
    // counters (TLP *and* DLLP streams) and the host's byte ledger
    // are folded into one FNV-1a digest and pinned by value, so any
    // change to the multi-chunk read path's timing or accounting
    // shows up here.
    use pcie_bench_repro::link::Direction;
    use pcie_bench_repro::sim::hash::Fnv1a;
    use pcie_bench_repro::sim::{SimTime, SplitMix64};

    let p = BenchParams {
        window: 256 * 1024,
        transfer: 2048,
        ..params()
    };
    let (mut platform, buf) = BenchSetup::nfp6000_hsw().build(&p);
    let mut h = Fnv1a::default();
    let mut rng = SplitMix64::new(0x9d15_ab1e);
    let mut want = SimTime::ZERO;
    for _ in 0..300 {
        // Unaligned offsets and odd lengths exercise every split
        // family: single-chunk, RCB-straddling and MPS-bounded.
        let off = rng.range(0, p.window - 4096);
        let len = rng.range(1, 2049) as u32;
        let r = platform.dma_read(want, &buf, off, len, DmaPath::DmaEngine);
        want = r.done + SimTime::from_ns(60);
        h.eat([r.issued, r.done, r.absorbed].map(SimTime::as_ps));
    }
    for dir in [Direction::Upstream, Direction::Downstream] {
        let c = platform.link().counters(dir);
        h.eat([c.tlps, c.tlp_bytes, c.payload_bytes, c.dllps, c.dllp_bytes]);
    }
    let m = platform.host.stats();
    h.eat([
        m.read_tlps,
        m.write_tlps,
        m.bytes_read,
        m.bytes_written,
        m.remote_tlps,
        m.p2p_redirects,
    ]);
    let h = h.finish();
    assert_eq!(
        h, 0x9bdb_16c8_49f1_8daa,
        "multi-chunk read path changed: fingerprint {h:#018x}"
    );
}

#[test]
fn e3_tail_is_reproducible() {
    // Even the heavy-tailed E3 model must replay exactly.
    let setup = BenchSetup::nfp6000_hsw_e3();
    let a = run_latency(&setup, &params(), LatOp::Rd, 3_000, DmaPath::DmaEngine);
    let b = run_latency(&setup, &params(), LatOp::Rd, 3_000, DmaPath::DmaEngine);
    assert_eq!(a.samples_ns, b.samples_ns);
    assert!(a.summary.p999 > 2.0 * a.summary.median);
}
