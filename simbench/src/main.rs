//! Host-time benchmark of the pcie-bench simulator.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! simbench [--seed <n>] [--seconds <s>]      # every workload, both passes
//! simbench --golden <name>                   # print a fresh golden table
//! ```
//!
//! See NOTES.md for the workloads, metrics and correctness checks.

mod drivers;
mod flows;
mod harness;
mod paper;
mod rpc;

use harness::{quantile, timed_pass, Clock, Golden, Layers, PassStats, Workload};
use pcie_par::Pool;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Workload names, in the order the all-workloads mode runs them.
const WORKLOADS: [&str; 4] = ["paper_grid", "flows_million", "rpc_fabric", "drivers_ber"];

/// The seed kept out of every tuning run, for confirming later claims.
const HELD_OUT_SEED: u64 = 7_919;

/// Set-up repetitions per pass; `setup_s` is their median.
const SETUP_REPS: usize = 7;

fn golden_text(name: &str) -> &'static str {
    match name {
        "paper_grid" => include_str!("../golden/paper_grid.txt"),
        "flows_million" => include_str!("../golden/flows_million.txt"),
        "rpc_fabric" => include_str!("../golden/rpc_fabric.txt"),
        _ => include_str!("../golden/drivers_ber.txt"),
    }
}

fn make(name: &str) -> Box<dyn Workload> {
    match name {
        "paper_grid" => Box::new(paper::PaperGrid::new()),
        "flows_million" => Box::new(flows::FlowsMillion::new()),
        "rpc_fabric" => Box::new(rpc::RpcFabric::new()),
        _ => Box::new(drivers::DriversBer::new()),
    }
}

/// Everything measured before the first cell: the workload's fixtures,
/// its universe keys, the parsed golden table, the pool, and warm-up
/// cells that allocate each worker's buffers.
struct Fixture {
    workload: Box<dyn Workload>,
    keys: Vec<String>,
    golden: Golden,
    pool: Pool,
}

fn set_up(name: &str, threads: usize, checks: &mut PassStats) -> Result<Fixture, String> {
    let workload = make(name);
    let keys = workload.universe();
    let golden = Golden::parse(golden_text(name))?;
    let pool = Pool::with_threads(threads);
    let warm = workload.round(0, 0);
    let outs = workload.run_round(&warm[..workload.warm_cells().min(warm.len())], false, &pool);
    for out in &outs {
        checks.record(&keys, &golden, out);
    }
    Ok(Fixture {
        workload,
        keys,
        golden,
        pool,
    })
}

/// Builds the fixture `SETUP_REPS` times and returns the last one, the
/// median set-up time in process CPU seconds (less the reference loops
/// of the warm-up cells), and the warm-up cells' checks.
fn timed_set_up(name: &str, threads: usize) -> Result<(Fixture, f64, PassStats), String> {
    let mut times = Vec::new();
    let mut checks = PassStats::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let cpu0 = harness::cpu_s(Clock::Process);
        let loops0: f64 = checks.ref_s.iter().sum();
        last = Some(set_up(name, threads, &mut checks)?);
        let loops: f64 = checks.ref_s.iter().sum::<f64>() - loops0;
        times.push(harness::cpu_s(Clock::Process) - cpu0 - loops);
    }
    Ok((
        last.expect("at least one set-up"),
        quantile(&times, 0.5),
        checks,
    ))
}

/// CPU brand string from `cpuid`, without reading any file.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        let max = __cpuid(0x8000_0000).eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::new();
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for w in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&w.to_le_bytes());
                }
            }
            return String::from_utf8_lossy(&bytes)
                .trim_matches(char::from(0))
                .trim()
                .to_string();
        }
    }
    "unknown".into()
}

fn descriptor(threads: usize) -> String {
    format!(
        "cpu=\"{}\" nproc={} rustc=\"{}\" pool_width={threads}",
        cpu_model(),
        pcie_par::default_threads(),
        env!("SIMBENCH_RUSTC"),
    )
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    golden: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: None,
        golden: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                })
            }
            "--golden" => a.golden = Some(value()?),
            f => return Err(format!("unknown argument {f}")),
        }
    }
    for w in a.workload.iter().chain(a.golden.iter()) {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w} (one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(a)
}

/// One metric line for the printout and the JSON object.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The bounded metrics, and the unscaled figures behind them. CPU times
/// are scaled to what they would be at the reference speed: by the
/// reference loop's nominal time over its median time after the warm-up
/// cells (`setup_s`) or after the measured cells (the rest). The
/// unscaled figures move with the host's speed; they are printed for
/// reference only.
fn end_to_end(st: &PassStats, warm: &PassStats, setup_s: f64) -> (Vec<Metric>, Vec<Metric>) {
    let (setup_loop_s, loop_s) = (quantile(&warm.ref_s, 0.5), quantile(&st.ref_s, 0.5));
    let (setup_k, k) = (
        harness::REF_NOMINAL_S / setup_loop_s,
        harness::REF_NOMINAL_S / loop_s,
    );
    let ops_s = st.ops as f64 / st.cpu_s;
    let p50_ms = quantile(&st.cell_cpu_s, 0.50) * 1e3;
    let p99_ms = quantile(&st.cell_cpu_s, 0.99) * 1e3;
    let bounded = vec![
        m("setup_s", "s", setup_s * setup_k),
        m("ops_per_ref_cpu_s", "1/s", ops_s / k),
        m("cell_ref_cpu_ms_p50", "ms", p50_ms * k),
        m("cell_ref_cpu_ms_p99", "ms", p99_ms * k),
        m("peak_rss_mb", "MiB", harness::peak_rss_mb()),
    ];
    let unscaled = vec![
        m("raw.setup_s", "s", setup_s),
        m("raw.ops_per_cpu_s", "1/s", ops_s),
        m("raw.cell_cpu_ms_p50", "ms", p50_ms),
        m("raw.cell_cpu_ms_p99", "ms", p99_ms),
        m("ref.setup_loop_us", "us", setup_loop_s * 1e6),
        m("ref.loop_us", "us", loop_s * 1e6),
    ];
    (bounded, unscaled)
}

/// Wall-clock counterparts of the CPU-time metrics, printed for
/// reference only: on a shared host they carry other tenants' noise.
fn wall_clock(st: &PassStats) -> Vec<Metric> {
    vec![
        m("wall.ops_per_s", "1/s", st.ops as f64 / st.wall_s),
        m("wall.cell_ms_p50", "ms", quantile(&st.cell_s, 0.50) * 1e3),
        m("wall.cell_ms_p99", "ms", quantile(&st.cell_s, 0.99) * 1e3),
    ]
}

fn per_layer(st: &PassStats, untraced: &PassStats) -> Vec<Metric> {
    let l: &Layers = &st.layers;
    let g = |k: &str| l.get(k);
    let cell_s: f64 = st.cell_s.iter().sum();
    let traced_rate = st.ops as f64 / st.cpu_s;
    let untraced_rate = untraced.ops as f64 / untraced.cpu_s;
    vec![
        m("core.self_s", "s", g("core.self_s")),
        m("core.cells", "count", g("core.cells")),
        m("host.build_s", "s", g("host.build_s")),
        m("host.warm_s", "s", g("host.warm_s")),
        m("host.llc_probes", "count", g("host.llc_probes")),
        m(
            "host.llc_hit_ratio",
            "ratio",
            ratio(g("host.llc_hits"), g("host.llc_probes")),
        ),
        m("host.iotlb_misses", "count", g("host.iotlb_misses")),
        m(
            "host.iotlb_hit_ratio",
            "ratio",
            ratio(
                g("host.iotlb_hits"),
                g("host.iotlb_hits") + g("host.iotlb_misses"),
            ),
        ),
        m("host.rc_tlps", "count", g("host.rc_tlps")),
        m("host.rc_queue_ns", "ns", g("host.rc_queue_ns")),
        m("device.warm_s", "s", g("device.warm_s")),
        m("device.warm_dmas", "count", g("device.warm_dmas")),
        m("device.dma_s", "s", g("device.dma_s")),
        m("device.dmas", "count", g("device.dmas")),
        m(
            "device.ns_per_dma",
            "ns",
            ratio(g("device.dma_s") * 1e9, g("device.dmas")),
        ),
        m("device.gate_stalls", "count", g("device.gate_stalls")),
        m("device.issue_queue_ns", "ns", g("device.issue_queue_ns")),
        m("link.tlps", "count", g("link.tlps")),
        m("link.dllps", "count", g("link.dllps")),
        m(
            "link.tlp_overhead",
            "ratio",
            ratio(g("link.tlp_bytes"), g("link.payload_bytes")),
        ),
        m("link.replays", "count", g("link.replays")),
        m("link.naks", "count", g("link.naks")),
        m(
            "link.replay_share",
            "ratio",
            ratio(g("link.replay_bytes"), g("link.tlp_bytes")),
        ),
        m("fault.injected_errors", "count", g("fault.injected_errors")),
        m(
            "drivers.kernel_irq.run_s",
            "s",
            g("drivers.kernel_irq.run_s"),
        ),
        m("drivers.dpdk_poll.run_s", "s", g("drivers.dpdk_poll.run_s")),
        m("drivers.af_xdp.run_s", "s", g("drivers.af_xdp.run_s")),
        m("drivers.io_uring.run_s", "s", g("drivers.io_uring.run_s")),
        m("drivers.build_s", "s", g("drivers.build_s")),
        m(
            "drivers.useful_poll_ratio",
            "ratio",
            ratio(
                g("drivers.polls"),
                g("drivers.polls") + g("drivers.empty_polls"),
            ),
        ),
        m("drivers.irqs", "count", g("drivers.irqs")),
        m("drivers.doorbells", "count", g("drivers.doorbells")),
        m("flows.schedule_s", "s", g("flows.schedule_s")),
        m("flows.fanout_s", "s", g("flows.fanout_s")),
        m("flows.table_inserts", "count", g("flows.table_inserts")),
        m(
            "flows.drop_rate",
            "ratio",
            ratio(g("flows.dropped"), g("flows.offered")),
        ),
        m(
            "flows.imbalance",
            "ratio",
            ratio(g("flows.imbalance_sum"), g("flows.runs")),
        ),
        m("rpc.bypass.run_s", "s", g("rpc.bypass.run_s")),
        m("rpc.bounce.run_s", "s", g("rpc.bounce.run_s")),
        m("rpc.redirects", "count", g("rpc.redirects")),
        m("topo.credit_stalls", "count", g("topo.credit_stalls")),
        m("topo.p2p_bytes", "bytes", g("topo.p2p_bytes")),
        m("topo.uplink_bytes", "bytes", g("topo.uplink_bytes")),
        m("par.busy_s", "s", g("par.busy_s")),
        m(
            "par.speedup",
            "ratio",
            ratio(g("par.busy_s"), g("par.wall_s")),
        ),
        m(
            "trace.overhead_pct",
            "%",
            (ratio(untraced_rate, traced_rate) - 1.0) * 100.0,
        ),
        m(
            "trace.unattributed_pct",
            "%",
            ratio(g("core.self_s"), cell_s) * 100.0,
        ),
    ]
}

fn print_metrics(tag: &str, ms: &[Metric]) {
    for x in ms {
        println!("{tag} {:<28} {:>16.6} {}", x.name, x.value, x.unit);
    }
}

fn print_failures(st: &PassStats) {
    for f in &st.failures {
        println!("FAILED {f}");
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, ms: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, x) in ms.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if x.value.is_finite() { x.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            x.name, x.unit
        );
    }
    s.push_str("}}");
    s
}

fn summary_line(name: &str, pass: &str, st: &PassStats, op: &str) {
    println!(
        "# {name} {pass}: {} cells in {} rounds, {} failed, {} {op}s in {:.3} s",
        st.attempted, st.rounds, st.failed, st.ops, st.wall_s
    );
}

/// A single pass of one workload, the form `BENCHMARK.json` names. With
/// tracing off the pool has one worker, so no cell's CPU time includes
/// contention with another worker. With tracing on the pool is `nproc`
/// wide, at most 2, so `par.*` shows the pool; the first half of the
/// time runs untraced (the overhead baseline) and the second half traced.
fn run_one(a: &Args, name: &str, traced: bool) -> Result<ExitCode, String> {
    let threads = if traced {
        pcie_par::default_threads().min(2)
    } else {
        1
    };
    println!(
        "# simbench {name} seed={} held_out_seed={HELD_OUT_SEED}",
        a.seed
    );
    println!("# machine {}", descriptor(threads));
    let (fx, setup_s, warm) = timed_set_up(name, threads)?;
    print_failures(&warm);
    let w = fx.workload.as_ref();
    let (ms, attempted, failed) = if traced {
        let half = a.seconds / 2.0;
        let base = timed_pass(w, &fx.keys, &fx.golden, a.seed, half, false, &fx.pool);
        let st = timed_pass(w, &fx.keys, &fx.golden, a.seed, half, true, &fx.pool);
        summary_line(name, "untraced", &base, w.op_name());
        summary_line(name, "traced", &st, w.op_name());
        print_failures(&base);
        print_failures(&st);
        let ms = per_layer(&st, &base);
        (ms, base.attempted + st.attempted, base.failed + st.failed)
    } else {
        let st = timed_pass(w, &fx.keys, &fx.golden, a.seed, a.seconds, false, &fx.pool);
        summary_line(name, "untraced", &st, w.op_name());
        print_failures(&st);
        print_metrics(name, &wall_clock(&st));
        print_metrics(
            name,
            &[m(
                "fail_pct",
                "%",
                ratio(st.failed as f64, st.attempted as f64) * 100.0,
            )],
        );
        let (ms, unscaled) = end_to_end(&st, &warm, setup_s);
        print_metrics(name, &unscaled);
        (ms, st.attempted, st.failed)
    };
    let (attempted, failed) = (attempted + warm.attempted, failed + warm.failed);
    print_metrics(name, &ms);
    println!("{}", result_json(failed == 0, attempted, failed, &ms));
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, untraced then traced, every metric printed. Each
/// pass runs as `--workload` in a process of its own, so `peak_rss_mb`
/// (the process's VmHWM) is that workload's own peak.
fn run_all(a: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (seed, seconds) = (a.seed.to_string(), a.seconds.to_string());
    let mut failed = Vec::new();
    for name in WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", name, "--seed", &seed])
                .args(["--seconds", &seconds, "--trace", trace])
                .status()
                .map_err(|e| format!("{name}: {e}"))?;
            if !status.success() {
                failed.push(format!("{name} --trace {trace}"));
            }
        }
    }
    println!("# {} failed passes: {failed:?}", failed.len());
    Ok(if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every cell of `name`'s universe untraced at pool width 1 and
/// traced at widths 1 and 2, and prints the golden table if all three
/// agree on every digest.
fn regen_golden(name: &str) -> Result<ExitCode, String> {
    let w = make(name);
    let keys = w.universe();
    let all: Vec<usize> = (0..keys.len()).collect();
    let mut runs = Vec::new();
    for (traced, width) in [(false, 1), (true, 1), (true, 2)] {
        let pool = Pool::with_threads(width);
        let mut outs = Vec::new();
        for chunk in all.chunks(64) {
            outs.extend(w.run_round(chunk, traced, &pool));
        }
        outs.sort_by_key(|o| o.cell);
        runs.push(outs);
    }
    let mut rows = Vec::new();
    let mut bad = 0;
    for i in 0..keys.len() {
        let (u, t1, t2) = (&runs[0][i], &runs[1][i], &runs[2][i]);
        let agree = u.error.is_none()
            && t1.error.is_none()
            && t2.error.is_none()
            && u.results == t1.results
            && t1.results == t2.results
            && t1.counts == t2.counts
            && u.counts.is_none_or(|c| Some(c) == t1.counts);
        if !agree {
            bad += 1;
            eprintln!(
                "{}: untraced/traced/width disagree or failed: {:?} {:?} {:?}",
                keys[i], u.error, t1.error, t2.error
            );
        }
        rows.push((keys[i].clone(), t1.results, t1.counts.unwrap_or(0)));
    }
    if bad > 0 {
        return Err(format!("{bad} cells disagree; no golden table written"));
    }
    print!(
        "{}",
        Golden::render(
            &format!(
                "simbench golden digests for {name}: cell results counts (FNV-1a, hex).\n\
                 Regenerate with: cargo run --release --manifest-path simbench/Cargo.toml -- --golden {name}"
            ),
            &rows
        )
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let r = parse_args().and_then(|a| match (&a.golden, &a.workload) {
        (Some(g), _) => regen_golden(g),
        (None, Some(w)) => run_one(&a, w, a.trace.unwrap_or(false)),
        (None, None) => run_all(&a),
    });
    r.unwrap_or_else(|e| {
        eprintln!("simbench: {e}");
        ExitCode::from(2)
    })
}
