//! The workload-independent part of the benchmark: cell outcomes,
//! layer accumulators, digests, golden tables and the timed loop.

use pcie_par::{Pool, PoolStats};
use pcie_telemetry::Snapshot;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// FNV-1a over 64-bit words and byte strings — the digest every cell's
/// simulated output is reduced to.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        self
    }

    /// Folds a float in by its bit pattern.
    pub fn float(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    /// Folds a string in, length-prefixed.
    pub fn text(&mut self, s: &str) -> &mut Self {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
        self
    }

    /// Folds every counter of every group of a telemetry snapshot in,
    /// in snapshot order (the label is ignored).
    pub fn snapshot(&mut self, snap: &Snapshot) -> &mut Self {
        for g in snap.groups() {
            self.text(&g.component);
            for &(name, value) in g.counters() {
                self.text(name).word(value);
            }
        }
        self
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Named per-layer sums (seconds of host time and simulated counts),
/// keyed by the per-layer metric they feed.
#[derive(Debug, Clone, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `v` to `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    /// The sum under `key` (0 when never added).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Adds every sum of `other`.
    pub fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }

    /// Runs `f` as a span under `key`: its host time is added to `key`
    /// and to the enclosing cell's child time.
    pub fn span<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let s = t.elapsed().as_secs_f64();
        self.add(key, s);
        self.add(CHILD_S, s);
        out
    }

    /// Adds the simulated counts of a platform snapshot (link, host,
    /// device and fault groups) to the layer sums.
    pub fn absorb_platform(&mut self, snap: &Snapshot) {
        for g in snap.groups() {
            let c = |name: &str| g.get(name).unwrap_or(0) as f64;
            let comp = g.component.as_str();
            if comp.starts_with("link.") && comp.contains("replay") {
                self.add("link.replays", c("replays"));
                self.add("link.naks", c("naks"));
                self.add("link.replay_bytes", c("replay_bytes"));
                self.add("fault.injected_errors", c("injected_errors"));
            } else if comp.starts_with("link.") {
                self.add("link.tlps", c("tlps"));
                self.add("link.dllps", c("dllps"));
                self.add("link.tlp_bytes", c("tlp_bytes"));
                self.add("link.payload_bytes", c("payload_bytes"));
            } else if comp.starts_with("host.cache.") {
                let hits = c("read_hits") + c("write_hits");
                let probes = hits + c("read_misses") + c("write_allocs") + c("write_uncached");
                self.add("host.llc_hits", hits);
                self.add("host.llc_probes", probes);
            } else if comp == "host.iommu" {
                self.add("host.iotlb_hits", c("tlb_hits"));
                self.add("host.iotlb_misses", c("tlb_misses"));
            } else if comp == "host.rc" {
                self.add("host.rc_tlps", c("tlps_served"));
                self.add("host.rc_queue_ns", c("queue_ns"));
            } else if comp == "device.engine" {
                self.add("device.issue_queue_ns", c("issue_port_queue_ns"));
            } else if comp == "device.gates" {
                let stalls: u64 = g
                    .counters()
                    .iter()
                    .filter(|(n, _)| n.ends_with("_stalls"))
                    .map(|&(_, v)| v)
                    .sum();
                self.add("device.gate_stalls", stalls as f64);
            }
        }
    }
}

/// Layer key collecting the host time of a cell's child spans.
pub const CHILD_S: &str = "_child_s";

/// What one cell produced.
#[derive(Debug, Clone, Default)]
pub struct CellOut {
    /// Index of the cell in its workload's universe.
    pub cell: usize,
    /// Simulated operations the cell measured.
    pub ops: u64,
    /// Host wall seconds the cell took.
    pub host_s: f64,
    /// Host CPU seconds the cell took.
    pub cpu_s: f64,
    /// Thread CPU seconds of the reference loop run right after the cell.
    pub ref_s: f64,
    /// Digest of the cell's simulated results.
    pub results: u64,
    /// Digest of the cell's per-layer simulated counts, where the
    /// untraced path can see them (always in the traced pass).
    pub counts: Option<u64>,
    /// In-run invariant violation or panic message.
    pub error: Option<String>,
    /// Per-layer sums (traced pass only).
    pub layers: Layers,
}

/// Which CPU clock a cell is charged on.
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// The calling thread's: cells that run one per pool worker.
    Thread,
    /// The whole process's: cells that fan out across the pool
    /// themselves and run one at a time.
    Process,
}

/// Runs one cell, timing it and turning a panic into a failed cell.
/// Then runs the reference loop once, untimed by the cell, to sample the
/// host's current speed.
pub fn guarded(cell: usize, clock: Clock, f: impl FnOnce(&mut CellOut)) -> CellOut {
    let mut out = CellOut {
        cell,
        ..CellOut::default()
    };
    let cpu0 = cpu_s(clock);
    let t = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| f(&mut out)));
    out.host_s = t.elapsed().as_secs_f64();
    out.cpu_s = cpu_s(clock) - cpu0;
    out.ref_s = reference_loop_s();
    if let Err(p) = r {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        out.error = Some(format!("panicked: {msg}"));
    }
    if !out.layers.0.is_empty() {
        let child = out.layers.get(CHILD_S);
        out.layers.add("core.self_s", (out.host_s - child).max(0.0));
        out.layers.add("core.cells", 1.0);
        out.layers.0.remove(CHILD_S);
    }
    out
}

/// Steps of the reference loop.
const REF_STEPS: u64 = 100_000;

/// Thread CPU seconds the reference loop takes at the reference speed:
/// its median on the reference box (NOTES.md).
pub const REF_NOMINAL_S: f64 = 200e-6;

/// Thread CPU seconds of one pass of the reference loop: a fixed number
/// of SplitMix64 steps held in registers. It touches no memory, so its
/// time does not depend on what the cell before it left in the caches;
/// it tracks only how fast the host runs this thread at the moment.
#[inline(never)]
pub fn reference_loop_s() -> f64 {
    let t0 = cpu_s(Clock::Thread);
    let mut x = std::hint::black_box(0u64);
    let mut acc = 0u64;
    for _ in 0..REF_STEPS {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc ^= z ^ (z >> 31);
    }
    std::hint::black_box(acc);
    cpu_s(Clock::Thread) - t0
}

/// Fails the cell unless `x` is finite and positive.
pub fn positive(out: &mut CellOut, what: &str, x: f64) {
    if !(x.is_finite() && x > 0.0) && out.error.is_none() {
        out.error = Some(format!("{what} = {x} is not finite and positive"));
    }
}

/// Fails the cell unless the accounting identity holds.
pub fn conserved(out: &mut CellOut, what: &str, lhs: u64, rhs: u64) {
    if lhs != rhs && out.error.is_none() {
        out.error = Some(format!("{what}: {lhs} != {rhs}"));
    }
}

/// Records a pool run's busy and wall time in `l` (`par.*`).
pub fn absorb_pool(l: &mut Layers, stats: &PoolStats) {
    l.add("par.busy_s", stats.busy.as_secs_f64());
    l.add("par.wall_s", stats.wall.as_secs_f64());
}

/// Runs `cells` across `pool`, each worker leasing a long-lived state
/// from `states` (created with `make` on first use) so scratch buffers
/// survive from round to round.
pub fn across_pool<S: Send>(
    pool: &Pool,
    cells: &[usize],
    states: &Mutex<Vec<S>>,
    make: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize) -> CellOut + Sync,
) -> (Vec<CellOut>, PoolStats) {
    struct Lease<'a, S> {
        home: &'a Mutex<Vec<S>>,
        state: Option<S>,
    }
    impl<S> Drop for Lease<'_, S> {
        fn drop(&mut self) {
            // A poisoned pool only loses this state for reuse.
            if let (Some(s), Ok(mut home)) = (self.state.take(), self.home.lock()) {
                home.push(s);
            }
        }
    }
    pool.run_with_timed(
        cells.len(),
        || Lease {
            home: states,
            state: Some(
                states
                    .lock()
                    .expect("state pool unpoisoned: cells catch their panics")
                    .pop()
                    .unwrap_or_else(&make),
            ),
        },
        |lease, i| run(lease.state.as_mut().expect("leased"), cells[i]),
    )
}

/// One benchmark workload: a finite universe of cells with golden
/// digests, a seeded plan of rounds over it, and a way to run a round.
pub trait Workload: Sync {
    /// What one simulated operation is, for the printout.
    fn op_name(&self) -> &'static str;
    /// Keys of every cell, in universe order.
    fn universe(&self) -> Vec<String>;
    /// The cells of round `r` under `seed`. Every round has the same
    /// composition, so any number of whole rounds is a balanced load.
    fn round(&self, seed: u64, r: usize) -> Vec<usize>;
    /// Cells of seed 0's first round run untimed during set-up, so each
    /// worker's buffers are allocated before the first measured cell.
    fn warm_cells(&self) -> usize {
        1
    }
    /// Cells a run must measure at least (percentile support).
    fn min_cells(&self) -> usize {
        1
    }
    /// Runs one round.
    fn run_round(&self, cells: &[usize], traced: bool, pool: &Pool) -> Vec<CellOut>;
}

/// The committed golden digests of one workload: cell key →
/// (results digest, counts digest).
pub struct Golden(HashMap<String, (u64, u64)>);

impl Golden {
    /// Parses a golden table (`key results counts` per line, `#`
    /// comments).
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut map = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let hex =
                |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("line {}: {e}", i + 1));
            if f.len() != 3 {
                return Err(format!("line {}: expected 3 fields", i + 1));
            }
            map.insert(f[0].to_string(), (hex(f[1])?, hex(f[2])?));
        }
        Ok(Golden(map))
    }

    /// Renders a golden table.
    pub fn render(header: &str, rows: &[(String, u64, u64)]) -> String {
        let mut s = String::new();
        for l in header.lines() {
            s.push_str(&format!("# {l}\n"));
        }
        for (k, r, c) in rows {
            s.push_str(&format!("{k} {r:016x} {c:016x}\n"));
        }
        s
    }

    /// Checks a cell against its golden digests.
    pub fn check(&self, key: &str, out: &CellOut) -> Result<(), String> {
        let Some(&(r, c)) = self.0.get(key) else {
            return Err(format!("{key}: no golden digest"));
        };
        if out.results != r {
            return Err(format!(
                "{key}: results digest {:016x} != golden {r:016x}",
                out.results
            ));
        }
        match out.counts {
            Some(got) if got != c => Err(format!(
                "{key}: counts digest {got:016x} != golden {c:016x}"
            )),
            _ => Ok(()),
        }
    }
}

/// A seeded permutation of `0..n`.
pub fn permutation(seed: u64, salt: u64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    pcie_sim::SplitMix64::salted(seed, salt).shuffle(&mut v);
    v
}

/// Everything one timed pass measured.
#[derive(Debug, Default)]
pub struct PassStats {
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that panicked, broke an invariant or missed their golden
    /// digest.
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// Simulated operations measured.
    pub ops: u64,
    /// Host seconds of the measured phase.
    pub wall_s: f64,
    /// Host wall seconds of each cell.
    pub cell_s: Vec<f64>,
    /// Host CPU seconds of each cell.
    pub cell_cpu_s: Vec<f64>,
    /// Per-layer sums (traced pass).
    pub layers: Layers,
    /// Rounds run.
    pub rounds: usize,
    /// Process CPU seconds of the measured phase, less the reference
    /// loops run in it.
    pub cpu_s: f64,
    /// Thread CPU seconds of each reference loop run after a cell.
    pub ref_s: Vec<f64>,
}

impl PassStats {
    /// Counts `out` as attempted, and as failed if it broke an
    /// invariant, panicked or missed its golden digests.
    pub fn record(&mut self, keys: &[String], golden: &Golden, out: &CellOut) {
        self.attempted += 1;
        self.ref_s.push(out.ref_s);
        let key = &keys[out.cell];
        let verdict = match &out.error {
            Some(e) => Err(format!("{key}: {e}")),
            None => golden.check(key, out),
        };
        if let Err(e) = verdict {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }
}

/// Runs whole rounds of `w` under `seed` until `seconds` of host time
/// have passed and at least `min_cells` cells were measured, checking
/// every cell against `golden`.
pub fn timed_pass(
    w: &dyn Workload,
    keys: &[String],
    golden: &Golden,
    seed: u64,
    seconds: f64,
    traced: bool,
    pool: &Pool,
) -> PassStats {
    let mut st = PassStats::default();
    let t0 = Instant::now();
    let cpu0 = cpu_s(Clock::Process);
    loop {
        let cells = w.round(seed, st.rounds);
        let outs = w.run_round(&cells, traced, pool);
        for out in outs {
            st.record(keys, golden, &out);
            st.ops += out.ops;
            st.cell_s.push(out.host_s);
            st.cell_cpu_s.push(out.cpu_s);
            st.layers.merge(&out.layers);
        }
        st.rounds += 1;
        if t0.elapsed().as_secs_f64() >= seconds && st.cell_s.len() >= w.min_cells() {
            break;
        }
    }
    st.wall_s = t0.elapsed().as_secs_f64();
    st.cpu_s = cpu_s(Clock::Process) - cpu0 - st.ref_s.iter().sum::<f64>();
    st
}

/// CPU seconds consumed so far on `clock` (`clock_gettime` with the
/// thread or process CPU-time clock: nanosecond runtime accounting,
/// not tick sampling).
pub fn cpu_s(clock: Clock) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let id = match clock {
        Clock::Process => 2, // CLOCK_PROCESS_CPUTIME_ID
        Clock::Thread => 3,  // CLOCK_THREAD_CPUTIME_ID
    };
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` matches Linux's 64-bit `struct timespec`.
    if unsafe { clock_gettime(id, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set of this process image in MiB: `VmHWM` from
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` would also count the
/// parent's resident set at the time it forked this process.)
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
