//! # pcie-fault — deterministic fault injection for the PCIe path
//!
//! The paper's Eq. 1 budgets per-TLP sequence and LCRC bytes — the
//! machinery PCIe carries so the data-link layer can *detect and
//! replay* corrupted TLPs. The happy-path simulator never exercised
//! it; this crate supplies the error processes that do:
//!
//! * [`FaultPlan`] — a declarative, per-direction description of the
//!   injected faults: bit-error rate (converted to a per-TLP LCRC
//!   corruption probability from the TLP's wire length), burst errors,
//!   a targeted drop-the-nth-TLP, and poisoned-TLP (EP bit) injection,
//!   plus the DLL replay-timer and device completion-timeout values.
//! * [`Injector`] — the runtime: one seeded [`SplitMix64`] stream per
//!   link direction, forked from the benchmark's master seed, so fault
//!   arrivals are **bit-reproducible** per seed and independent of
//!   thread scheduling (each platform owns its injector, matching the
//!   §7 concurrency model of one platform per grid point).
//! * [`FaultCounters`] / [`DeviceErrorCounters`] — the link-level
//!   (`link.replay.*`) and AER-style device-level (`device.errors`)
//!   telemetry the error paths export.
//!
//! With [`FaultPlan::none`] every decision is the no-fault
//! [`Decision::default`], no RNG is consumed, and the simulation is
//! bit-identical to a build without the subsystem — pinned by
//! `tests/fault_free.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pcie_model::mix::Direction;
use pcie_sim::{SimTime, SplitMix64};

/// Fault processes for one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirFaults {
    /// Bit-error rate on the wire (probability per bit). Each TLP is
    /// corrupted with probability `1 - (1-ber)^bits`, so longer TLPs
    /// are proportionally more exposed — exactly why the paper's
    /// per-TLP LCRC bytes exist.
    pub ber: f64,
    /// Extra consecutive corruptions after a BER hit: the first replay
    /// attempts are corrupted too (models correlated/burst noise).
    pub burst: u32,
    /// Fraction of LCRC corruptions detected by replay-timer expiry
    /// instead of a NAK (the corruption garbled framing, or the NAK
    /// itself was lost): the retransmission waits a full
    /// [`FaultPlan::replay_timeout`] rather than a NAK round trip.
    pub timeout_fraction: f64,
    /// Probability a TLP is delivered with the EP (poisoned) bit set.
    pub poison_rate: f64,
    /// Targeted fault: drop exactly the `n`-th TLP (1-based ordinal on
    /// this direction) *above* the DLL — it is acknowledged at the
    /// link layer but never delivered, so only a completion timeout
    /// can catch it.
    pub drop_nth: Option<u64>,
    /// Targeted fault: poison exactly the `n`-th TLP (1-based).
    pub poison_nth: Option<u64>,
}

impl DirFaults {
    /// No faults on this direction.
    pub const fn none() -> Self {
        DirFaults {
            ber: 0.0,
            burst: 0,
            timeout_fraction: 0.0,
            poison_rate: 0.0,
            drop_nth: None,
            poison_nth: None,
        }
    }

    /// Whether any fault process is configured.
    pub fn is_active(&self) -> bool {
        self.ber > 0.0
            || self.poison_rate > 0.0
            || self.drop_nth.is_some()
            || self.poison_nth.is_some()
    }

    /// Per-TLP corruption probability for a TLP of `wire_bits` bits:
    /// `1 - (1-ber)^bits` (≈ `bits × ber` for small rates).
    pub fn tlp_error_probability(&self, wire_bits: u64) -> f64 {
        if self.ber <= 0.0 {
            return 0.0;
        }
        1.0 - (1.0 - self.ber).powf(wire_bits as f64)
    }

    /// Validates the probabilities.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("ber", self.ber),
            ("timeout_fraction", self.timeout_fraction),
            ("poison_rate", self.poison_rate),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} outside [0, 1]"));
            }
        }
        Ok(())
    }
}

/// A complete, declarative fault-injection plan for one platform.
///
/// Derived deterministically from the benchmark seed by [`Injector`];
/// [`FaultPlan::none`] is the identity plan under which every run is
/// bit-identical to a fault-free build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Faults on device → host traffic (DMA writes, read requests).
    pub upstream: DirFaults,
    /// Faults on host → device traffic (completions, PIO).
    pub downstream: DirFaults,
    /// DLL replay-timer value: how long the transmitter waits for an
    /// ACK before retransmitting unacknowledged TLPs on its own.
    pub replay_timeout: SimTime,
    /// Device completion timeout: how long the DMA engine waits for a
    /// read completion before re-issuing the request.
    pub completion_timeout: SimTime,
    /// Bound on consecutive DLL retransmissions of one TLP (a real
    /// link would retrain beyond this; we saturate instead).
    pub max_replays: u32,
    /// Bound on device-level re-issues of a timed-out / poisoned read
    /// before the DMA is aborted and counted in `device.errors`.
    pub max_read_retries: u32,
}

impl FaultPlan {
    /// The identity plan: no faults, spec-flavoured timeout defaults.
    pub const fn none() -> Self {
        FaultPlan {
            upstream: DirFaults::none(),
            downstream: DirFaults::none(),
            // ~2 µs: the order of a Gen3 x8 REPLAY_TIMER round.
            replay_timeout: SimTime::from_us(2),
            // Well under the spec's 50 µs default range A ceiling, but
            // long enough that no legitimate completion ever trips it.
            completion_timeout: SimTime::from_us(10),
            max_replays: 4,
            max_read_retries: 2,
        }
    }

    /// A symmetric bit-error-rate plan (both directions, no bursts).
    pub fn symmetric_ber(ber: f64) -> Self {
        let dir = DirFaults {
            ber,
            ..DirFaults::none()
        };
        FaultPlan {
            upstream: dir,
            downstream: dir,
            ..Self::none()
        }
    }

    /// The per-direction fault processes.
    pub fn dir(&self, dir: Direction) -> &DirFaults {
        match dir {
            Direction::Upstream => &self.upstream,
            Direction::Downstream => &self.downstream,
        }
    }

    /// Whether any fault process is configured on either direction.
    pub fn is_active(&self) -> bool {
        self.upstream.is_active() || self.downstream.is_active()
    }

    /// Validates both directions and the bounds.
    pub fn validate(&self) -> Result<(), String> {
        self.upstream.validate()?;
        self.downstream.validate()?;
        if self.max_replays == 0 {
            return Err("max_replays must be at least 1".into());
        }
        if self.replay_timeout == SimTime::ZERO || self.completion_timeout == SimTime::ZERO {
            return Err("timeouts must be nonzero".into());
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// The fault verdict for one TLP transmission.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Decision {
    /// Consecutive LCRC-corrupted transmission attempts before the TLP
    /// goes through (0 = clean first try). Each costs a replay.
    pub lcrc_failures: u32,
    /// The corruptions are detected by replay-timer expiry (no NAKs).
    pub timeout_detected: bool,
    /// The TLP is lost above the DLL (acknowledged, never delivered).
    pub dropped: bool,
    /// The TLP is delivered with the EP (poisoned) bit set.
    pub poisoned: bool,
}

impl Decision {
    /// A clean transmission.
    pub const CLEAN: Decision = Decision {
        lcrc_failures: 0,
        timeout_detected: false,
        dropped: false,
        poisoned: false,
    };
}

/// Link-level replay/fault counters for one direction — the
/// `link.replay.{upstream,downstream}` telemetry groups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// LCRC corruptions injected into TLPs on this direction.
    pub injected_errors: u64,
    /// TLP retransmissions serialised on this direction.
    pub replays: u64,
    /// Wire bytes spent on retransmissions (included in `tlp_bytes`).
    pub replay_bytes: u64,
    /// Replays triggered by replay-timer expiry rather than a NAK.
    pub timeout_replays: u64,
    /// NAK DLLPs sent on this direction (for errors on the opposite).
    pub naks: u64,
    /// TLPs dropped above the DLL on this direction.
    pub dropped: u64,
    /// TLPs delivered poisoned (EP bit) on this direction.
    pub poisoned: u64,
}

impl FaultCounters {
    /// Whether any fault event was recorded.
    pub fn any(&self) -> bool {
        self.injected_errors
            + self.replays
            + self.naks
            + self.dropped
            + self.poisoned
            + self.timeout_replays
            > 0
    }
}

/// AER-style device error counters — the `device.errors` group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceErrorCounters {
    /// Read requests whose completion never arrived in time.
    pub completion_timeouts: u64,
    /// Completions delivered with the EP bit set and discarded.
    pub poisoned_completions: u64,
    /// Read requests re-issued after a timeout or poisoned completion.
    pub read_retries: u64,
    /// Reads abandoned after exhausting the retry budget.
    pub read_aborts: u64,
    /// DMA writes lost above the DLL (never absorbed by the host).
    pub dropped_writes: u64,
    /// DMA writes delivered poisoned and discarded by the host.
    pub poisoned_writes: u64,
}

impl DeviceErrorCounters {
    /// Whether any error was recorded.
    pub fn any(&self) -> bool {
        self.completion_timeouts
            + self.poisoned_completions
            + self.read_retries
            + self.read_aborts
            + self.dropped_writes
            + self.poisoned_writes
            > 0
    }
}

/// Salt folded into the master seed (via [`SplitMix64::salted`]) so
/// fault streams never collide with the access-pattern or host-jitter
/// streams.
const FAULT_STREAM_SALT: u64 = 0x000F_A017_5EED_0BAD;

/// Entries in each direction's corruption-probability memo (1 KiB).
const MEMO_SLOTS: usize = 64;

struct DirInjector {
    rng: SplitMix64,
    /// 1-based ordinal of the next TLP on this direction.
    ordinal: u64,
    counters: FaultCounters,
    /// Direct-mapped memo of `(wire_bits, tlp_error_probability)`: a
    /// run sends only a handful of distinct wire lengths, so most TLPs
    /// skip the `powf`. Each entry is the value the definition returns
    /// for its key, so a hit is the same `f64` a fresh call gives.
    memo: [(u64, f64); MEMO_SLOTS],
}

impl DirInjector {
    fn new(rng: SplitMix64, faults: &DirFaults) -> Self {
        DirInjector {
            rng,
            ordinal: 0,
            counters: FaultCounters::default(),
            memo: [(0, faults.tlp_error_probability(0)); MEMO_SLOTS],
        }
    }

    /// [`DirFaults::tlp_error_probability`] of `faults` (this
    /// direction's plan) through the memo.
    fn error_probability(&mut self, faults: &DirFaults, wire_bits: u64) -> f64 {
        // Fibonacci hashing: the top 6 bits of the product.
        let slot = (wire_bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize;
        let entry = &mut self.memo[slot];
        if entry.0 != wire_bits {
            *entry = (wire_bits, faults.tlp_error_probability(wire_bits));
        }
        entry.1
    }
}

/// Per-link fault-injection runtime: the plan plus one independent,
/// seed-derived RNG stream and counter set per direction.
pub struct Injector {
    plan: FaultPlan,
    seed: u64,
    dirs: [DirInjector; 2],
}

fn di(dir: Direction) -> usize {
    match dir {
        Direction::Upstream => 0,
        Direction::Downstream => 1,
    }
}

impl Injector {
    /// Builds an injector for `plan`, deriving both direction streams
    /// from `seed`. Panics on an invalid plan.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        plan.validate().expect("invalid fault plan");
        let mut root = SplitMix64::salted(seed, FAULT_STREAM_SALT);
        let dirs = [
            DirInjector::new(root.fork(), &plan.upstream),
            DirInjector::new(root.fork(), &plan.downstream),
        ];
        Injector { plan, seed, dirs }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of the next TLP on `dir` (`wire_bits` long).
    /// Consumes RNG only for the probabilistic processes the plan
    /// actually enables, so targeted-only plans stay stream-stable.
    pub fn decide(&mut self, dir: Direction, wire_bits: u64) -> Decision {
        let df = *self.plan.dir(dir);
        let max_replays = self.plan.max_replays;
        let d = &mut self.dirs[di(dir)];
        d.ordinal += 1;
        let mut out = Decision::CLEAN;
        if df.drop_nth == Some(d.ordinal) {
            out.dropped = true;
        }
        if df.poison_nth == Some(d.ordinal) {
            out.poisoned = true;
        }
        if df.poison_rate > 0.0 && d.rng.chance(df.poison_rate) {
            out.poisoned = true;
        }
        if df.ber > 0.0 {
            let p = d.error_probability(&df, wire_bits);
            if d.rng.chance(p) {
                out.lcrc_failures = (1 + df.burst).min(max_replays);
                if df.timeout_fraction > 0.0 && d.rng.chance(df.timeout_fraction) {
                    out.timeout_detected = true;
                }
            }
        }
        out
    }

    /// The counters for `dir`.
    pub fn counters(&self, dir: Direction) -> &FaultCounters {
        &self.dirs[di(dir)].counters
    }

    /// Mutable counters for `dir` (the link records replay costs).
    pub fn counters_mut(&mut self, dir: Direction) -> &mut FaultCounters {
        &mut self.dirs[di(dir)].counters
    }

    /// Re-derives the RNG streams from the stored seed and zeroes the
    /// counters (benchmark reruns stay reproducible across resets).
    pub fn reset(&mut self) {
        *self = Injector::new(self.plan, self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inactive_and_clean() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        let mut inj = Injector::new(plan, 42);
        for _ in 0..1000 {
            assert_eq!(inj.decide(Direction::Upstream, 280 * 8), Decision::CLEAN);
        }
        assert!(!inj.counters(Direction::Upstream).any());
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let plan = FaultPlan::symmetric_ber(1e-6);
        let mut a = Injector::new(plan, 7);
        let mut b = Injector::new(plan, 7);
        for _ in 0..5000 {
            assert_eq!(
                a.decide(Direction::Upstream, 2240),
                b.decide(Direction::Upstream, 2240)
            );
        }
        let mut c = Injector::new(plan, 8);
        let same = (0..5000).all(|_| {
            a.decide(Direction::Downstream, 2240) == c.decide(Direction::Downstream, 2240)
        });
        assert!(!same, "different seeds must diverge");
    }

    #[test]
    fn error_probability_scales_with_tlp_length() {
        let df = DirFaults {
            ber: 1e-7,
            ..DirFaults::none()
        };
        let short = df.tlp_error_probability(24 * 8);
        let long = df.tlp_error_probability(2048 * 8);
        assert!(long > short * 50.0, "{short} vs {long}");
        assert!((0.0..1.0).contains(&short) && (0.0..1.0).contains(&long));
        assert_eq!(DirFaults::none().tlp_error_probability(1 << 20), 0.0);
    }

    #[test]
    fn ber_injects_at_roughly_the_expected_rate() {
        let plan = FaultPlan::symmetric_ber(1e-5);
        let mut inj = Injector::new(plan, 99);
        let bits = 280 * 8; // 256B MWr64
        let n = 50_000;
        let hits = (0..n)
            .filter(|_| inj.decide(Direction::Upstream, bits).lcrc_failures > 0)
            .count();
        let expected = n as f64 * plan.upstream.tlp_error_probability(bits);
        assert!(
            (hits as f64) > expected * 0.8 && (hits as f64) < expected * 1.2,
            "{hits} hits vs expected {expected}"
        );
    }

    #[test]
    fn targeted_drop_and_poison_hit_exactly_once() {
        let plan = FaultPlan {
            upstream: DirFaults {
                drop_nth: Some(3),
                poison_nth: Some(5),
                ..DirFaults::none()
            },
            ..FaultPlan::none()
        };
        assert!(plan.is_active());
        let mut inj = Injector::new(plan, 1);
        let fates: Vec<Decision> = (0..8)
            .map(|_| inj.decide(Direction::Upstream, 192))
            .collect();
        assert!(fates[2].dropped && fates.iter().filter(|f| f.dropped).count() == 1);
        assert!(fates[4].poisoned && fates.iter().filter(|f| f.poisoned).count() == 1);
        // The other direction is untouched.
        assert_eq!(inj.decide(Direction::Downstream, 192), Decision::CLEAN);
    }

    #[test]
    fn burst_extends_failures_up_to_the_replay_bound() {
        let plan = FaultPlan {
            upstream: DirFaults {
                ber: 0.5, // per-bit — effectively every TLP corrupted
                burst: 10,
                ..DirFaults::none()
            },
            max_replays: 4,
            ..FaultPlan::none()
        };
        let mut inj = Injector::new(plan, 3);
        let d = inj.decide(Direction::Upstream, 192);
        assert_eq!(d.lcrc_failures, 4, "capped at max_replays");
    }

    #[test]
    fn reset_replays_the_same_stream() {
        let plan = FaultPlan::symmetric_ber(1e-6);
        let mut inj = Injector::new(plan, 123);
        let first: Vec<Decision> = (0..500)
            .map(|_| inj.decide(Direction::Upstream, 2240))
            .collect();
        inj.counters_mut(Direction::Upstream).replays += 9;
        inj.reset();
        assert!(!inj.counters(Direction::Upstream).any());
        let second: Vec<Decision> = (0..500)
            .map(|_| inj.decide(Direction::Upstream, 2240))
            .collect();
        assert_eq!(first, second);
    }

    #[test]
    fn memoised_decide_matches_per_call_pow() {
        // `decide` as it was before the memo: a fresh `powf` per TLP,
        // the same RNG draws in the same order.
        struct PerCall {
            plan: FaultPlan,
            rngs: [SplitMix64; 2],
            ordinals: [u64; 2],
        }
        impl PerCall {
            fn decide(&mut self, dir: Direction, wire_bits: u64) -> Decision {
                let df = *self.plan.dir(dir);
                let (rng, ordinal) = (&mut self.rngs[di(dir)], &mut self.ordinals[di(dir)]);
                *ordinal += 1;
                let mut out = Decision::CLEAN;
                out.dropped = df.drop_nth == Some(*ordinal);
                out.poisoned = df.poison_nth == Some(*ordinal);
                if df.poison_rate > 0.0 && rng.chance(df.poison_rate) {
                    out.poisoned = true;
                }
                if df.ber > 0.0 {
                    let p = 1.0 - (1.0 - df.ber).powf(wire_bits as f64);
                    if rng.chance(p) {
                        out.lcrc_failures = (1 + df.burst).min(self.plan.max_replays);
                        if df.timeout_fraction > 0.0 && rng.chance(df.timeout_fraction) {
                            out.timeout_detected = true;
                        }
                    }
                }
                out
            }
        }

        // Asymmetric: different rates, bursts and timeout shares per
        // direction, plus targeted faults that must keep their ordinal.
        let plan = FaultPlan {
            upstream: DirFaults {
                ber: 2e-5,
                burst: 2,
                timeout_fraction: 0.3,
                poison_rate: 1e-3,
                drop_nth: Some(17),
                poison_nth: None,
            },
            downstream: DirFaults {
                ber: 7e-6,
                burst: 0,
                timeout_fraction: 0.0,
                poison_rate: 0.0,
                drop_nth: None,
                poison_nth: Some(40),
            },
            max_replays: 2,
            ..FaultPlan::none()
        };
        for seed in [1u64, 7919] {
            let mut memo = Injector::new(plan, seed);
            let mut root = SplitMix64::salted(seed, FAULT_STREAM_SALT);
            let mut reference = PerCall {
                plan,
                rngs: [root.fork(), root.fork()],
                ordinals: [0; 2],
            };
            // 300 distinct lengths (whole bytes and odd bit counts)
            // over 64 memo slots: every slot sees several keys, so hits,
            // misses and overwrites interleave.
            let lengths: Vec<u64> = (0..300u64)
                .map(|i| {
                    if i % 3 == 0 {
                        8 * (12 + i)
                    } else {
                        96 + 37 * i
                    }
                })
                .collect();
            let mut stream = SplitMix64::new(seed ^ 0xfa17);
            let mut corrupted = 0;
            for _ in 0..50_000 {
                let dir = if stream.chance(0.5) {
                    Direction::Upstream
                } else {
                    Direction::Downstream
                };
                // Mostly a few hot lengths, as in a real run, with a
                // tail of colliding ones.
                let bits = if stream.chance(0.8) {
                    lengths[stream.next_below(4) as usize]
                } else {
                    lengths[stream.next_below(lengths.len() as u64) as usize]
                };
                let d = memo.decide(dir, bits);
                assert_eq!(d, reference.decide(dir, bits), "{dir:?} {bits} bits");
                corrupted += u64::from(d.lcrc_failures > 0);
            }
            assert!(corrupted > 100, "the stream must exercise corruption");
            assert_eq!(memo.dirs[0].rng.next_u64(), reference.rngs[0].next_u64());
            assert_eq!(memo.dirs[1].rng.next_u64(), reference.rngs[1].next_u64());
        }
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut plan = FaultPlan::none();
        plan.upstream.ber = 1.5;
        assert!(plan.validate().is_err());
        let mut plan = FaultPlan::none();
        plan.max_replays = 0;
        assert!(plan.validate().is_err());
        assert!(FaultPlan::symmetric_ber(1e-9).validate().is_ok());
    }
}
