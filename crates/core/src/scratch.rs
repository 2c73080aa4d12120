//! Reusable per-worker scratch buffers for the benchmark hot path.
//!
//! Every grid point of the §5.4 suite builds its own [`Platform`]
//! (that cost is the experiment), but three per-test allocations are
//! pure waste when repeated thousands of times: the access-order
//! buffer (one `u32` per unit of the window), the sample journal, and
//! the *host-side* LLC line arrays — a 15 MiB cache is ~250k lines
//! allocated and zeroed per platform. A [`BenchScratch`] owns all
//! three; each pool worker keeps one and threads it through every test
//! it executes, so after the largest test in a worker's share has run,
//! that worker allocates nothing more. Reuse recycles only capacity
//! (the order buffer is refilled by [`AccessSequence::with_buffer`],
//! cache buffers come back epoch-invalidated), so results stay
//! bit-identical to the allocate-fresh path.
//!
//! [`Platform`]: pcie_device::Platform
//! [`AccessSequence::with_buffer`]: crate::access::AccessSequence::with_buffer

use pcie_host::cache::CacheStorage;

/// Reusable buffers for [`run_latency_summary`](crate::lat::run_latency_summary)
/// and [`run_bandwidth_with`](crate::bw::run_bandwidth_with).
#[derive(Debug, Default)]
pub struct BenchScratch {
    /// Access-order buffer, recycled through
    /// [`AccessSequence::with_buffer`](crate::access::AccessSequence::with_buffer).
    pub(crate) order: Vec<u32>,
    /// Per-transaction latency journal, in issue order.
    pub(crate) samples: Vec<f64>,
    /// Retired LLC line buffers, recycled into the next platform.
    pub(crate) cache_pool: CacheStorage,
}

impl BenchScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current capacities `(order buffer, samples, pooled cache
    /// buffers)` — observability for tests asserting that reuse
    /// actually sticks.
    pub fn capacities(&self) -> (usize, usize, usize) {
        (
            self.order.capacity(),
            self.samples.capacity(),
            self.cache_pool.pooled(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_reports_capacity() {
        let s = BenchScratch::new();
        assert_eq!(s.capacities(), (0, 0, 0));
    }
}
