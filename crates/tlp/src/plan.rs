//! Closed-form split predicates: the common single-chunk cases of
//! [`crate::split`] decided with one branch instead of an iterator.
//!
//! Every mask in the split rules sees only the address bits *below*
//! the quantum, so whether a transfer splits at all is a closed-form
//! function of `(addr % quantum, len)`. The hot DMA paths use these
//! predicates to take a straight line for the small, aligned transfer
//! (one request, one completion, one posted write) and fall back to
//! the split iterators otherwise. Each predicate is proved against the
//! iterator it short-cuts in the tests below.

/// True iff a quantised split ([`crate::split::write_chunks`] /
/// [`crate::split::read_request_chunks`]) of `len` bytes at `addr` yields
/// exactly one chunk `(addr, len)`: the transfer fits between `addr`
/// and the next `quantum` boundary.
#[inline]
pub fn single_quantized_chunk(addr: u64, len: u32, quantum: u32) -> bool {
    debug_assert!(len > 0 && quantum.is_power_of_two());
    (addr & (quantum as u64 - 1)) + len as u64 <= quantum as u64
}

/// True iff the completion stream ([`crate::split::completion_chunks`]) of a
/// read of `len` bytes at `addr` is a single CplD `(addr, len)`.
///
/// Mirrors the iterator's first-step rule: an RCB-unaligned start may
/// only run to the next RCB boundary; an aligned start may run to the
/// next MPS boundary.
#[inline]
pub fn single_completion_chunk(addr: u64, len: u32, mps: u32, rcb: u32) -> bool {
    debug_assert!(len > 0 && mps.is_power_of_two() && rcb.is_power_of_two());
    let rcb_off = addr & (rcb as u64 - 1);
    let cap = if rcb_off != 0 {
        rcb as u64 - rcb_off
    } else {
        mps as u64 - (addr & (mps as u64 - 1))
    };
    len as u64 <= cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split;
    use pcie_sim::SplitMix64;

    #[test]
    fn single_chunk_predicates_match_iterators() {
        let mut rng = SplitMix64::new(0x51_AB5E);
        for _ in 0..2000 {
            let addr = rng.next_below(1 << 20);
            let len = rng.range(1, 4096) as u32;
            let q = 1u32 << rng.range(5, 10); // 32..512
            let chunks: Vec<_> = split::write_chunks(addr, len, q).collect();
            assert_eq!(
                single_quantized_chunk(addr, len, q),
                chunks.len() == 1,
                "addr={addr:#x} len={len} q={q}"
            );
            let (mps, rcb) = (q.max(64), 64u32.min(q));
            let cpls: Vec<_> = split::completion_chunks(addr, len, mps, rcb).collect();
            assert_eq!(
                single_completion_chunk(addr, len, mps, rcb),
                cpls.len() == 1,
                "addr={addr:#x} len={len} mps={mps} rcb={rcb}"
            );
        }
    }
}
