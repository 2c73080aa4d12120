//! A fast, deterministic hasher for simulator-internal maps.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3) is keyed per process
//! for HashDoS resistance — protection a closed simulator doesn't
//! need, at a cost the hot path can't afford: the host model's
//! write-fence map is probed once per cache line of every inbound DMA
//! read. [`FxHasher`] is the multiply-xor hash used by rustc
//! (one rotate, one xor, one multiply per word), unkeyed and therefore
//! identical across processes and runs, which the determinism pins
//! require of anything that could influence iteration order.
//!
//! Only use these maps with simulator-generated keys (addresses,
//! indices, handles) — never with externally controlled input.
//!
//! [`Fnv1a`] is the other hash here: a run *fingerprint*, not a map
//! hasher. Reports fold every observable counter into one `u64` that
//! tests pin by value, so its output must never change.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `BuildHasher` for [`FxHasher`]; `Default` yields the same hasher in
/// every process, keeping map behaviour reproducible.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc/Firefox "Fx" hash: fast on short integer keys, stable
/// across runs. Not cryptographic, not DoS-resistant.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// FNV-1a folded over whole `u64` words (xor the word, multiply by
/// the 64-bit FNV prime): stable, dependency-free and sensitive to
/// word order. Run reports and determinism tests digest their
/// observable state with it and pin the result by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// Starts from the 64-bit FNV offset basis.
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `words` into the digest, in order.
    pub fn eat(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hashers() {
        // Same value, fresh hashers: identical output (unkeyed).
        assert_eq!(hash_of(&0xdead_beefu64), hash_of(&0xdead_beefu64));
        assert_eq!(hash_of(&"fence"), hash_of(&"fence"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Cache-line addresses differ in low bits; make sure they
        // don't collide trivially.
        let hashes: std::collections::HashSet<u64> =
            (0..1000u64).map(|line| hash_of(&(line * 64))).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..100 {
            m.insert(i * 64, i as u32);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(42 * 64)), Some(&42));
        assert_eq!(m.get(&1), None);
    }

    #[test]
    fn fnv1a_is_pinned_and_order_sensitive() {
        let mut h = Fnv1a::default();
        h.eat([1, 2]);
        assert_eq!(h.finish(), 0x082f_2407_b4e8_902a);
        let mut swapped = Fnv1a::default();
        swapped.eat([2, 1]);
        assert_ne!(swapped.finish(), h.finish(), "word order matters");
    }

    #[test]
    fn partial_tail_bytes_hash() {
        // 3-byte write exercises the remainder path.
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
    }
}
