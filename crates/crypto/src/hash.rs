//! A 256-bit hash built on the ChaCha20 permutation.
//!
//! The protocols only need a deterministic, uniform-looking, collision-
//! scarce digest (fragment fingerprints, commitments, beacon outputs). We
//! build a sponge over the well-studied ChaCha20 double-round permutation:
//! a 64-byte state absorbs 32-byte blocks into its rate half, applies 20
//! rounds, and squeezes the first 32 bytes after a padded final block.
//! This stands in for SHA-256, which is not available offline; see the
//! crate-level security disclaimer.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A 256-bit digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest (placeholder / sentinel).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// First 8 bytes as a little-endian integer — handy for seeding RNGs
    /// and leader lotteries from beacon outputs.
    pub fn to_u64(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "..")
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const ROUNDS: usize = 20;

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The ChaCha20 permutation (20 rounds of column/diagonal quarter-rounds)
/// with a Davies–Meyer style feed-forward to make it non-invertible.
fn permute(state: &mut [u32; 16]) {
    let input = *state;
    for _ in 0..ROUNDS / 2 {
        // Column rounds.
        quarter_round(state, 0, 4, 8, 12);
        quarter_round(state, 1, 5, 9, 13);
        quarter_round(state, 2, 6, 10, 14);
        quarter_round(state, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(state, 0, 5, 10, 15);
        quarter_round(state, 1, 6, 11, 12);
        quarter_round(state, 2, 7, 8, 13);
        quarter_round(state, 3, 4, 9, 14);
    }
    for (s, i) in state.iter_mut().zip(input) {
        *s = s.wrapping_add(i);
    }
}

/// Incremental hasher (sponge with 32-byte rate, 32-byte capacity).
///
/// # Examples
///
/// ```
/// use swiper_crypto::{hash, Hasher};
///
/// let mut h = Hasher::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), hash::digest(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Hasher {
    state: [u32; 16],
    buf: [u8; 32],
    buf_len: usize,
    total_len: u64,
}

impl Hasher {
    /// Fresh hasher with the "expand 32-byte k" constants in the capacity.
    pub fn new() -> Self {
        let mut state = [0u32; 16];
        // Capacity half initialized with the ChaCha constants, repeated.
        state[8] = 0x6170_7865;
        state[9] = 0x3320_646e;
        state[10] = 0x7962_2d32;
        state[11] = 0x6b20_6574;
        state[12] = 0x6170_7865;
        state[13] = 0x3320_646e;
        state[14] = 0x7962_2d32;
        state[15] = 0x6b20_6574;
        Hasher { state, buf: [0u8; 32], buf_len: 0, total_len: 0 }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        while !rest.is_empty() {
            let take = (32 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 32 {
                self.absorb_block();
            }
        }
    }

    /// Absorbs one length-framed part: its length as 8 little-endian
    /// bytes, then its bytes — the framing [`digest_parts`] gives each
    /// part. A hasher that has absorbed a shared prefix of parts can be
    /// cloned and finished per suffix, paying for the prefix once.
    pub fn update_part(&mut self, part: &[u8]) {
        self.update(&(part.len() as u64).to_le_bytes());
        self.update(part);
    }

    fn absorb_block(&mut self) {
        for i in 0..8 {
            let word =
                u32::from_le_bytes(self.buf[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
            self.state[i] ^= word;
        }
        permute(&mut self.state);
        self.buf_len = 0;
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Pad: 0x80, zeros, then the total length in the last 8 bytes
        // (flushing an extra block if the length does not fit).
        let len_bytes = self.total_len.to_le_bytes();
        self.buf[self.buf_len] = 0x80;
        for b in &mut self.buf[self.buf_len + 1..] {
            *b = 0;
        }
        if self.buf_len + 1 > 24 {
            self.absorb_block();
            self.buf = [0u8; 32];
        }
        self.buf[24..32].copy_from_slice(&len_bytes);
        self.buf_len = 32;
        self.absorb_block();
        let mut out = [0u8; 32];
        for i in 0..8 {
            out[i * 4..i * 4 + 4].copy_from_slice(&self.state[i].to_le_bytes());
        }
        Digest(out)
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

/// One-shot hash of a byte slice.
pub fn digest(data: &[u8]) -> Digest {
    let mut h = Hasher::new();
    h.update(data);
    h.finalize()
}

/// Hash of the concatenation of several labelled parts, with length framing
/// so that `(["ab", "c"])` and `(["a", "bc"])` differ.
pub fn digest_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Hasher::new();
    for p in parts {
        h.update_part(p);
    }
    h.finalize()
}

/// Maps a digest to a field element of `F_{2^61-1}` (for hash-to-field in
/// the simulated threshold schemes).
pub fn digest_to_f61(d: &Digest) -> swiper_field::F61 {
    swiper_field::F61::new(d.to_u64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_and_length_sensitive() {
        assert_eq!(digest(b"abc"), digest(b"abc"));
        assert_ne!(digest(b"abc"), digest(b"abd"));
        assert_ne!(digest(b""), digest(b"\0"));
        assert_ne!(digest(b"a"), digest(b"a\0"));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 31, 32, 33, 64, 999, 1000] {
            let mut h = Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), digest(&data), "split={split}");
        }
    }

    #[test]
    fn framing_prevents_concatenation_ambiguity() {
        assert_ne!(digest_parts(&[b"ab", b"c"]), digest_parts(&[b"a", b"bc"]));
        assert_ne!(digest_parts(&[b"ab"]), digest_parts(&[b"ab", b""]));
    }

    #[test]
    fn block_boundary_padding_cases() {
        // Lengths around the 24-byte length-field cutoff and the 32-byte
        // block size must all hash distinctly and deterministically.
        let mut seen = std::collections::HashSet::new();
        for len in 0..100usize {
            let data = vec![0x5Au8; len];
            let d = digest(&data);
            assert!(seen.insert(d), "collision at length {len}");
            assert_eq!(d, digest(&data));
        }
    }

    #[test]
    fn output_looks_uniform() {
        // Crude avalanche check: flipping one input bit changes ~half the
        // output bits.
        let a = digest(b"the quick brown fox");
        let b = digest(b"the quick brown foy");
        let differing: u32 = a.0.iter().zip(&b.0).map(|(x, y)| (x ^ y).count_ones()).sum();
        assert!(differing > 80 && differing < 176, "differing bits: {differing}");
    }

    #[test]
    fn digest_display_and_u64() {
        let d = digest(b"x");
        assert!(d.to_string().ends_with(".."));
        let _ = d.to_u64(); // just exercises the path
        assert_eq!(Digest::ZERO.to_u64(), 0);
    }

    proptest! {
        #[test]
        fn no_accidental_collisions(a in any::<Vec<u8>>(), b in any::<Vec<u8>>()) {
            if a != b {
                prop_assert_ne!(digest(&a), digest(&b));
            } else {
                prop_assert_eq!(digest(&a), digest(&b));
            }
        }

        #[test]
        fn arbitrary_split_points_agree(
            data in proptest::collection::vec(any::<u8>(), 0..200),
            splits in proptest::collection::vec(any::<proptest::sample::Index>(), 0..5),
        ) {
            let mut h = Hasher::new();
            let mut cuts: Vec<usize> =
                splits.iter().map(|ix| ix.index(data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut prev = 0;
            for c in cuts {
                h.update(&data[prev..c]);
                prev = c;
            }
            h.update(&data[prev..]);
            prop_assert_eq!(h.finalize(), digest(&data));
        }

        /// Absorbing a prefix of parts once and cloning the hasher per
        /// suffix is bit-identical to framing every part from scratch.
        #[test]
        fn cloned_prefix_matches_digest_parts(
            parts in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..80),
                0..6,
            ),
            split in any::<proptest::sample::Index>(),
        ) {
            let parts: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            let k = split.index(parts.len() + 1);
            let mut prefix = Hasher::new();
            for p in &parts[..k] {
                prefix.update_part(p);
            }
            let mut h = prefix.clone();
            for p in &parts[k..] {
                h.update_part(p);
            }
            prop_assert_eq!(h.finalize(), digest_parts(&parts));
        }
    }
}
