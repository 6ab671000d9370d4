//! Simulated threshold signatures and threshold encryption.
//!
//! **Substitution notice.** The paper instantiates its weighted threshold
//! primitives with BLS/RSA/Schnorr threshold signatures and ElGamal-style
//! threshold encryption. None of those are implementable offline without a
//! pairing/group library, and the paper's claims concern *share
//! allocation*, not the hardness assumptions. We therefore simulate the
//! group `g^x` by the field product `x * h` over `F_{2^61-1}`: everything
//! protocol-visible is preserved —
//!
//! * partials combine via Lagrange interpolation exactly like BLS shares
//!   combine in the exponent;
//! * partial signatures are verifiable against per-share verification keys
//!   (`sigma_i * h == vk_i * H(m)`);
//! * the combined signature is **unique and deterministic**
//!   (`sigma = s * H(m)`), the property randomness beacons require;
//! * per-operation cost is one field multiplication per share plus one
//!   Lagrange combination, mirroring the nominal cost model.
//!
//! The scheme is of course forgeable by dividing field elements; see the
//! crate-level disclaimer.

use rand::Rng;
use serde::{Deserialize, Serialize};
use swiper_field::{poly, Field, F61};

use crate::error::CryptoError;
use crate::hash::{digest_parts, digest_to_f61, Digest};

/// Hashes a message into a non-zero field element.
fn hash_to_field(msg: &[u8]) -> F61 {
    let d = digest_parts(&[b"swiper.thresh.h2f", msg]);
    let x = digest_to_f61(&d);
    if x.is_zero() {
        F61::ONE
    } else {
        x
    }
}

/// Interpolates at zero the first `threshold` of the `(index, value)`
/// points: a group secret from key shares, a signature from partials, a
/// decryption mask from decryption shares.
///
/// # Errors
///
/// * [`CryptoError::DuplicateShare`] on a repeated index (anywhere in the
///   input, not only among the first `threshold`).
/// * [`CryptoError::NotEnoughShares`] below the threshold.
fn interpolate_at_zero(
    threshold: usize,
    points: impl Iterator<Item = (u64, F61)>,
) -> Result<F61, CryptoError> {
    let mut seen = std::collections::HashSet::new();
    let mut used = Vec::with_capacity(threshold);
    for (index, value) in points {
        if !seen.insert(index) {
            return Err(CryptoError::DuplicateShare { index });
        }
        if used.len() < threshold {
            used.push((index, value));
        }
    }
    if used.len() < threshold {
        return Err(CryptoError::NotEnoughShares { needed: threshold, have: used.len() });
    }
    let xs: Vec<F61> = used.iter().map(|&(index, _)| F61::eval_point(index as usize)).collect();
    let lambdas = poly::lagrange_coefficients(&xs, F61::ZERO);
    Ok(used.iter().zip(lambdas).fold(F61::ZERO, |acc, (&(_, value), l)| acc + value * l))
}

/// A share of the signing key (one per virtual user).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyShare {
    /// Share index in `0..total`.
    pub index: u64,
    /// Secret scalar share.
    pub value: F61,
}

/// Public material: the base point stand-in `h`, the group verification key
/// and per-share verification keys.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PublicKey {
    /// Simulated base point (non-zero field element).
    pub h: F61,
    /// `s * h` for the group secret `s`.
    pub group: F61,
    /// `s_i * h` for each key share.
    pub per_share: Vec<F61>,
}

/// A partial signature from one virtual user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartialSignature {
    /// Index of the signing share.
    pub index: u64,
    /// `s_i * H(m)`.
    pub value: F61,
}

/// A combined threshold signature (`s * H(m)` — unique per message).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature(pub F61);

impl Signature {
    /// Deterministic digest of the signature — the beacon output of
    /// Section 4.1 ("practical randomness beacons ... employ unique
    /// threshold signatures").
    pub fn beacon_output(&self) -> Digest {
        digest_parts(&[b"swiper.thresh.beacon", &self.0.value().to_le_bytes()])
    }
}

/// A `(threshold, total)` threshold signature scheme instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThresholdScheme {
    threshold: usize,
    total: usize,
}

impl ThresholdScheme {
    /// Creates a scheme where any `threshold` of `total` shares sign.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidParameters`] when `threshold == 0` or
    /// `threshold > total`.
    pub fn new(threshold: usize, total: usize) -> Result<Self, CryptoError> {
        if threshold == 0 || threshold > total {
            return Err(CryptoError::InvalidParameters {
                what: format!("need 0 < threshold <= total, got {threshold}/{total}"),
            });
        }
        Ok(ThresholdScheme { threshold, total })
    }

    /// Signing threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Total number of key shares.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Trusted-dealer key generation (the setting of Section 4.1; the paper
    /// also cites DKGs, which live in `swiper-protocols`).
    pub fn keygen<R: Rng + ?Sized>(&self, rng: &mut R) -> (PublicKey, Vec<KeyShare>) {
        let secret = F61::new(rng.random::<u64>());
        let h = loop {
            let c = F61::new(rng.random::<u64>());
            if !c.is_zero() {
                break c;
            }
        };
        self.split(secret, h, rng)
    }

    /// Deals fresh shares of an **existing** group secret to this scheme's
    /// population — proactive resharing, the epoch-crossing form of
    /// [`ThresholdScheme::keygen`]. `self` is the *new* `(threshold,
    /// total)` scheme; the secret is recovered from at least
    /// `old.threshold()` of the old generation's shares (the trusted-
    /// dealer simulation holds them all) and re-split over a fresh random
    /// polynomial, keeping the old base point.
    ///
    /// Because the group secret and base survive, the group verification
    /// key — and therefore the **unique combined signature of every
    /// message** — is identical across generations: a consumer deriving
    /// randomness from combined signatures (common coins, beacons) sees
    /// the same output whether a tag is combined from old-generation or
    /// new-generation partials, which is what makes mid-protocol re-deals
    /// safe. Old-generation *partials* do not verify against the new
    /// per-share keys, so post-reshare traffic cleanly rejects them.
    ///
    /// # Errors
    ///
    /// As [`ThresholdScheme::combine`], for the secret recovery.
    pub fn reshare<R: Rng + ?Sized>(
        &self,
        old: &ThresholdScheme,
        old_pk: &PublicKey,
        old_shares: &[KeyShare],
        rng: &mut R,
    ) -> Result<(PublicKey, Vec<KeyShare>), CryptoError> {
        let points = old_shares.iter().map(|s| (s.index, s.value));
        let secret = interpolate_at_zero(old.threshold, points)?;
        // Fresh polynomial, same constant term, same base point.
        Ok(self.split(secret, old_pk.h, rng))
    }

    /// Shamir-splits `secret` over a fresh random polynomial of degree
    /// `threshold - 1` into `total` shares, with their verification keys
    /// under the base `h`.
    fn split<R: Rng + ?Sized>(
        &self,
        secret: F61,
        h: F61,
        rng: &mut R,
    ) -> (PublicKey, Vec<KeyShare>) {
        let mut coeffs = vec![secret];
        for _ in 1..self.threshold {
            coeffs.push(F61::new(rng.random::<u64>()));
        }
        let shares: Vec<KeyShare> = (0..self.total)
            .map(|i| KeyShare {
                index: i as u64,
                value: poly::eval(&coeffs, F61::eval_point(i)),
            })
            .collect();
        let per_share = shares.iter().map(|ks| ks.value * h).collect();
        (PublicKey { h, group: secret * h, per_share }, shares)
    }

    /// Produces a partial signature.
    pub fn partial_sign(&self, share: &KeyShare, msg: &[u8]) -> PartialSignature {
        PartialSignature { index: share.index, value: share.value * hash_to_field(msg) }
    }

    /// Verifies a partial signature against the per-share verification key:
    /// `sigma_i * h == vk_i * H(m)`.
    pub fn verify_partial(
        &self,
        pk: &PublicKey,
        msg: &[u8],
        partial: &PartialSignature,
    ) -> bool {
        let Some(&vk_i) = pk.per_share.get(partial.index as usize) else {
            return false;
        };
        partial.value * pk.h == vk_i * hash_to_field(msg)
    }

    /// Combines `threshold` distinct valid partials into the unique group
    /// signature via Lagrange interpolation at zero.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::NotEnoughShares`] below the threshold.
    /// * [`CryptoError::DuplicateShare`] on repeated indices.
    pub fn combine(&self, partials: &[PartialSignature]) -> Result<Signature, CryptoError> {
        let points = partials.iter().map(|p| (p.index, p.value));
        interpolate_at_zero(self.threshold, points).map(Signature)
    }

    /// Verifies a combined signature: `sigma * h == group_vk * H(m)`.
    pub fn verify(&self, pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        sig.0 * pk.h == pk.group * hash_to_field(msg)
    }
}

/// A threshold-encrypted ciphertext (simulated ElGamal).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ciphertext {
    /// `r * h`.
    pub c1: F61,
    /// `payload XOR KDF(r * group_vk)`.
    pub masked: Vec<u8>,
}

/// A decryption share `s_i * c1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecryptionShare {
    /// Index of the contributing key share.
    pub index: u64,
    /// `s_i * c1`.
    pub value: F61,
}

fn kdf(x: F61, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut counter = 0u64;
    while out.len() < len {
        let d = digest_parts(&[
            b"swiper.thresh.kdf",
            &x.value().to_le_bytes(),
            &counter.to_le_bytes(),
        ]);
        out.extend_from_slice(d.as_bytes());
        counter += 1;
    }
    out.truncate(len);
    out
}

impl ThresholdScheme {
    /// Encrypts to the group key.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        pk: &PublicKey,
        payload: &[u8],
        rng: &mut R,
    ) -> Ciphertext {
        let r = F61::new(rng.random::<u64>());
        let mask = kdf(r * pk.group, payload.len());
        let masked = payload.iter().zip(mask).map(|(b, m)| b ^ m).collect();
        Ciphertext { c1: r * pk.h, masked }
    }

    /// Produces a decryption share.
    pub fn decryption_share(&self, share: &KeyShare, ct: &Ciphertext) -> DecryptionShare {
        DecryptionShare { index: share.index, value: share.value * ct.c1 }
    }

    /// Combines `threshold` decryption shares and unmasks the payload.
    ///
    /// Note `s * c1 = s * r * h = r * group_vk`, matching the encryption
    /// mask.
    ///
    /// # Errors
    ///
    /// As [`ThresholdScheme::combine`].
    pub fn decrypt(
        &self,
        ct: &Ciphertext,
        shares: &[DecryptionShare],
    ) -> Result<Vec<u8>, CryptoError> {
        let points = shares.iter().map(|s| (s.index, s.value));
        let combined = interpolate_at_zero(self.threshold, points)?;
        let mask = kdf(combined, ct.masked.len());
        Ok(ct.masked.iter().zip(mask).map(|(b, m)| b ^ m).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xBEA_C04)
    }

    #[test]
    fn sign_combine_verify() {
        let scheme = ThresholdScheme::new(3, 7).unwrap();
        let (pk, shares) = scheme.keygen(&mut rng());
        let msg = b"round-42";
        let partials: Vec<PartialSignature> =
            shares[2..5].iter().map(|s| scheme.partial_sign(s, msg)).collect();
        for p in &partials {
            assert!(scheme.verify_partial(&pk, msg, p));
        }
        let sig = scheme.combine(&partials).unwrap();
        assert!(scheme.verify(&pk, msg, &sig));
        assert!(!scheme.verify(&pk, b"round-43", &sig));
    }

    #[test]
    fn signature_is_unique_across_quorums() {
        // The uniqueness property beacons need: ANY quorum combines to the
        // same signature.
        let scheme = ThresholdScheme::new(2, 5).unwrap();
        let (_, shares) = scheme.keygen(&mut rng());
        let msg = b"beacon-epoch-7";
        let all: Vec<PartialSignature> =
            shares.iter().map(|s| scheme.partial_sign(s, msg)).collect();
        let mut sigs = std::collections::HashSet::new();
        for a in 0..5 {
            for b in (a + 1)..5 {
                sigs.insert(scheme.combine(&[all[a], all[b]]).unwrap());
            }
        }
        assert_eq!(sigs.len(), 1, "all quorums agree on one signature");
        // And the derived beacon output is deterministic.
        let s = sigs.into_iter().next().unwrap();
        assert_eq!(s.beacon_output(), s.beacon_output());
    }

    #[test]
    fn reshare_carries_the_group_key_and_retires_old_partials() {
        let old_scheme = ThresholdScheme::new(4, 6).unwrap();
        let (old_pk, old_shares) = old_scheme.keygen(&mut rng());
        // Shrink to a 3-holder population: any 2 of the new shares sign.
        let new_scheme = ThresholdScheme::new(2, 3).unwrap();
        let (new_pk, new_shares) = new_scheme
            .reshare(&old_scheme, &old_pk, &old_shares, &mut StdRng::seed_from_u64(5))
            .unwrap();
        assert_eq!(new_pk.group, old_pk.group, "the group verification key survives");
        assert_eq!(new_pk.per_share.len(), 3);
        let msg = b"straddling-round-coin";
        // The unique combined signature is identical across generations —
        // a round combined pre-reshare and one combined post-reshare see
        // the same coin.
        let old_partials: Vec<PartialSignature> =
            old_shares[..4].iter().map(|s| old_scheme.partial_sign(s, msg)).collect();
        let new_partials: Vec<PartialSignature> =
            new_shares[..2].iter().map(|s| new_scheme.partial_sign(s, msg)).collect();
        let old_sig = old_scheme.combine(&old_partials).unwrap();
        let new_sig = new_scheme.combine(&new_partials).unwrap();
        assert_eq!(old_sig, new_sig);
        assert!(new_scheme.verify(&new_pk, msg, &new_sig));
        // Old-generation partials are rejected under the new per-share
        // keys (in-flight pre-boundary traffic cannot poison a tally).
        for p in &old_partials {
            assert!(!new_scheme.verify_partial(&new_pk, msg, p));
        }
        // Determinism: the same rng state deals the same shares.
        let (again_pk, again_shares) = new_scheme
            .reshare(&old_scheme, &old_pk, &old_shares, &mut StdRng::seed_from_u64(5))
            .unwrap();
        assert_eq!(again_pk, new_pk);
        assert_eq!(again_shares, new_shares);
    }

    #[test]
    fn reshare_needs_a_recovery_quorum() {
        let old_scheme = ThresholdScheme::new(3, 5).unwrap();
        let (old_pk, old_shares) = old_scheme.keygen(&mut rng());
        let new_scheme = ThresholdScheme::new(2, 4).unwrap();
        assert!(matches!(
            new_scheme.reshare(&old_scheme, &old_pk, &old_shares[..2], &mut rng()),
            Err(CryptoError::NotEnoughShares { needed: 3, have: 2 })
        ));
    }

    #[test]
    fn forged_partial_detected() {
        let scheme = ThresholdScheme::new(2, 4).unwrap();
        let (pk, shares) = scheme.keygen(&mut rng());
        let msg = b"m";
        let mut p = scheme.partial_sign(&shares[1], msg);
        p.value = p.value + F61::ONE;
        assert!(!scheme.verify_partial(&pk, msg, &p));
        // Out-of-range index is rejected too.
        let q = PartialSignature { index: 99, value: p.value };
        assert!(!scheme.verify_partial(&pk, msg, &q));
    }

    #[test]
    fn combine_guards() {
        let scheme = ThresholdScheme::new(3, 5).unwrap();
        let (_, shares) = scheme.keygen(&mut rng());
        let msg = b"m";
        let p0 = scheme.partial_sign(&shares[0], msg);
        let p1 = scheme.partial_sign(&shares[1], msg);
        assert!(matches!(
            scheme.combine(&[p0, p1]),
            Err(CryptoError::NotEnoughShares { needed: 3, have: 2 })
        ));
        assert!(matches!(
            scheme.combine(&[p0, p0, p1]),
            Err(CryptoError::DuplicateShare { index: 0 })
        ));
    }

    #[test]
    fn encryption_round_trip() {
        let scheme = ThresholdScheme::new(3, 6).unwrap();
        let (pk, shares) = scheme.keygen(&mut rng());
        let payload = b"the nuclear launch codes are 0000";
        let ct = scheme.encrypt(&pk, payload, &mut rng());
        assert_ne!(ct.masked, payload.to_vec(), "ciphertext must differ");
        let dshares: Vec<DecryptionShare> =
            shares[3..6].iter().map(|s| scheme.decryption_share(s, &ct)).collect();
        assert_eq!(scheme.decrypt(&ct, &dshares).unwrap(), payload.to_vec());
    }

    #[test]
    fn below_threshold_decryption_fails() {
        let scheme = ThresholdScheme::new(4, 6).unwrap();
        let (pk, shares) = scheme.keygen(&mut rng());
        let ct = scheme.encrypt(&pk, b"secret", &mut rng());
        let dshares: Vec<DecryptionShare> =
            shares[..3].iter().map(|s| scheme.decryption_share(s, &ct)).collect();
        assert!(scheme.decrypt(&ct, &dshares).is_err());
    }

    #[test]
    fn wrong_share_set_decrypts_to_garbage_not_panic() {
        let scheme = ThresholdScheme::new(2, 4).unwrap();
        let (pk, shares) = scheme.keygen(&mut rng());
        let ct = scheme.encrypt(&pk, b"hello", &mut rng());
        let mut bad = scheme.decryption_share(&shares[0], &ct);
        bad.value = bad.value + F61::ONE;
        let good = scheme.decryption_share(&shares[1], &ct);
        let out = scheme.decrypt(&ct, &[bad, good]).unwrap();
        assert_ne!(out, b"hello".to_vec());
    }

    #[test]
    fn empty_payload_encrypts() {
        let scheme = ThresholdScheme::new(1, 2).unwrap();
        let (pk, shares) = scheme.keygen(&mut rng());
        let ct = scheme.encrypt(&pk, b"", &mut rng());
        let d = scheme.decryption_share(&shares[0], &ct);
        assert_eq!(scheme.decrypt(&ct, &[d]).unwrap(), Vec::<u8>::new());
    }
}
