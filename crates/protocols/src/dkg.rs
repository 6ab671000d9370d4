//! Weighted distributed key generation from aggregated VSS dealings.
//!
//! The paper's broadcast protocols are motivated partly by asynchronous
//! DKG (references \[1, 28\]): the threshold keys that power the common
//! coin (Section 4.1) should not require a trusted dealer. This module
//! removes the dealer: every party deals a verifiable sharing of a random
//! secret to the `T` virtual users (WR tickets, as everywhere), bad
//! dealings are excluded after verification, and the remaining dealings
//! are **summed** — Shamir sharings are linear, so the sums are a sharing
//! of the sum of secrets, which no strict subset of qualified dealers
//! knows.
//!
//! The output is interoperable with [`swiper_crypto::thresh`]: an
//! aggregated [`PublicKey`] plus per-virtual-user [`KeyShare`]s, which
//! [`TicketKeys::over`](crate::keys::TicketKeys::over) hands to their
//! ticket holders, so the randomness beacon and the ABA coin can run on
//! DKG keys instead of dealt ones.
//!
//! Dealing verification is Feldman-style, expressible exactly in the
//! simulated scheme: the per-share verification keys `vk_i = f(x_i) * h`
//! must interpolate to a degree `< threshold` polynomial whose value at
//! zero is the dealing's group key.

use rand::Rng;
use swiper_core::TicketAssignment;
use swiper_crypto::thresh::{KeyShare, PublicKey};
use swiper_crypto::CryptoError;
use swiper_field::{poly, Field, F61};

use crate::keys::majority;

/// One party's dealing: a verifiable sharing of a fresh random secret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dealing {
    /// The dealer's party id.
    pub dealer: usize,
    /// `f(0) * h` for the dealer's secret polynomial `f`.
    pub group_vk: F61,
    /// `f(x_v) * h` for every virtual user `v`.
    pub per_share_vk: Vec<F61>,
    /// The secret shares, one per virtual user (in a real deployment these
    /// travel encrypted to each owner; the simulation carries them
    /// openly).
    pub shares: Vec<F61>,
}

/// Common parameters of a DKG run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DkgParams {
    /// Share threshold of the resulting scheme.
    pub threshold: usize,
    /// Total shares (= ticket total `T`).
    pub total: usize,
    /// The common base-point stand-in (public, agreed in advance).
    pub h: F61,
}

impl DkgParams {
    /// Standard parameters over a ticket assignment: majority threshold
    /// (`alpha_n = 1/2`, matching WR(f_w, 1/2) tickets).
    ///
    /// # Panics
    ///
    /// Panics if the assignment allocates no tickets.
    pub fn majority<R: Rng + ?Sized>(tickets: &TicketAssignment, rng: &mut R) -> Self {
        let total = usize::try_from(tickets.total()).expect("fits memory");
        assert!(total > 0, "DKG needs at least one ticket");
        let h = loop {
            let c = F61::new(rng.random::<u64>());
            if !c.is_zero() {
                break c;
            }
        };
        DkgParams { threshold: majority(tickets), total, h }
    }
}

/// Produces one dealing with a fresh random secret.
pub fn deal<R: Rng + ?Sized>(params: &DkgParams, dealer: usize, rng: &mut R) -> Dealing {
    let mut coeffs = Vec::with_capacity(params.threshold);
    for _ in 0..params.threshold {
        coeffs.push(F61::new(rng.random::<u64>()));
    }
    let shares: Vec<F61> =
        (0..params.total).map(|v| poly::eval(&coeffs, F61::eval_point(v))).collect();
    let per_share_vk = shares.iter().map(|&s| s * params.h).collect();
    Dealing { dealer, group_vk: coeffs[0] * params.h, per_share_vk, shares }
}

/// Verifies a dealing: correct sizes, shares matching their verification
/// keys, and the Feldman consistency check (the verification keys lie on
/// one polynomial of degree `< threshold` through the group key).
pub fn verify_dealing(params: &DkgParams, dealing: &Dealing) -> bool {
    if dealing.shares.len() != params.total || dealing.per_share_vk.len() != params.total {
        return false;
    }
    // Each share opens its verification key.
    for (s, vk) in dealing.shares.iter().zip(&dealing.per_share_vk) {
        if *s * params.h != *vk {
            return false;
        }
    }
    // Degree check: interpolate the vk points; a correct dealing has
    // degree < threshold (shares are scaled evaluations of f).
    let pts: Vec<(F61, F61)> = dealing
        .per_share_vk
        .iter()
        .enumerate()
        .map(|(v, &vk)| (F61::eval_point(v), vk))
        .collect();
    let coeffs = poly::interpolate(&pts);
    if poly::degree(&coeffs).is_some_and(|d| d >= params.threshold) {
        return false;
    }
    poly::eval(&coeffs, F61::ZERO) == dealing.group_vk
}

/// Aggregates the qualified dealings into a threshold key pair compatible
/// with [`swiper_crypto::thresh`] (any `params.threshold` of the shares
/// sign). Rejects unverifiable dealings.
///
/// # Errors
///
/// * [`CryptoError::VerificationFailed`] if any supplied dealing fails
///   verification (filter with [`verify_dealing`] first to *exclude*
///   instead of abort).
/// * [`CryptoError::NotEnoughShares`] when no dealing is supplied.
pub fn aggregate(
    params: &DkgParams,
    dealings: &[Dealing],
) -> Result<(PublicKey, Vec<KeyShare>), CryptoError> {
    if dealings.is_empty() {
        return Err(CryptoError::NotEnoughShares { needed: 1, have: 0 });
    }
    for d in dealings {
        if !verify_dealing(params, d) {
            return Err(CryptoError::VerificationFailed);
        }
    }
    let mut group = F61::ZERO;
    let mut per_share_vk = vec![F61::ZERO; params.total];
    let mut shares = vec![F61::ZERO; params.total];
    for d in dealings {
        group = group + d.group_vk;
        for v in 0..params.total {
            per_share_vk[v] = per_share_vk[v] + d.per_share_vk[v];
            shares[v] = shares[v] + d.shares[v];
        }
    }
    if params.threshold == 0 || params.threshold > params.total {
        return Err(CryptoError::InvalidParameters { what: "threshold/total".into() });
    }
    let pk = PublicKey { h: params.h, group, per_share: per_share_vk };
    let key_shares = shares
        .into_iter()
        .enumerate()
        .map(|(v, value)| KeyShare { index: v as u64, value })
        .collect();
    Ok((pk, key_shares))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{Shares, TicketKeys};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use swiper_core::{Ratio, Swiper, WeightRestriction, Weights};

    fn tickets() -> TicketAssignment {
        // No dominant party, so the solution spreads over several tickets.
        let weights = Weights::new(vec![30, 25, 20, 15, 10]).unwrap();
        let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
        let t = Swiper::new().solve_restriction(&weights, &params).unwrap().assignment;
        assert!(t.total() >= 3, "test premise: multiple tickets ({t:?})");
        t
    }

    #[test]
    fn honest_dealings_verify_and_aggregate() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = tickets();
        let params = DkgParams::majority(&t, &mut rng);
        let dealings: Vec<Dealing> = (0..5).map(|d| deal(&params, d, &mut rng)).collect();
        for d in &dealings {
            assert!(verify_dealing(&params, d), "dealer {}", d.dealer);
        }
        let (pk, shares) = aggregate(&params, &dealings).unwrap();
        // The aggregated key signs and verifies through the stock
        // threshold machinery: fed one at a time, the partials verify up
        // to the threshold, where they combine.
        let keys = TicketKeys::over(&t, params.threshold, pk, shares);
        let msg = b"dkg-powered beacon round 1".to_vec();
        let partials: Vec<_> = (0..t.len()).flat_map(|p| keys.partials(p, &msg)).collect();
        let mut collected = Shares::new(msg.clone());
        let at = partials.iter().position(|p| collected.add(&keys, [*p]).is_some());
        assert_eq!(at, Some(keys.threshold() - 1));
        assert_eq!(collected.signature(), keys.combine(&msg, &partials));
    }

    #[test]
    fn corrupt_dealings_are_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = tickets();
        let params = DkgParams::majority(&t, &mut rng);
        let good = deal(&params, 0, &mut rng);

        // Tampered share.
        let mut bad = good.clone();
        bad.shares[1] = bad.shares[1] + F61::ONE;
        assert!(!verify_dealing(&params, &bad));

        // Consistently tampered share + vk: breaks the degree check.
        let mut bad = good.clone();
        bad.shares[1] = bad.shares[1] + F61::ONE;
        bad.per_share_vk[1] = bad.shares[1] * params.h;
        assert!(!verify_dealing(&params, &bad));

        // Wrong group key.
        let mut bad = good.clone();
        bad.group_vk = bad.group_vk + F61::ONE;
        assert!(!verify_dealing(&params, &bad));

        // Truncated dealing.
        let mut bad = good.clone();
        bad.shares.pop();
        assert!(!verify_dealing(&params, &bad));

        assert!(matches!(
            aggregate(&params, &[good, bad]),
            Err(CryptoError::VerificationFailed)
        ));
    }

    #[test]
    fn excluding_bad_dealers_still_yields_working_keys() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = tickets();
        let params = DkgParams::majority(&t, &mut rng);
        let mut dealings: Vec<Dealing> = (0..5).map(|d| deal(&params, d, &mut rng)).collect();
        // Dealer 4 misbehaves; the qualified set excludes it.
        dealings[4].shares[0] = dealings[4].shares[0] + F61::ONE;
        let qualified: Vec<Dealing> =
            dealings.into_iter().filter(|d| verify_dealing(&params, d)).collect();
        assert_eq!(qualified.len(), 4);
        let (pk, shares) = aggregate(&params, &qualified).unwrap();
        let keys = TicketKeys::over(&t, params.threshold, pk, shares);
        let msg = b"still works";
        let partials: Vec<_> = (0..t.len()).flat_map(|p| keys.partials(p, msg)).collect();
        assert!(keys.combine(msg, &partials).is_some());
    }

    #[test]
    fn no_single_dealer_knows_the_group_secret() {
        // The aggregated group key differs from every individual dealing's
        // group key (with overwhelming probability) — the secrecy point of
        // running a DKG at all.
        let mut rng = StdRng::seed_from_u64(4);
        let t = tickets();
        let params = DkgParams::majority(&t, &mut rng);
        let dealings: Vec<Dealing> = (0..3).map(|d| deal(&params, d, &mut rng)).collect();
        let (pk, _) = aggregate(&params, &dealings).unwrap();
        for d in &dealings {
            assert_ne!(pk.group, d.group_vk);
        }
    }

    #[test]
    fn shares_distribute_per_tickets() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = tickets();
        let params = DkgParams::majority(&t, &mut rng);
        let dealings: Vec<Dealing> = (0..2).map(|d| deal(&params, d, &mut rng)).collect();
        let (pk, shares) = aggregate(&params, &dealings).unwrap();
        let keys = TicketKeys::over(&t, params.threshold, pk, shares);
        for p in 0..t.len() {
            assert_eq!(keys.partials(p, b"m").len() as u64, t.get(p), "party {p}");
        }
    }

    #[test]
    fn any_quorum_signs_identically_with_dkg_keys() {
        // Uniqueness survives aggregation: different quorums combine to the
        // same signature (the beacon requirement).
        let mut rng = StdRng::seed_from_u64(6);
        let t = tickets();
        let params = DkgParams::majority(&t, &mut rng);
        let dealings: Vec<Dealing> = (0..4).map(|d| deal(&params, d, &mut rng)).collect();
        let (pk, shares) = aggregate(&params, &dealings).unwrap();
        let keys = TicketKeys::over(&t, params.threshold, pk, shares);
        let msg = b"unique";
        let all: Vec<_> = (0..t.len()).flat_map(|p| keys.partials(p, msg)).collect();
        let k = keys.threshold();
        let sig_a = keys.combine(msg, &all[..k]).unwrap();
        let sig_b = keys.combine(msg, &all[all.len() - k..]).unwrap();
        assert_eq!(sig_a, sig_b);
    }
}
