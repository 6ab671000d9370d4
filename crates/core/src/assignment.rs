//! Ticket assignments — the output of weight reduction.

use serde::{Deserialize, Serialize};

/// An integer ticket assignment `t_1..t_n` produced by a weight reduction
/// solver; "tickets" are the paper's name for the small integer weights.
///
/// # Examples
///
/// ```
/// use swiper_core::TicketAssignment;
///
/// let t = TicketAssignment::new(vec![2, 0, 1, 1]);
/// assert_eq!(t.total(), 4);
/// assert_eq!(t.holders(), 3);
/// assert_eq!(t.max_tickets(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TicketAssignment {
    tickets: Vec<u64>,
    total: u128,
}

impl TicketAssignment {
    /// Wraps a raw ticket vector.
    pub fn new(tickets: Vec<u64>) -> Self {
        let total = tickets.iter().map(|&t| u128::from(t)).sum();
        TicketAssignment { tickets, total }
    }

    /// The raw tickets and the total, for the incremental family cursor: it
    /// splices ticket deltas in place and keeps the total itself, since
    /// re-summing a million-entry vector per probe would undo the O(Δ)
    /// advance. The caller keeps `total` equal to the sum.
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<u64>, &mut u128) {
        (&mut self.tickets, &mut self.total)
    }

    /// Number of parties.
    pub fn len(&self) -> usize {
        self.tickets.len()
    }

    /// True when there are no parties.
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// Tickets of party `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> u64 {
        self.tickets[i]
    }

    /// Total number of tickets `T`.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Number of parties holding at least one ticket (the paper's
    /// "# Holders" metric in Section 7).
    pub fn holders(&self) -> usize {
        self.tickets.iter().filter(|&&t| t > 0).count()
    }

    /// Largest number of tickets held by a single party ("Max tickets").
    pub fn max_tickets(&self) -> u64 {
        self.tickets.iter().copied().max().unwrap_or(0)
    }

    /// Borrow the raw tickets.
    pub fn as_slice(&self) -> &[u64] {
        &self.tickets
    }

    /// Iterate over `(party, tickets)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.tickets.iter().copied().enumerate()
    }

    /// Sum of tickets over a subset of parties.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset_tickets(&self, subset: &[usize]) -> u128 {
        subset.iter().map(|&i| u128::from(self.tickets[i])).sum()
    }

    /// Consumes the assignment, returning the raw ticket vector.
    pub fn into_inner(self) -> Vec<u64> {
        self.tickets
    }

    /// 128-bit fingerprint of the ticket vector: FNV-1a's 128-bit offset
    /// basis and prime, one whole word per step, `h = (h ^ t) * PRIME mod
    /// 2¹²⁸` (not byte-wise FNV-1a). Deterministic across processes and
    /// replicas, so epoch machinery can key derived state (threshold-key
    /// seeds, delta bases) on the assignment itself. Guards against *stale
    /// or misrouted* inputs, not adversarial ones: assignments are
    /// consensus-agreed values every honest replica derives identically.
    pub fn fingerprint(&self) -> u128 {
        tickets_fingerprint(&self.tickets)
    }
}

/// The word-wise fingerprint of a `u64` vector (see
/// [`TicketAssignment::fingerprint`]). Each step is a bijection of `h` (the
/// prime is odd), so vectors of one length that differ in a single word
/// always fingerprint differently.
pub(crate) fn tickets_fingerprint(tickets: &[u64]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    tickets.iter().fold(OFFSET, |h, &w| (h ^ u128::from(w)).wrapping_mul(PRIME))
}

impl AsRef<[u64]> for TicketAssignment {
    fn as_ref(&self) -> &[u64] {
        &self.tickets
    }
}

impl FromIterator<u64> for TicketAssignment {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        TicketAssignment::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats() {
        let t = TicketAssignment::new(vec![0, 0, 5, 2]);
        assert_eq!(t.total(), 7);
        assert_eq!(t.holders(), 2);
        assert_eq!(t.max_tickets(), 5);
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(2), 5);
    }

    #[test]
    fn empty_assignment() {
        let t = TicketAssignment::new(vec![]);
        assert_eq!(t.total(), 0);
        assert_eq!(t.holders(), 0);
        assert_eq!(t.max_tickets(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn subset_and_iter() {
        let t: TicketAssignment = [1u64, 2, 3].into_iter().collect();
        assert_eq!(t.subset_tickets(&[0, 2]), 4);
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(t.into_inner(), vec![1, 2, 3]);
    }

    /// Known answers of the word-wise formula, computed independently from
    /// `h = (h ^ w) * PRIME mod 2¹²⁸` over FNV-1a's 128-bit constants. A
    /// byte-wise loop agrees only on the empty vector.
    #[test]
    fn fingerprint_known_answers() {
        let cases: [(&[u64], u128); 4] = [
            (&[], 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d),
            (&[0], 0xd228_cb69_101a_8caf_7891_2b70_4e4a_147f),
            (&[1, 2, 3], 0xa68b_af0d_6c8b_5822_836d_bc78_c568_559b),
            (&[u64::MAX], 0xe763_9fdd_f51a_8cf7_876e_d48f_b1b5_ea46),
        ];
        for (words, want) in cases {
            assert_eq!(tickets_fingerprint(words), want, "{words:?}");
            assert_eq!(TicketAssignment::new(words.to_vec()).fingerprint(), want, "{words:?}");
        }
    }

    #[test]
    fn total_cannot_overflow_u64_sums() {
        let t = TicketAssignment::new(vec![u64::MAX, u64::MAX]);
        assert_eq!(t.total(), 2 * u128::from(u64::MAX));
    }
}
