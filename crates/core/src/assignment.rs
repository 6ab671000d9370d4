//! Ticket assignments — the output of weight reduction.

use serde::{Deserialize, Serialize};

/// FNV-1a's 128-bit offset basis and prime.
const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// An integer ticket assignment `t_1..t_n` produced by a weight reduction
/// solver; "tickets" are the paper's name for the small integer weights.
///
/// Most parties hold no ticket, so only the holders are kept: `(party,
/// tickets)` pairs, strictly ascending, zeros omitted, beside `n` and the
/// total. The form is canonical, so `==` is the ticket vectors' equality.
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
/// assert_eq!(t.nonzero().collect::<Vec<_>>(), vec![(0, 2), (2, 1), (3, 1)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TicketAssignment {
    n: usize,
    total: u128,
    /// Holders, strictly ascending, each `< n <= u32::MAX`; `tickets[k]`
    /// (never 0) is `parties[k]`'s.
    parties: Vec<u32>,
    tickets: Vec<u64>,
}

impl TicketAssignment {
    /// Wraps a ticket vector, one count per party; zero counts are dropped.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` parties.
    pub fn new(tickets: Vec<u64>) -> Self {
        let n = tickets.len();
        assert!(u32::try_from(n).is_ok(), "party count fits u32");
        let run = tickets.into_iter().enumerate().filter(|&(_, t)| t != 0);
        Self::from_run(n, run.map(|(p, t)| (p as u32, t)))
    }

    /// The assignment over `n` parties holding `run`: `(party, tickets)`
    /// pairs strictly ascending by party, each party `< n`; zero counts
    /// are dropped.
    pub(crate) fn from_run(n: usize, run: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let run = run.into_iter();
        let cap = run.size_hint().0;
        let (parties, tickets) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        let mut out = TicketAssignment { n, total: 0, parties, tickets };
        for (party, t) in run.filter(|&(_, t)| t != 0) {
            debug_assert!(out.parties.last().is_none_or(|&p| p < party), "run not ascending");
            out.parties.push(party);
            out.tickets.push(t);
            out.total += u128::from(t);
        }
        debug_assert!(out.parties.last().is_none_or(|&p| (p as usize) < n), "holder past n");
        out
    }

    /// The holders' parties and tickets as two aligned columns.
    pub(crate) fn columns(&self) -> (&[u32], &[u64]) {
        (&self.parties, &self.tickets)
    }

    /// Number of parties.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no parties.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Tickets of party `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.n, "party {i} out of bounds for {} parties", self.n);
        self.parties.binary_search(&(i as u32)).map_or(0, |k| self.tickets[k])
    }

    /// Total number of tickets `T`.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Number of parties holding at least one ticket (the paper's
    /// "# Holders" metric in Section 7).
    pub fn holders(&self) -> usize {
        self.parties.len()
    }

    /// Largest number of tickets held by a single party ("Max tickets").
    pub fn max_tickets(&self) -> u64 {
        self.tickets.iter().copied().max().unwrap_or(0)
    }

    /// The holders' `(party, tickets)` pairs, ascending by party.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.parties.iter().map(|&p| p as usize).zip(self.tickets.iter().copied())
    }

    /// Sum of tickets over a subset of parties.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset_tickets(&self, subset: &[usize]) -> u128 {
        subset.iter().map(|&i| u128::from(self.get(i))).sum()
    }

    /// 128-bit fingerprint of the ticket vector: FNV-1a's 128-bit offset
    /// basis and prime, one whole word per step over all `n` counts, `h =
    /// (h ^ t) * PRIME mod 2¹²⁸` (not byte-wise FNV-1a). Deterministic
    /// across processes and replicas, so epoch machinery can key derived
    /// state (threshold-key seeds, delta bases) on the assignment itself.
    /// Guards against *stale or misrouted* inputs, not adversarial ones:
    /// assignments are consensus-agreed values every honest replica
    /// derives identically. A zero word is `h ← h · PRIME`, so a gap of `z`
    /// non-holders is one multiply by `PRIME^z`: `O(k log n)` for `k`
    /// holders.
    pub fn fingerprint(&self) -> u128 {
        let mut h = OFFSET;
        let mut next = 0;
        for (party, t) in self.nonzero() {
            h = (h.wrapping_mul(prime_pow(party - next)) ^ u128::from(t)).wrapping_mul(PRIME);
            next = party + 1;
        }
        h.wrapping_mul(prime_pow(self.n - next))
    }
}

/// `PRIME^z mod 2¹²⁸`, by square-and-multiply; `z <= n` fits u32.
fn prime_pow(z: usize) -> u128 {
    PRIME.wrapping_pow(z as u32)
}

/// The word-wise fingerprint of a `u64` vector (see
/// [`TicketAssignment::fingerprint`]). Each step is a bijection of `h` (the
/// prime is odd), so vectors of one length that differ in a single word
/// always fingerprint differently.
pub(crate) fn tickets_fingerprint(tickets: &[u64]) -> u128 {
    tickets.iter().fold(OFFSET, |h, &w| (h ^ u128::from(w)).wrapping_mul(PRIME))
}

/// Walks two party-ascending runs together, yielding each party either
/// holds with its entry on each side.
pub(crate) fn merge_runs<A, B>(
    a: impl Iterator<Item = (usize, A)>,
    b: impl Iterator<Item = (usize, B)>,
) -> impl Iterator<Item = (usize, Option<A>, Option<B>)> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || {
        let party =
            [a.peek().map(|x| x.0), b.peek().map(|y| y.0)].into_iter().flatten().min()?;
        let left = a.next_if(|&(p, _)| p == party).map(|(_, x)| x);
        Some((party, left, b.next_if(|&(q, _)| q == party).map(|(_, y)| y)))
    })
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
        assert_eq!(t.get(1), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_the_party_count_panics() {
        TicketAssignment::new(vec![1, 0, 0]).get(3);
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
        let t: TicketAssignment = [1u64, 0, 2, 3, 0].into_iter().collect();
        assert_eq!(t.subset_tickets(&[0, 1, 3]), 4);
        let pairs: Vec<_> = t.nonzero().collect();
        assert_eq!(pairs, vec![(0, 1), (2, 2), (3, 3)]);
        assert_eq!(t.len(), 5);
        // Zeros are not stored, so equality is the ticket vectors'.
        assert_eq!(t, TicketAssignment::from_run(5, [(0, 1), (1, 0), (2, 2), (3, 3)]));
        assert_ne!(t, TicketAssignment::new(vec![1, 0, 2, 3]));
    }

    #[test]
    fn merged_runs_pair_each_party_once() {
        let a = [(0usize, 'a'), (2, 'b'), (5, 'c')];
        let b = [(2usize, 1u8), (3, 2), (7, 3)];
        let merged: Vec<_> = merge_runs(a.into_iter(), b.into_iter()).collect();
        assert_eq!(
            merged,
            vec![
                (0, Some('a'), None),
                (2, Some('b'), Some(1)),
                (3, None, Some(2)),
                (5, Some('c'), None),
                (7, None, Some(3)),
            ]
        );
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

    /// `prime_pow(z)` is `z` repeated multiplications, for every `z` up to
    /// 10⁵.
    #[test]
    fn prime_pow_matches_repeated_multiplication() {
        let mut want = 1u128;
        for z in 0..=100_000 {
            assert_eq!(prime_pow(z), want, "z = {z}");
            want = want.wrapping_mul(PRIME);
        }
    }

    #[test]
    fn total_cannot_overflow_u64_sums() {
        let t = TicketAssignment::new(vec![u64::MAX, u64::MAX]);
        assert_eq!(t.total(), 2 * u128::from(u64::MAX));
    }
}
