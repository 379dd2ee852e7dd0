//! The feedback-driven virtual token shared by the round-robin algorithms.
//!
//! RRW, OF-RRW (and the groups of `k-Cycle` / pairs of `k-Clique` built on
//! them) coordinate through a *conceptual token* that visits stations in a
//! fixed cyclic order. No station ever transmits the token: every
//! participant observes the same channel feedback, so each one replicates
//! the same deterministic state machine — "the feedback is the same for all
//! the stations in a group, which allows to handle the token in such a
//! manner that it is not duplicated nor lost" (paper §5).
//!
//! The rules are exactly the paper's: a silent round advances the token to
//! the next position; a heard message keeps it in place; completing the
//! whole cycle ends a *phase* (the old/new packet boundary).

/// Replicated token state over `size` cyclic positions.
///
/// Positions are indices into an external member list (for broadcast over
/// the whole channel, position `i` simply is station `i`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TokenRing {
    size: usize,
    pos: usize,
    laps: u64,
}

impl TokenRing {
    /// A token at position 0 of a cycle of `size` positions.
    #[inline]
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "a token ring needs at least one position");
        Self { size, pos: 0, laps: 0 }
    }

    /// Current token position.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Number of positions in the cycle.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Completed cycles — the phase counter of OF-RRW.
    #[inline]
    pub fn laps(&self) -> u64 {
        self.laps
    }

    /// A silent round was observed: the token advances. Returns `true` when
    /// the advance completed a full cycle (a phase boundary).
    #[inline]
    pub fn advance(&mut self) -> bool {
        self.pos += 1;
        if self.pos == self.size {
            self.pos = 0;
            self.laps += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_cyclically_and_counts_laps() {
        let mut t = TokenRing::new(3);
        assert_eq!(t.pos(), 0);
        assert!(!t.advance());
        assert!(!t.advance());
        assert_eq!(t.pos(), 2);
        assert!(t.advance()); // wraps -> lap
        assert_eq!(t.pos(), 0);
        assert_eq!(t.laps(), 1);
    }

    #[test]
    fn single_position_ring_laps_every_advance() {
        let mut t = TokenRing::new(1);
        assert!(t.advance());
        assert!(t.advance());
        assert_eq!(t.laps(), 2);
    }

    #[test]
    fn replicas_stay_in_lockstep() {
        // Two replicas fed the same feedback sequence agree forever.
        let mut a = TokenRing::new(5);
        let mut b = TokenRing::new(5);
        for i in 0..100 {
            if i % 3 == 0 {
                a.advance();
                b.advance();
            }
            assert_eq!(a, b);
        }
    }
}
