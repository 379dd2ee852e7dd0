//! The baton list with move-big-to-front dynamics.
//!
//! `MBTF` \[17\] and `Orchestra` (paper §3.1) order stations on a shared
//! *baton list*. Stations conduct seasons in list order; a conductor that
//! announces itself *big* is moved to the front of everyone's private copy
//! of the list at the end of its season and keeps the baton for the next
//! season, staying at the front for as long as it is big. Because every
//! station observes the conductor's announcements, all private copies
//! evolve identically — the list is common knowledge without dedicated
//! communication.

use emac_sim::StationId;

/// One station's replica of the baton list and the baton position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatonList {
    order: Vec<StationId>,
    pos: usize,
}

impl BatonList {
    /// Initial list: stations ordered by name, baton at the first station.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Self { order: (0..n).collect(), pos: 0 }
    }

    /// A baton list over an explicit member set (used by the per-thread
    /// MBTF instances of `k-Subsets`), baton at the first member.
    pub fn with_members(members: Vec<StationId>) -> Self {
        assert!(!members.is_empty());
        Self { order: members, pos: 0 }
    }

    /// The current conductor (baton holder).
    #[inline]
    pub fn conductor(&self) -> StationId {
        self.order[self.pos]
    }

    /// The conductor [`BatonList::season_end`] would leave holding the
    /// baton, without changing the list: a big conductor keeps it,
    /// otherwise it passes to the next station in cyclic list order.
    #[inline]
    pub fn next_conductor(&self, conductor_is_big: bool) -> StationId {
        if conductor_is_big {
            self.conductor()
        } else {
            self.order[(self.pos + 1) % self.order.len()]
        }
    }

    /// Current position of `station` on the list (0-based).
    pub fn position_of(&self, station: StationId) -> Option<usize> {
        self.order.iter().position(|&s| s == station)
    }

    /// The list in its current order.
    #[inline]
    pub fn order(&self) -> &[StationId] {
        &self.order
    }

    /// Apply the end-of-season transition: if the conductor announced big
    /// during the season, it moves to the front of the list and keeps the
    /// baton; otherwise the baton passes to the next station in cyclic list
    /// order.
    #[inline]
    pub fn season_end(&mut self, conductor_was_big: bool) {
        if conductor_was_big {
            let c = self.order.remove(self.pos);
            self.order.insert(0, c);
            self.pos = 0;
        } else {
            self.pos = (self.pos + 1) % self.order.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_order_by_name() {
        let b = BatonList::new(4);
        assert_eq!(b.order(), &[0, 1, 2, 3]);
        assert_eq!(b.conductor(), 0);
    }

    #[test]
    fn non_big_conductors_rotate() {
        let mut b = BatonList::new(3);
        b.season_end(false);
        assert_eq!(b.conductor(), 1);
        b.season_end(false);
        assert_eq!(b.conductor(), 2);
        b.season_end(false);
        assert_eq!(b.conductor(), 0); // cyclic
        assert_eq!(b.order(), &[0, 1, 2]); // order unchanged
    }

    #[test]
    fn big_conductor_moves_to_front_and_keeps_baton() {
        let mut b = BatonList::new(4);
        b.season_end(false);
        b.season_end(false); // baton at station 2
        assert_eq!(b.conductor(), 2);
        b.season_end(true); // 2 announces big
        assert_eq!(b.order(), &[2, 0, 1, 3]);
        assert_eq!(b.conductor(), 2); // keeps the baton
                                      // positions of stations before it shifted back by one
        assert_eq!(b.position_of(0), Some(1));
        assert_eq!(b.position_of(1), Some(2));
    }

    #[test]
    fn big_at_front_is_a_noop_move() {
        let mut b = BatonList::new(3);
        b.season_end(true); // station 0 big at front
        assert_eq!(b.order(), &[0, 1, 2]);
        assert_eq!(b.conductor(), 0);
        b.season_end(false); // stops being big -> pass to position 2
        assert_eq!(b.conductor(), 1);
    }

    #[test]
    fn position_shifts_bounded_by_list_length() {
        // A station's position can increase at most n-1 times via
        // move-to-front of others (the accounting in Theorem 1's proof).
        let mut b = BatonList::new(5);
        let mut pos_of_4 = b.position_of(4).unwrap();
        let mut increases = 0;
        // repeatedly make the conductor big (never station 4)
        for _ in 0..20 {
            if b.conductor() == 4 {
                b.season_end(false);
                continue;
            }
            b.season_end(true); // conductor jumps to front
            b.season_end(false); // then passes on
            let p = b.position_of(4).unwrap();
            if p > pos_of_4 {
                increases += 1;
            }
            pos_of_4 = p;
        }
        assert!(increases <= 4);
    }

    #[test]
    fn next_conductor_predicts_season_end() {
        let mut b = BatonList::with_members(vec![7, 3, 5, 1]);
        for big in [false, false, true, false, true, true, false, false, false, false] {
            let predicted = b.next_conductor(big);
            b.season_end(big);
            assert_eq!(b.conductor(), predicted, "big = {big}");
        }
    }

    #[test]
    fn custom_member_set() {
        let b = BatonList::with_members(vec![7, 3, 5]);
        assert_eq!(b.conductor(), 7);
        assert_eq!(b.position_of(5), Some(2));
        assert_eq!(b.position_of(0), None);
    }
}
