//! The three-state (MSI) protocol — the alternative design K2 rejected.
//!
//! A conventional DSM supports read-only sharing with Modified / Shared /
//! Invalid states: concurrent readers keep copies, and only writes
//! invalidate. The paper evaluated this and found it unusable on OMAP4
//! (§6.3): distinguishing reads from writes requires MMU permission bits,
//! which on the Cortex-M3 exist only in the first-level software-loaded
//! TLB with *ten* 4 KB entries — so every access to shared state funnels
//! through a ten-entry TLB and thrashes.
//!
//! This module implements the protocol faithfully so the ablation benchmark
//! can measure exactly that effect against the two-state design.

use crate::dsm::protocol::DsmPage;
use k2_soc::ids::DomainId;
use std::collections::{BTreeMap, BTreeSet};

/// Page state in the MSI protocol, per page (global view).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MsiState {
    /// One kernel holds the only, possibly dirty, copy.
    Modified(DomainId),
    /// One or more kernels hold clean copies.
    Shared(BTreeSet<DomainId>),
}

/// Outcome of one access under MSI.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsiAccess {
    /// No coherence action needed.
    Hit,
    /// Read miss: fetched a copy from the current holder.
    ReadMiss {
        /// Who supplied the data.
        from: DomainId,
    },
    /// Write miss or upgrade: all other copies invalidated.
    WriteInvalidate {
        /// How many remote copies were invalidated.
        invalidated: u32,
    },
}

/// MSI statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsiStats {
    /// Total accesses.
    pub accesses: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write misses/upgrades.
    pub write_invalidations: u64,
}

/// The three-state protocol state machine.
///
/// # Examples
///
/// ```
/// use k2::dsm::msi::{MsiAccess, MsiProtocol};
/// use k2::dsm::protocol::DsmPage;
/// use k2_kernel::service::ServiceId;
/// use k2_soc::ids::DomainId;
///
/// let mut p = MsiProtocol::new(DomainId::STRONG);
/// let page = DsmPage::new(ServiceId::Fs, 0);
/// // Both kernels can read concurrently after one fetch...
/// assert!(matches!(p.read(DomainId::WEAK, page), MsiAccess::ReadMiss { .. }));
/// assert_eq!(p.read(DomainId::WEAK, page), MsiAccess::Hit);
/// assert_eq!(p.read(DomainId::STRONG, page), MsiAccess::Hit);
/// // ...until someone writes.
/// assert!(matches!(p.write(DomainId::WEAK, page), MsiAccess::WriteInvalidate { .. }));
/// ```
#[derive(Clone, Debug)]
pub struct MsiProtocol {
    state: BTreeMap<DsmPage, MsiState>,
    default_owner: DomainId,
    stats: MsiStats,
}

impl MsiProtocol {
    /// Creates the protocol with all pages Modified by `default_owner`.
    pub fn new(default_owner: DomainId) -> Self {
        MsiProtocol {
            state: BTreeMap::new(),
            default_owner,
            stats: MsiStats::default(),
        }
    }

    /// Seeds a freshly allocated page as Modified by `dom` without a
    /// coherence transfer.
    pub fn seed(&mut self, dom: DomainId, page: DsmPage) {
        self.state.insert(page, MsiState::Modified(dom));
    }

    fn get(&self, page: DsmPage) -> MsiState {
        self.state
            .get(&page)
            .cloned()
            .unwrap_or(MsiState::Modified(self.default_owner))
    }

    /// A read by `dom`.
    pub fn read(&mut self, dom: DomainId, page: DsmPage) -> MsiAccess {
        self.stats.accesses += 1;
        match self.get(page) {
            MsiState::Modified(owner) if owner == dom => MsiAccess::Hit,
            MsiState::Modified(owner) => {
                let mut set = BTreeSet::new();
                set.insert(owner);
                set.insert(dom);
                self.state.insert(page, MsiState::Shared(set));
                self.stats.read_misses += 1;
                MsiAccess::ReadMiss { from: owner }
            }
            MsiState::Shared(set) if set.contains(&dom) => MsiAccess::Hit,
            MsiState::Shared(mut set) => {
                // Any sharer can supply the clean data; pick the smallest id
                // deterministically.
                let from = *set.iter().min().expect("shared set non-empty");
                set.insert(dom);
                self.state.insert(page, MsiState::Shared(set));
                self.stats.read_misses += 1;
                MsiAccess::ReadMiss { from }
            }
        }
    }

    /// A write by `dom`.
    pub fn write(&mut self, dom: DomainId, page: DsmPage) -> MsiAccess {
        self.stats.accesses += 1;
        match self.get(page) {
            MsiState::Modified(owner) if owner == dom => MsiAccess::Hit,
            MsiState::Modified(_) => {
                self.state.insert(page, MsiState::Modified(dom));
                self.stats.write_invalidations += 1;
                MsiAccess::WriteInvalidate { invalidated: 1 }
            }
            MsiState::Shared(set) => {
                let others = set.iter().filter(|&&d| d != dom).count() as u32;
                self.state.insert(page, MsiState::Modified(dom));
                self.stats.write_invalidations += 1;
                MsiAccess::WriteInvalidate {
                    invalidated: others,
                }
            }
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> MsiStats {
        self.stats
    }

    /// Verifies the MSI invariant: a page is either Modified by exactly one
    /// domain or Shared by a non-empty set.
    ///
    /// # Panics
    ///
    /// Panics if a Shared set is empty.
    pub fn check_invariant(&self) {
        for (page, st) in &self.state {
            if let MsiState::Shared(set) = st {
                assert!(!set.is_empty(), "page {page:?} shared by nobody");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k2_kernel::service::ServiceId;

    fn page(n: u32) -> DsmPage {
        DsmPage::new(ServiceId::Fs, n)
    }

    #[test]
    fn read_sharing_has_no_repeat_faults() {
        let mut p = MsiProtocol::new(DomainId::STRONG);
        p.read(DomainId::WEAK, page(0));
        // Both sides now read freely — the benefit the three-state protocol
        // would bring if the M3's MMU could support it.
        for _ in 0..10 {
            assert_eq!(p.read(DomainId::WEAK, page(0)), MsiAccess::Hit);
            assert_eq!(p.read(DomainId::STRONG, page(0)), MsiAccess::Hit);
        }
        assert_eq!(p.stats().read_misses, 1);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut p = MsiProtocol::new(DomainId::STRONG);
        p.read(DomainId::WEAK, page(0)); // Shared{S,W}
        let a = p.write(DomainId::STRONG, page(0));
        assert_eq!(a, MsiAccess::WriteInvalidate { invalidated: 1 });
        // Weak must re-fetch.
        assert!(matches!(
            p.read(DomainId::WEAK, page(0)),
            MsiAccess::ReadMiss { .. }
        ));
    }

    #[test]
    fn write_by_owner_is_hit() {
        let mut p = MsiProtocol::new(DomainId::STRONG);
        assert_eq!(p.write(DomainId::STRONG, page(3)), MsiAccess::Hit);
    }

    #[test]
    fn write_write_ping_pong_matches_two_state() {
        let mut p = MsiProtocol::new(DomainId::STRONG);
        for i in 0..10 {
            let dom = if i % 2 == 0 {
                DomainId::WEAK
            } else {
                DomainId::STRONG
            };
            assert!(matches!(
                p.write(dom, page(0)),
                MsiAccess::WriteInvalidate { .. }
            ));
        }
        assert_eq!(p.stats().write_invalidations, 10);
    }

    #[test]
    fn invariant_holds_through_transitions() {
        let mut p = MsiProtocol::new(DomainId::STRONG);
        for i in 0..20 {
            p.read(DomainId::WEAK, page(i % 5));
            p.write(DomainId::STRONG, page(i % 3));
        }
        p.check_invariant();
    }
}
