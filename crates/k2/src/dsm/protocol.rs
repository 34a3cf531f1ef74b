//! The two-state coherence protocol (paper §6.3).
//!
//! For each shared page every kernel tracks `Valid` or `Invalid`; with two
//! kernels this collapses to an owner map. Any access — read *or* write —
//! by a non-owner faults, sends `GetExclusive`, and receives the page with
//! `PutExclusive`. No read-only sharing: that is a deliberate concession to
//! the Cortex-M3's cascaded MMU, whose permission-capable first level is a
//! ten-entry software TLB (see [`crate::dsm::msi`] for the alternative the
//! paper measured and rejected).
//!
//! The protocol maintains the classic one-writer invariant: at any moment
//! exactly one kernel holds each page `Valid`.

use k2_kernel::service::{ServiceId, StatePage};
use k2_soc::ids::DomainId;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Globally identifies one shared 4 KB page: a service's state page.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DsmPage {
    /// Owning service.
    pub service: ServiceId,
    /// Page within the service's state.
    pub page: StatePage,
}

impl DsmPage {
    /// Convenience constructor.
    pub fn new(service: ServiceId, page: u32) -> Self {
        DsmPage {
            service,
            page: StatePage(page),
        }
    }
}

/// Message types of the two-state protocol, packed into hardware mails:
/// 20 bits page frame number, 3 bits type, 9 bits sequence (paper §6.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgType {
    /// Request exclusive ownership.
    GetExclusive,
    /// Grant it (after flush + invalidate).
    PutExclusive,
}

/// Encodes a protocol message into a 32-bit hardware mail.
pub fn encode_mail(msg: MsgType, pfn20: u32, seq: u16) -> u32 {
    let t = match msg {
        MsgType::GetExclusive => 1u32,
        MsgType::PutExclusive => 2u32,
    };
    (pfn20 & 0xF_FFFF) | (t << 20) | (((seq as u32) & 0x1FF) << 23)
}

/// Decodes a 32-bit hardware mail into `(type, pfn, seq)`.
///
/// # Panics
///
/// Panics on an unknown message type.
pub fn decode_mail(mail: u32) -> (MsgType, u32, u16) {
    let t = match (mail >> 20) & 0x7 {
        1 => MsgType::GetExclusive,
        2 => MsgType::PutExclusive,
        other => panic!("unknown DSM message type {other}"),
    };
    (t, mail & 0xF_FFFF, ((mail >> 23) & 0x1FF) as u16)
}

/// The outcome of one access under the protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// The page was already owned locally: no coherence action.
    Hit,
    /// Ownership had to be fetched from the previous owner.
    Fault {
        /// Who owned the page.
        from: DomainId,
    },
}

/// Per-direction protocol statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Total accesses checked.
    pub accesses: u64,
    /// Faults (ownership transfers).
    pub faults: u64,
    /// GetExclusive messages sent (== faults).
    pub get_exclusive: u64,
    /// PutExclusive messages sent (== faults).
    pub put_exclusive: u64,
}

/// The two-state ownership map.
///
/// # Examples
///
/// ```
/// use k2::dsm::protocol::{Access, DsmPage, TwoStateProtocol};
/// use k2_kernel::service::ServiceId;
/// use k2_soc::ids::DomainId;
///
/// let mut p = TwoStateProtocol::new(DomainId::STRONG);
/// let page = DsmPage::new(ServiceId::DmaDriver, 0);
/// assert_eq!(p.access(DomainId::STRONG, page), Access::Hit);
/// assert_eq!(
///     p.access(DomainId::WEAK, page),
///     Access::Fault { from: DomainId::STRONG }
/// );
/// assert_eq!(p.access(DomainId::WEAK, page), Access::Hit);
/// ```
#[derive(Clone, Debug)]
pub struct TwoStateProtocol {
    owner: BTreeMap<DsmPage, DomainId>,
    default_owner: DomainId,
    stats: ProtocolStats,
    seq: u16,
}

impl TwoStateProtocol {
    /// Creates the protocol with every page initially owned by
    /// `default_owner` (the kernel that boots the services).
    pub fn new(default_owner: DomainId) -> Self {
        TwoStateProtocol {
            owner: BTreeMap::new(),
            default_owner,
            stats: ProtocolStats::default(),
            seq: 0,
        }
    }

    /// Seeds ownership of a freshly allocated page to `dom` without a
    /// coherence transfer (the memory came from `dom`'s local pool).
    pub fn seed(&mut self, dom: DomainId, page: DsmPage) {
        self.owner.insert(page, dom);
    }

    /// The current owner of a page.
    pub fn owner_of(&self, page: DsmPage) -> DomainId {
        self.owner.get(&page).copied().unwrap_or(self.default_owner)
    }

    /// Performs one access by `dom`; transfers ownership on a fault.
    /// Reads and writes are indistinguishable in this protocol. One map
    /// walk decides the outcome and, on a fault, records the new owner.
    pub fn access(&mut self, dom: DomainId, page: DsmPage) -> Access {
        self.stats.accesses += 1;
        let cur = match self.owner.entry(page) {
            Entry::Occupied(mut e) => {
                let cur = *e.get();
                if cur == dom {
                    return Access::Hit;
                }
                e.insert(dom);
                cur
            }
            Entry::Vacant(e) => {
                if self.default_owner == dom {
                    return Access::Hit;
                }
                e.insert(dom);
                self.default_owner
            }
        };
        self.stats.faults += 1;
        self.stats.get_exclusive += 1;
        self.stats.put_exclusive += 1;
        self.seq = self.seq.wrapping_add(1);
        Access::Fault { from: cur }
    }

    /// Statistics so far.
    pub fn stats(&self) -> ProtocolStats {
        self.stats
    }

    /// Number of pages whose ownership has moved at least once.
    pub fn tracked_pages(&self) -> usize {
        self.owner.len()
    }

    /// Checks the one-writer invariant: every page has exactly one owner.
    /// (Trivially true by construction with an owner map — the check guards
    /// against future refactors splitting state.)
    ///
    /// # Panics
    ///
    /// Panics on a violation; see [`TwoStateProtocol::validate_one_writer`]
    /// for the non-panicking form used by the invariant auditor.
    pub fn check_one_writer_invariant(&self) {
        if let Err(e) = self.validate_one_writer() {
            panic!("{e}");
        }
    }

    /// Non-panicking form of [`TwoStateProtocol::check_one_writer_invariant`]:
    /// verifies the owner map has no sentinel values that would mean
    /// "shared", reporting the first violation (in page order, so the
    /// same state always names the same page) instead of aborting.
    pub fn validate_one_writer(&self) -> Result<(), String> {
        for (&page, &owner) in &self.owner {
            if !(owner == DomainId::STRONG || owner.0 < 8) {
                return Err(format!("page {page:?} has invalid owner {owner}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u32) -> DsmPage {
        DsmPage::new(ServiceId::Fs, n)
    }

    #[test]
    fn default_owner_hits() {
        let mut p = TwoStateProtocol::new(DomainId::STRONG);
        assert_eq!(p.access(DomainId::STRONG, page(1)), Access::Hit);
        assert_eq!(p.stats().faults, 0);
    }

    #[test]
    fn ownership_ping_pong() {
        let mut p = TwoStateProtocol::new(DomainId::STRONG);
        for i in 0..10 {
            let dom = if i % 2 == 0 {
                DomainId::WEAK
            } else {
                DomainId::STRONG
            };
            assert!(matches!(p.access(dom, page(0)), Access::Fault { .. }));
        }
        assert_eq!(p.stats().faults, 10);
        assert_eq!(p.stats().get_exclusive, p.stats().put_exclusive);
    }

    #[test]
    fn pages_are_independent() {
        let mut p = TwoStateProtocol::new(DomainId::STRONG);
        p.access(DomainId::WEAK, page(0));
        assert_eq!(p.owner_of(page(0)), DomainId::WEAK);
        assert_eq!(p.owner_of(page(1)), DomainId::STRONG);
    }

    #[test]
    fn services_namespace_pages() {
        let mut p = TwoStateProtocol::new(DomainId::STRONG);
        p.access(DomainId::WEAK, DsmPage::new(ServiceId::Fs, 7));
        assert_eq!(
            p.owner_of(DsmPage::new(ServiceId::Net, 7)),
            DomainId::STRONG,
            "same index in another service is a different page"
        );
    }

    #[test]
    fn mail_encoding_round_trips() {
        for (t, pfn, seq) in [
            (MsgType::GetExclusive, 0u32, 0u16),
            (MsgType::PutExclusive, 0xF_FFFF, 0x1FF),
            (MsgType::GetExclusive, 0x1234, 42),
        ] {
            let (t2, p2, s2) = decode_mail(encode_mail(t, pfn, seq));
            assert_eq!((t2, p2, s2), (t, pfn, seq));
        }
    }

    #[test]
    #[should_panic(expected = "unknown DSM message type")]
    fn bad_mail_panics() {
        decode_mail(0);
    }

    #[test]
    fn invariant_check_passes() {
        let mut p = TwoStateProtocol::new(DomainId::STRONG);
        for i in 0..100 {
            p.access(DomainId::WEAK, page(i));
        }
        p.check_one_writer_invariant();
        assert_eq!(p.tracked_pages(), 100);
    }
}
