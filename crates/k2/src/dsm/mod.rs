//! K2's software distributed shared memory.
//!
//! The DSM transparently keeps shadowed-service state coherent across
//! coherence domains (paper §6.3): page-granular, sequentially consistent,
//! fault-driven. [`Dsm`] is the state machine — protocol, access detection
//! via the per-domain MMU models, mapping-granularity bookkeeping — while
//! the timing (charging the requester's spin and the owner's servicing
//! time) is applied by the system layer using [`fault::FaultBreakdown`].

pub mod fault;
pub mod msi;
pub mod protocol;

pub use fault::FaultBreakdown;
pub use msi::{MsiAccess, MsiProtocol, MsiStats};
pub use protocol::{Access, DsmPage, MsgType, ProtocolStats, TwoStateProtocol};

use k2_kernel::cost::Cost;
use k2_kernel::service::{ServiceId, StatePage};
use k2_sim::stats::Summary;
use k2_soc::ids::DomainId;
use k2_soc::mmu::{DetectionMode, Mmu, MmuKind};
use std::collections::BTreeSet;

/// Which protocol the DSM runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolChoice {
    /// The paper's two-state design (presence-only detection).
    TwoState,
    /// The rejected three-state MSI design (needs read/write distinction —
    /// thrashes the M3's first-level TLB).
    ThreeState,
}

#[derive(Clone, Debug)]
enum ProtocolImpl {
    Two(TwoStateProtocol),
    Three(MsiProtocol),
}

/// One planned coherence fault: the requester must fetch `page` from
/// `from`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    /// The page being transferred.
    pub page: DsmPage,
    /// Its previous owner/holder.
    pub from: DomainId,
}

/// The result of planning one operation's shared-state accesses.
#[derive(Clone, Debug, Default)]
pub struct AccessPlan {
    /// Ownership transfers to perform, in access order.
    pub faults: Vec<FaultPlan>,
    /// Extra cycles of MMU/TLB work on the requesting core (dominated by
    /// first-level TLB reloads under the three-state protocol on the M3).
    pub detection_cycles: u64,
    /// Page-table work for sections demoted to 4 KB mappings on first
    /// sharing (§6.3's footprint optimisation: only shared areas pay).
    pub split_cost: Cost,
}

/// Aggregate DSM statistics.
#[derive(Clone, Debug, Default)]
pub struct DsmStats {
    /// Fault totals per requesting domain index.
    pub faults_by_requester: [u64; 4],
    /// Latency summaries (µs) per requesting domain index.
    pub fault_latency_us: [Summary; 4],
    /// Hardware mails that the protocol exchanged.
    pub messages: u64,
    /// Protocol mails confirmed delivered by the mailbox ISR. Under fault
    /// injection this lags [`DsmStats::messages`] until retransmissions
    /// land; it never exceeds it.
    pub messages_delivered: u64,
    /// 1 MB sections demoted to 4 KB mappings.
    pub sections_split: u64,
}

/// The DSM state machine. See the module docs.
#[derive(Clone)]
pub struct Dsm {
    protocol: ProtocolImpl,
    choice: ProtocolChoice,
    mmus: Vec<Mmu>,
    shared_sections: BTreeSet<u64>,
    /// Pages that have ever been accessed by a non-boot domain.
    shared_pages: BTreeSet<DsmPage>,
    stats: DsmStats,
}

impl std::fmt::Debug for Dsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dsm")
            .field("choice", &self.choice)
            .field("shared_pages", &self.shared_pages.len())
            .finish()
    }
}

impl Dsm {
    /// Creates the DSM with all state initially owned by `boot_owner`, for
    /// a platform whose domain `i` has MMU kind `mmu_kinds[i]`.
    pub fn new(choice: ProtocolChoice, boot_owner: DomainId, mmu_kinds: &[MmuKind]) -> Self {
        let protocol = match choice {
            ProtocolChoice::TwoState => ProtocolImpl::Two(TwoStateProtocol::new(boot_owner)),
            ProtocolChoice::ThreeState => ProtocolImpl::Three(MsiProtocol::new(boot_owner)),
        };
        Dsm {
            protocol,
            choice,
            mmus: mmu_kinds.iter().map(|&k| Mmu::new(k)).collect(),
            shared_sections: BTreeSet::new(),
            shared_pages: BTreeSet::new(),
            stats: DsmStats::default(),
        }
    }

    /// The configured protocol.
    pub fn choice(&self) -> ProtocolChoice {
        self.choice
    }

    /// Plans the coherence work for one operation by `dom` that read
    /// `reads` and wrote `writes` of `service`'s state pages.
    ///
    /// Mutates protocol state (ownership moves immediately; the system
    /// layer then charges the latencies). The returned plan lists faults in
    /// access order.
    pub fn plan_accesses(
        &mut self,
        dom: DomainId,
        service: ServiceId,
        reads: &[StatePage],
        writes: &[StatePage],
    ) -> AccessPlan {
        self.plan_accesses_with_fresh(dom, service, reads, writes, &[])
    }

    /// Like [`Dsm::plan_accesses`], with `fresh` naming pages the operation
    /// allocated from the local pool — these are seeded to the requester
    /// and never fault.
    ///
    /// The page lists are an [`OpCx`](k2_kernel::service::OpCx)'s:
    /// already deduplicated and a handful of pages long, so membership is
    /// a slice scan — planning allocates only when a fault is planned.
    pub fn plan_accesses_with_fresh(
        &mut self,
        dom: DomainId,
        service: ServiceId,
        reads: &[StatePage],
        writes: &[StatePage],
        fresh: &[StatePage],
    ) -> AccessPlan {
        let mut plan = AccessPlan::default();
        for &sp in fresh {
            let page = DsmPage { service, page: sp };
            match &mut self.protocol {
                ProtocolImpl::Two(p) => p.seed(dom, page),
                ProtocolImpl::Three(p) => p.seed(dom, page),
            }
        }
        let detection_mode = match self.choice {
            ProtocolChoice::TwoState => DetectionMode::PresenceOnly,
            ProtocolChoice::ThreeState => DetectionMode::ReadWriteDistinction,
        };
        for &sp in reads {
            if fresh.contains(&sp) {
                continue; // seeded above: local by construction
            }
            let page = DsmPage { service, page: sp };
            // The protocol access never touches the MMU models, so it may
            // run before detection: one owner lookup decides both.
            let (faulted_from, detect) = match &mut self.protocol {
                ProtocolImpl::Two(p) => match p.access(dom, page) {
                    Access::Hit => (None, false),
                    Access::Fault { from } => (Some(from), true),
                },
                ProtocolImpl::Three(p) => {
                    let a = if writes.contains(&sp) {
                        p.write(dom, page)
                    } else {
                        p.read(dom, page)
                    };
                    let from = match a {
                        MsiAccess::Hit => None,
                        MsiAccess::ReadMiss { from } => Some(from),
                        // Invalidations are one-way messages; data comes
                        // from whoever held it. Approximate the supplier
                        // as the other domain.
                        MsiAccess::WriteInvalidate { .. } => Some(Self::other(dom)),
                    };
                    // Conservative: MSI detection always translates.
                    (from, true)
                }
            };
            // Detection: shared pages are mapped 4 KB and go through the
            // MMU models. Charge the translation cost if the page has ever
            // been shared (private-so-far pages ride large-grain mappings).
            if detect || self.shared_pages.contains(&page) {
                plan.detection_cycles +=
                    self.mmus[dom.index()].translate(Self::vpn(page), detection_mode);
            }
            if let Some(from) = faulted_from {
                if from != dom {
                    plan.faults.push(FaultPlan { page, from });
                    self.stats.messages += 2; // GetExclusive + PutExclusive
                    self.note_shared(page, &mut plan);
                }
            }
        }
        plan
    }

    /// Records a completed fault's latency for statistics.
    pub fn record_fault(&mut self, requester: DomainId, latency_us: f64) {
        let i = requester.index().min(3);
        self.stats.faults_by_requester[i] += 1;
        self.stats.fault_latency_us[i].record(latency_us);
    }

    /// Records one protocol mail confirmed delivered by the mailbox ISR
    /// (first copies only — retransmitted duplicates are deduped upstream).
    pub fn note_delivered(&mut self) {
        self.stats.messages_delivered += 1;
    }

    /// Audits the DSM's conservation laws: the protocol's single-writer
    /// invariant, and delivery never exceeding sends.
    pub fn validate(&self) -> Result<(), String> {
        match &self.protocol {
            ProtocolImpl::Two(p) => p.validate_one_writer()?,
            // The MSI map distinguishes states internally; its invariant is
            // exercised by its own unit tests.
            ProtocolImpl::Three(_) => {}
        }
        if self.stats.messages_delivered > self.stats.messages {
            return Err(format!(
                "delivered {} protocol mails but only {} were sent",
                self.stats.messages_delivered, self.stats.messages
            ));
        }
        Ok(())
    }

    /// Statistics so far.
    pub fn stats(&self) -> &DsmStats {
        &self.stats
    }

    /// Total faults across requesters.
    pub fn total_faults(&self) -> u64 {
        self.stats.faults_by_requester.iter().sum()
    }

    /// The first-level TLB miss ratio observed on a domain's MMU — the
    /// §6.3 thrashing metric.
    pub fn l1_tlb_miss_ratio(&self, dom: DomainId) -> Option<f64> {
        self.mmus[dom.index()].l1_tlb().map(|t| t.miss_ratio())
    }

    fn note_shared(&mut self, page: DsmPage, plan: &mut AccessPlan) {
        if self.shared_pages.insert(page) {
            // First time this page is shared: if its 1 MB section was still
            // large-grain mapped, both kernels demote it (§6.3).
            let section = Self::vpn(page) / 256;
            if self.shared_sections.insert(section) {
                // 256 second-level descriptors written per kernel.
                plan.split_cost += Cost::instr(2 * 12 * 256) + Cost::mem(2 * 36);
                self.stats.sections_split += 1;
            }
        }
    }

    fn vpn(page: DsmPage) -> u64 {
        let svc = match page.service {
            ServiceId::Fs => 0u64,
            ServiceId::Net => 1,
            ServiceId::DmaDriver => 2,
        };
        (svc << 24) | page.page.0 as u64
    }

    fn other(dom: DomainId) -> DomainId {
        if dom == DomainId::STRONG {
            DomainId::WEAK
        } else {
            DomainId::STRONG
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(ns: &[u32]) -> Vec<StatePage> {
        ns.iter().map(|&n| StatePage(n)).collect()
    }

    fn dsm(choice: ProtocolChoice) -> Dsm {
        Dsm::new(
            choice,
            DomainId::STRONG,
            &[MmuKind::ArmV7A, MmuKind::CascadedM3],
        )
    }

    #[test]
    fn local_access_plans_no_faults() {
        let mut d = dsm(ProtocolChoice::TwoState);
        let plan = d.plan_accesses(
            DomainId::STRONG,
            ServiceId::Fs,
            &pages(&[0, 1, 2]),
            &pages(&[1]),
        );
        assert!(plan.faults.is_empty());
        assert_eq!(plan.detection_cycles, 0, "private pages skip detection");
    }

    #[test]
    fn remote_access_faults_once_then_hits() {
        let mut d = dsm(ProtocolChoice::TwoState);
        let p1 = d.plan_accesses(DomainId::WEAK, ServiceId::Fs, &pages(&[5]), &[]);
        assert_eq!(p1.faults.len(), 1);
        assert_eq!(p1.faults[0].from, DomainId::STRONG);
        let p2 = d.plan_accesses(DomainId::WEAK, ServiceId::Fs, &pages(&[5]), &[]);
        assert!(p2.faults.is_empty());
    }

    #[test]
    fn first_share_splits_section_once() {
        let mut d = dsm(ProtocolChoice::TwoState);
        let p1 = d.plan_accesses(DomainId::WEAK, ServiceId::Fs, &pages(&[0]), &[]);
        assert!(!p1.split_cost.is_zero());
        assert_eq!(d.stats().sections_split, 1);
        // Another page in the same 1 MB section: no further split.
        let p2 = d.plan_accesses(DomainId::WEAK, ServiceId::Fs, &pages(&[7]), &[]);
        assert!(p2.split_cost.is_zero());
        assert_eq!(d.stats().sections_split, 1);
    }

    #[test]
    fn messages_counted_two_per_fault() {
        let mut d = dsm(ProtocolChoice::TwoState);
        d.plan_accesses(DomainId::WEAK, ServiceId::Net, &pages(&[0, 1]), &[]);
        assert_eq!(d.stats().messages, 4);
    }

    #[test]
    fn three_state_allows_concurrent_readers() {
        let mut d = dsm(ProtocolChoice::ThreeState);
        d.plan_accesses(DomainId::WEAK, ServiceId::Fs, &pages(&[0]), &[]);
        // Subsequent reads from both sides: no faults.
        let a = d.plan_accesses(DomainId::WEAK, ServiceId::Fs, &pages(&[0]), &[]);
        let b = d.plan_accesses(DomainId::STRONG, ServiceId::Fs, &pages(&[0]), &[]);
        assert!(a.faults.is_empty() && b.faults.is_empty());
    }

    #[test]
    fn three_state_charges_m3_tlb_reloads() {
        let mut d = dsm(ProtocolChoice::ThreeState);
        // Working set of 20 shared pages on the weak domain, twice.
        let ps = pages(&(0..20).collect::<Vec<u32>>());
        d.plan_accesses(DomainId::WEAK, ServiceId::Fs, &ps, &[]);
        let second = d.plan_accesses(DomainId::WEAK, ServiceId::Fs, &ps, &[]);
        // Ten-entry first-level TLB cannot hold 20 pages: heavy reloads.
        assert!(
            second.detection_cycles >= 20 * 400,
            "expected thrash, got {} cycles",
            second.detection_cycles
        );
        assert!(d.l1_tlb_miss_ratio(DomainId::WEAK).unwrap() > 0.9);
    }

    #[test]
    fn two_state_detection_stays_cheap_on_m3() {
        let mut d = dsm(ProtocolChoice::TwoState);
        let ps = pages(&(0..20).collect::<Vec<u32>>());
        d.plan_accesses(DomainId::WEAK, ServiceId::Fs, &ps, &[]);
        let second = d.plan_accesses(DomainId::WEAK, ServiceId::Fs, &ps, &[]);
        // The 32-entry second-level TLB holds the set.
        assert_eq!(second.detection_cycles, 0);
    }

    #[test]
    fn fault_latency_statistics() {
        let mut d = dsm(ProtocolChoice::TwoState);
        d.record_fault(DomainId::WEAK, 48.0);
        d.record_fault(DomainId::WEAK, 50.0);
        d.record_fault(DomainId::STRONG, 52.0);
        assert_eq!(d.total_faults(), 3);
        assert_eq!(d.stats().faults_by_requester[1], 2);
        assert!((d.stats().fault_latency_us[1].mean() - 49.0).abs() < 1e-9);
    }
}
