//! Per-domain interrupt controllers.
//!
//! Every interrupt line is physically wired to all domains (paper §4.2);
//! each domain's private controller masks or unmasks lines independently.
//! K2's interrupt-coordination rules (§7) are implemented purely by driving
//! these masks: whichever domain has a shared line unmasked handles it.
//!
//! A line masked everywhere *pends* in each controller and is delivered when
//! some domain unmasks it — matching GIC/NVIC level-triggered behaviour and
//! required for K2's hand-off between domains to be lossless.

use crate::ids::{DomainId, IrqId};
use k2_sim::explore::EventClass;
use std::collections::BTreeSet;

/// Schedule-exploration class of deferred interrupt raises (bottom halves
/// and fault-injected spurious lines scheduled as queue events).
pub const EVENT_CLASS: EventClass = EventClass::Irq;

/// One domain's interrupt controller state.
#[derive(Clone, Debug, Default)]
pub struct IrqController {
    unmasked: BTreeSet<u16>,
    pending: BTreeSet<u16>,
    delivered: u64,
}

impl IrqController {
    /// Creates a controller with every line masked.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unmasks a line. Returns `true` if the line was pending — the caller
    /// (the machine) must then deliver it.
    pub fn unmask(&mut self, irq: IrqId) -> bool {
        self.unmasked.insert(irq.0);
        self.pending.remove(&irq.0)
    }

    /// Masks a line.
    pub fn mask(&mut self, irq: IrqId) {
        self.unmasked.remove(&irq.0);
    }

    /// `true` if the line is unmasked in this controller.
    pub fn is_unmasked(&self, irq: IrqId) -> bool {
        self.unmasked.contains(&irq.0)
    }

    /// Signals the line. Returns `true` if it should be delivered now;
    /// otherwise it pends.
    pub fn raise(&mut self, irq: IrqId) -> bool {
        if self.unmasked.contains(&irq.0) {
            self.delivered += 1;
            true
        } else {
            self.pending.insert(irq.0);
            false
        }
    }

    /// `true` if the line is latched pending.
    pub fn is_pending(&self, irq: IrqId) -> bool {
        self.pending.contains(&irq.0)
    }

    /// All lines latched pending, sorted (for deterministic audit output).
    pub fn pending_lines(&self) -> Vec<u16> {
        self.pending.iter().copied().collect()
    }

    /// Interrupts delivered through this controller so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Folds the controller's exact state (mask set, pending latch,
    /// delivery counter) into a snapshot digest, line sets in line order.
    pub fn digest_into(&self, h: &mut k2_sim::digest::Fnv64) {
        h.u64(self.delivered);
        for set in [&self.unmasked, &self.pending] {
            h.usize(set.len());
            for &l in set {
                h.u32(l as u32);
            }
        }
    }
}

/// The platform interrupt fabric: one controller per domain, with shared
/// lines wired to all of them.
#[derive(Clone, Debug)]
pub struct IrqFabric {
    controllers: Vec<IrqController>,
}

impl IrqFabric {
    /// Creates a fabric for `domains` domains.
    pub fn new(domains: usize) -> Self {
        IrqFabric {
            controllers: (0..domains).map(|_| IrqController::new()).collect(),
        }
    }

    /// The controller of one domain.
    pub fn controller(&self, dom: DomainId) -> &IrqController {
        &self.controllers[dom.index()]
    }

    /// Mutable access to one domain's controller.
    pub fn controller_mut(&mut self, dom: DomainId) -> &mut IrqController {
        &mut self.controllers[dom.index()]
    }

    /// Folds every controller's state into a snapshot digest.
    pub fn digest_into(&self, h: &mut k2_sim::digest::Fnv64) {
        h.usize(self.controllers.len());
        for c in &self.controllers {
            c.digest_into(h);
        }
    }

    /// Signals a line to every domain; returns the domains that should
    /// receive it now (the rest latch it pending).
    pub fn raise(&mut self, irq: IrqId) -> Vec<DomainId> {
        let mut out = Vec::new();
        for (i, c) in self.controllers.iter_mut().enumerate() {
            if c.raise(irq) {
                out.push(DomainId(i as u8));
            }
        }
        out
    }

    /// Domains currently unmasking `irq` — the ones that would handle it.
    pub fn handlers_of(&self, irq: IrqId) -> Vec<DomainId> {
        self.controllers
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_unmasked(irq))
            .map(|(i, _)| DomainId(i as u8))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_line_pends() {
        let mut c = IrqController::new();
        assert!(!c.raise(IrqId::DMA));
        assert!(c.is_pending(IrqId::DMA));
        // Unmask delivers the pended interrupt.
        assert!(c.unmask(IrqId::DMA));
        assert!(!c.is_pending(IrqId::DMA));
    }

    #[test]
    fn unmasked_line_delivers() {
        let mut c = IrqController::new();
        c.unmask(IrqId::NET);
        assert!(c.raise(IrqId::NET));
        assert_eq!(c.delivered(), 1);
    }

    #[test]
    fn mask_stops_delivery() {
        let mut c = IrqController::new();
        c.unmask(IrqId::NET);
        c.mask(IrqId::NET);
        assert!(!c.raise(IrqId::NET));
    }

    #[test]
    fn fabric_delivers_to_all_unmasked_domains() {
        let mut f = IrqFabric::new(2);
        f.controller_mut(DomainId::STRONG).unmask(IrqId::DMA);
        let got = f.raise(IrqId::DMA);
        assert_eq!(got, vec![DomainId::STRONG]);
        // K2's invariant — exactly one kernel should unmask a shared line —
        // is policy, not mechanism: hardware happily delivers to both.
        f.controller_mut(DomainId::WEAK).unmask(IrqId::DMA);
        let got = f.raise(IrqId::DMA);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn handlers_of_reports_unmasked_domains() {
        let mut f = IrqFabric::new(2);
        assert!(f.handlers_of(IrqId::BLOCK).is_empty());
        f.controller_mut(DomainId::WEAK).unmask(IrqId::BLOCK);
        assert_eq!(f.handlers_of(IrqId::BLOCK), vec![DomainId::WEAK]);
    }
}
