//! MMU and TLB models.
//!
//! The two domains have very different MMUs (Table 1): the Cortex-A9 has a
//! standard ARMv7-A MMU with a hardware page-table walker; the Cortex-M3 on
//! OMAP4 has a *non-standard* arrangement of two MMUs connected in series.
//! The first level has no page table at all — just a software-loaded TLB
//! with ten 4 KB entries — and it is the only level that can express
//! read/write permissions. This is the hardware quirk that pushed K2's DSM
//! to a two-state protocol (§6.3): using the first-level MMU for read-access
//! detection thrashes its tiny TLB.

use k2_sim::Counter;

/// Which MMU arrangement a core has.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MmuKind {
    /// Standard ARMv7-A MMU: hardware walker, decent TLB, per-page
    /// read/write permissions.
    ArmV7A,
    /// OMAP4 Cortex-M3: two MMUs in series. Level 1 is a ten-entry
    /// software-loaded TLB (the only level with R/W permissions); level 2
    /// has a larger TLB and a hardware walker but no permission bits.
    CascadedM3,
}

/// A fully-associative TLB with LRU replacement.
///
/// # Examples
///
/// ```
/// use k2_soc::mmu::Tlb;
///
/// let mut tlb = Tlb::new(2, 100);
/// assert!(!tlb.access(1)); // cold miss
/// assert!(tlb.access(1));  // hit
/// tlb.access(2);
/// tlb.access(3);           // evicts 1 (LRU)
/// assert!(!tlb.access(1));
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    capacity: usize,
    refill_cycles: u32,
    /// Most-recently-used at the back.
    entries: Vec<u64>,
    hits: Counter,
    misses: Counter,
}

impl Tlb {
    /// Creates a TLB holding `capacity` entries, each miss costing
    /// `refill_cycles` to resolve.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, refill_cycles: u32) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        Tlb {
            capacity,
            refill_cycles,
            entries: Vec::with_capacity(capacity),
            hits: Counter::default(),
            misses: Counter::default(),
        }
    }

    /// Looks up `vpn`, inserting it on a miss. Returns `true` on a hit.
    pub fn access(&mut self, vpn: u64) -> bool {
        if let Some(pos) = self.entries.iter().position(|&e| e == vpn) {
            let e = self.entries.remove(pos);
            self.entries.push(e);
            self.hits.incr();
            true
        } else {
            if self.entries.len() == self.capacity {
                self.entries.remove(0);
            }
            self.entries.push(vpn);
            self.misses.incr();
            false
        }
    }

    /// Invalidates one entry (e.g. when a page's mapping changes).
    pub fn invalidate(&mut self, vpn: u64) {
        self.entries.retain(|&e| e != vpn);
    }

    /// Invalidates everything.
    pub fn invalidate_all(&mut self) {
        self.entries.clear();
    }

    /// Cycles charged for one miss.
    pub fn refill_cycles(&self) -> u32 {
        self.refill_cycles
    }

    /// Total hits observed.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Total misses observed.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Miss ratio over all accesses (0 if none).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits.get() + self.misses.get();
        if total == 0 {
            0.0
        } else {
            self.misses.get() as f64 / total as f64
        }
    }
}

/// How the DSM uses the MMU to detect accesses to shared pages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DetectionMode {
    /// Two-state protocol: both reads and writes trap via the page-table
    /// level (second-level MMU on the M3, which has a hardware walker).
    PresenceOnly,
    /// Three-state protocol: reads and writes must be distinguished, which
    /// on the M3 forces every access through the ten-entry first-level TLB.
    ReadWriteDistinction,
}

/// Per-core MMU model combining the TLB levels of [`MmuKind`].
#[derive(Clone, Debug)]
pub struct Mmu {
    kind: MmuKind,
    /// First-level software TLB (CascadedM3 only).
    l1: Option<Tlb>,
    /// Main TLB backed by a hardware walker.
    main: Tlb,
}

impl Mmu {
    /// Builds the MMU model for a core kind.
    pub fn new(kind: MmuKind) -> Self {
        match kind {
            MmuKind::ArmV7A => Mmu {
                kind,
                l1: None,
                // 128-entry main TLB, ~60-cycle hardware walk.
                main: Tlb::new(128, 60),
            },
            MmuKind::CascadedM3 => Mmu {
                kind,
                // Ten 4 KB entries, software-loaded: a miss costs an
                // exception plus a software reload, ~400 cycles.
                l1: Some(Tlb::new(10, 400)),
                // Second level: 32 entries with a hardware walker.
                main: Tlb::new(32, 80),
            },
        }
    }

    /// The MMU arrangement.
    pub fn kind(&self) -> MmuKind {
        self.kind
    }

    /// Charges a memory access to virtual page `vpn` under the given DSM
    /// detection mode and returns the translation cost in cycles.
    ///
    /// With [`DetectionMode::ReadWriteDistinction`] on the cascaded M3 MMU,
    /// every access must be resolved by the tiny first-level TLB (it is the
    /// only level with permission bits); with ten entries, working sets
    /// beyond ten pages thrash (§6.3).
    pub fn translate(&mut self, vpn: u64, mode: DetectionMode) -> u64 {
        let mut cycles = 0u64;
        if mode == DetectionMode::ReadWriteDistinction {
            if let Some(l1) = &mut self.l1 {
                if !l1.access(vpn) {
                    cycles += l1.refill_cycles() as u64;
                }
            }
        }
        if !self.main.access(vpn) {
            cycles += self.main.refill_cycles() as u64;
        }
        cycles
    }

    /// Invalidates a page's translations at every level (after a protection
    /// or mapping change).
    pub fn invalidate(&mut self, vpn: u64) {
        if let Some(l1) = &mut self.l1 {
            l1.invalidate(vpn);
        }
        self.main.invalidate(vpn);
    }

    /// First-level TLB statistics, if this MMU has one.
    pub fn l1_tlb(&self) -> Option<&Tlb> {
        self.l1.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlb_lru_evicts_oldest() {
        let mut t = Tlb::new(2, 10);
        t.access(1);
        t.access(2);
        t.access(1); // 1 becomes MRU
        t.access(3); // evicts 2
        assert!(t.access(1));
        assert!(!t.access(2));
    }

    #[test]
    fn tlb_counts_hits_and_misses() {
        let mut t = Tlb::new(4, 10);
        t.access(1);
        t.access(1);
        t.access(2);
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
        assert!((t.miss_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tlb_invalidate() {
        let mut t = Tlb::new(4, 10);
        t.access(7);
        t.invalidate(7);
        assert!(!t.access(7));
        t.invalidate_all();
        assert!(!t.access(7));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn tlb_zero_capacity_panics() {
        let _ = Tlb::new(0, 1);
    }

    #[test]
    fn a9_has_no_first_level_tlb() {
        let m = Mmu::new(MmuKind::ArmV7A);
        assert!(m.l1_tlb().is_none());
    }

    #[test]
    fn presence_only_skips_tiny_tlb() {
        let mut m = Mmu::new(MmuKind::CascadedM3);
        // Touch 20 pages twice in presence-only mode: second round hits the
        // 32-entry main TLB, no first-level cost at all.
        for vpn in 0..20 {
            m.translate(vpn, DetectionMode::PresenceOnly);
        }
        let mut second_round = 0;
        for vpn in 0..20 {
            second_round += m.translate(vpn, DetectionMode::PresenceOnly);
        }
        assert_eq!(second_round, 0);
        assert_eq!(m.l1_tlb().unwrap().misses(), 0);
    }

    #[test]
    fn rw_distinction_thrashes_m3_first_level() {
        let mut m = Mmu::new(MmuKind::CascadedM3);
        // Working set of 20 pages > 10 first-level entries: every access in
        // the second round still misses level 1.
        for _ in 0..2 {
            for vpn in 0..20 {
                m.translate(vpn, DetectionMode::ReadWriteDistinction);
            }
        }
        let l1 = m.l1_tlb().unwrap();
        assert_eq!(
            l1.hits(),
            0,
            "sequential 20-page set must thrash 10 entries"
        );
        assert_eq!(l1.misses(), 40);
    }

    #[test]
    fn rw_distinction_fine_for_small_working_set() {
        let mut m = Mmu::new(MmuKind::CascadedM3);
        for _ in 0..3 {
            for vpn in 0..8 {
                m.translate(vpn, DetectionMode::ReadWriteDistinction);
            }
        }
        let l1 = m.l1_tlb().unwrap();
        assert_eq!(l1.misses(), 8, "only cold misses for an 8-page set");
        assert_eq!(l1.hits(), 16);
    }

    #[test]
    fn invalidate_forces_retranslation() {
        let mut m = Mmu::new(MmuKind::ArmV7A);
        m.translate(5, DetectionMode::PresenceOnly);
        assert_eq!(m.translate(5, DetectionMode::PresenceOnly), 0);
        m.invalidate(5);
        assert!(m.translate(5, DetectionMode::PresenceOnly) > 0);
    }
}
