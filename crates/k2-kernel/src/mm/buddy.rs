//! The buddy page allocator.
//!
//! A faithful-in-structure reimplementation of Linux's zoned buddy
//! allocator, reduced to what the paper exercises: power-of-two free lists
//! with buddy merging, migrate-type grouping (movable pages kept apart from
//! unmovable ones so contiguous ranges can be reclaimed), and — unusually —
//! *dynamically resizable* managed ranges, because K2's balloon drivers hand
//! 16 MB page blocks to and from each kernel at run time (§6.2).
//!
//! Placement policy implements the paper's optimisation: movable
//! allocations are taken from the highest free addresses and unmovable ones
//! from the lowest, keeping movable pages "close to the balloon frontier"
//! so inflation can evacuate them.

use crate::cost::Cost;
use k2_soc::mem::Pfn;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Largest block order: 2^10 pages = 4 MB.
pub const MAX_ORDER: u8 = 10;

/// Linux-style migrate type, deciding both placement and reclaimability.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MigrateType {
    /// Kernel structures that cannot be relocated.
    Unmovable,
    /// Page-cache and user pages that can be migrated to another frame
    /// (70–80 % of pages on mobile systems, per the paper's experiments).
    Movable,
}

/// An allocated page's bookkeeping record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AllocInfo {
    /// Order of the block this page heads.
    pub order: u8,
    /// Migrate type requested at allocation.
    pub migrate: MigrateType,
}

/// Aggregate allocator statistics.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct BuddyStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Block splits performed during allocation.
    pub splits: u64,
    /// Buddy merges performed during free.
    pub merges: u64,
    /// Allocation attempts that failed for lack of memory.
    pub failures: u64,
}

/// The buddy allocator. See the module docs.
///
/// # Examples
///
/// ```
/// use k2_kernel::mm::buddy::{BuddyAllocator, MigrateType};
/// use k2_soc::mem::Pfn;
///
/// let mut b = BuddyAllocator::new();
/// b.add_range(Pfn(0x100), 256); // manage 1 MB
/// let (page, _cost) = b.alloc_pages(0, MigrateType::Unmovable).unwrap();
/// assert!(b.is_allocated(page));
/// b.free_pages(page);
/// assert_eq!(b.free_page_count(), 256);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BuddyAllocator {
    /// Free block heads per order.
    free: [BTreeSet<u64>; (MAX_ORDER + 1) as usize],
    /// Allocated block heads, in address order.
    allocated: BTreeMap<u64, AllocInfo>,
    /// Managed regions, coalesced: start pfn -> page count.
    managed: BTreeMap<u64, u64>,
    free_pages: u64,
    stats: BuddyStats,
    /// Mutation generation: every `&mut` entry point bumps it before it
    /// touches anything else.
    generation: u64,
    /// The last generation [`BuddyAllocator::validate`] found clean.
    clean_at: CleanAt,
}

/// The generation at which an allocator last validated clean, if any.
///
/// Atomic so that a shared `&BuddyAllocator` (a frozen snapshot that
/// several threads read) can record a clean check and stay `Sync`. A
/// clone copies it together with the state it vouches for. `Relaxed`
/// suffices: the value publishes no data, it names a generation of state
/// that every thread holding `&self` already sees and that cannot change
/// while shared.
#[derive(Debug)]
struct CleanAt(AtomicU64);

impl CleanAt {
    const NEVER: u64 = u64::MAX;

    fn get(&self) -> Option<u64> {
        Some(self.0.load(Ordering::Relaxed)).filter(|&g| g != Self::NEVER)
    }

    fn set(&self, generation: u64) {
        self.0.store(generation, Ordering::Relaxed);
    }
}

impl Default for CleanAt {
    fn default() -> Self {
        CleanAt(AtomicU64::new(Self::NEVER))
    }
}

impl Clone for CleanAt {
    fn clone(&self) -> Self {
        CleanAt(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

impl BuddyAllocator {
    /// Creates an allocator managing no memory; add ranges with
    /// [`BuddyAllocator::add_range`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of free pages.
    pub fn free_page_count(&self) -> u64 {
        self.free_pages
    }

    /// Number of managed pages (free + allocated).
    pub fn managed_page_count(&self) -> u64 {
        self.managed.values().sum()
    }

    /// Statistics so far.
    pub fn stats(&self) -> BuddyStats {
        self.stats
    }

    /// The order of the largest free block, if any memory is free.
    pub fn largest_free_order(&self) -> Option<u8> {
        (0..=MAX_ORDER)
            .rev()
            .find(|&o| !self.free[o as usize].is_empty())
    }

    /// `true` if `pfn` heads an allocated block.
    pub fn is_allocated(&self, pfn: Pfn) -> bool {
        self.allocated.contains_key(&pfn.0)
    }

    /// Allocation record for a block head, if allocated.
    pub fn alloc_info(&self, pfn: Pfn) -> Option<AllocInfo> {
        self.allocated.get(&pfn.0).copied()
    }

    /// Hands a contiguous page range to the allocator (what a balloon
    /// *deflate* does). The range must not overlap managed memory.
    ///
    /// # Panics
    ///
    /// Panics on overlap with an existing managed range.
    pub fn add_range(&mut self, start: Pfn, npages: u64) -> Cost {
        self.generation += 1;
        assert!(npages > 0, "empty range");
        for (&s, &n) in &self.managed {
            let overlap = start.0 < s + n && s < start.0 + npages;
            assert!(
                !overlap,
                "range [{start:?},+{npages}) overlaps managed memory"
            );
        }
        // Insert maximal aligned power-of-two blocks.
        let mut pfn = start.0;
        let end = start.0 + npages;
        let mut blocks = 0u64;
        while pfn < end {
            let align_order = pfn.trailing_zeros().min(63) as u8;
            let mut order = align_order.min(MAX_ORDER);
            while (1u64 << order) > end - pfn {
                order -= 1;
            }
            self.insert_free(pfn, order);
            pfn += 1 << order;
            blocks += 1;
        }
        self.free_pages += npages;
        self.coalesce_managed(start.0, npages);
        // Structure initialisation: touch each page's struct once.
        Cost::instr(120 * blocks) + Cost::mem(npages / 8)
    }

    /// Removes a fully-free contiguous range from management (what a balloon
    /// *inflate* does, after evacuating it).
    ///
    /// Returns `Err(pfn)` naming an allocated page if the range is not
    /// entirely free; the caller must migrate that page first.
    pub fn remove_range(&mut self, start: Pfn, npages: u64) -> Result<Cost, Pfn> {
        self.generation += 1;
        if let Some(p) = self.first_allocated_in(start, npages) {
            return Err(p);
        }
        // Carve free blocks so the range is covered exactly, then drop it.
        let end = start.0 + npages;
        let mut cursor = start.0;
        let mut ops = 0u64;
        while cursor < end {
            let (head, order) = self.free_block_containing(cursor).ok_or(Pfn(cursor))?; // unmanaged page inside range
            let size = 1u64 << order;
            if head >= start.0 && head + size <= end {
                self.free[order as usize].remove(&head);
                cursor = head + size;
                ops += 1;
            } else {
                // Split and retry.
                self.free[order as usize].remove(&head);
                let half = size / 2;
                self.free[(order - 1) as usize].insert(head);
                self.free[(order - 1) as usize].insert(head + half);
                self.stats.splits += 1;
                ops += 1;
            }
        }
        self.free_pages -= npages;
        self.unmanage(start.0, npages);
        Ok(Cost::instr(100 * ops) + Cost::mem(2 * ops))
    }

    /// Allocates a block of `2^order` pages.
    ///
    /// Movable allocations come from the highest free addresses, unmovable
    /// from the lowest (the paper's mobility grouping, §6.2). Returns the
    /// block head and the operation's cost, or `None` if no block of
    /// sufficient order is free.
    ///
    /// # Panics
    ///
    /// Panics if `order > MAX_ORDER`.
    pub fn alloc_pages(&mut self, order: u8, migrate: MigrateType) -> Option<(Pfn, Cost)> {
        self.alloc_pages_excluding(order, migrate, None)
    }

    /// Like [`BuddyAllocator::alloc_pages`], but never returns a block
    /// intersecting `excl` — used when evacuating a range for balloon
    /// inflation, where the replacement frames must land outside the very
    /// range being reclaimed.
    ///
    /// # Panics
    ///
    /// Panics if `order > MAX_ORDER`.
    pub fn alloc_pages_excluding(
        &mut self,
        order: u8,
        migrate: MigrateType,
        excl: Option<(Pfn, u64)>,
    ) -> Option<(Pfn, Cost)> {
        self.generation += 1;
        assert!(order <= MAX_ORDER, "order {order} > MAX_ORDER");
        let intersects = |head: u64, o: u8| -> bool {
            match excl {
                Some((s, n)) => head < s.0 + n && s.0 < head + (1u64 << o),
                None => false,
            }
        };
        // Candidate per order: the lowest (unmovable) or highest (movable)
        // non-excluded block; then the best across orders by address.
        let mut best: Option<(u64, u8)> = None;
        for o in order..=MAX_ORDER {
            let cand = match migrate {
                MigrateType::Unmovable => self.free[o as usize]
                    .iter()
                    .find(|&&h| !intersects(h, o))
                    .copied(),
                MigrateType::Movable => self.free[o as usize]
                    .iter()
                    .rev()
                    .find(|&&h| !intersects(h, o))
                    .copied(),
            };
            if let Some(h) = cand {
                best = Some(match (best, migrate) {
                    (None, _) => (h, o),
                    (Some((bh, _)), MigrateType::Unmovable) if h < bh => (h, o),
                    (Some((bh, bo)), MigrateType::Movable)
                        if h + (1u64 << o) > bh + (1u64 << bo) =>
                    {
                        (h, o)
                    }
                    (Some(b), _) => b,
                });
            }
        }
        let Some((mut head, from_order)) = best else {
            self.stats.failures += 1;
            return None;
        };
        self.free[from_order as usize].remove(&head);
        let mut splits = 0u64;
        let mut o = from_order;
        while o > order {
            o -= 1;
            let half = 1u64 << o;
            match migrate {
                // Keep the high half, free the low half: movable pages stay
                // near the top (the balloon frontier).
                MigrateType::Movable => {
                    self.free[o as usize].insert(head);
                    head += half;
                }
                MigrateType::Unmovable => {
                    self.free[o as usize].insert(head + half);
                }
            }
            splits += 1;
            self.stats.splits += 1;
        }
        self.allocated.insert(head, AllocInfo { order, migrate });
        let npages = 1u64 << order;
        self.free_pages -= npages;
        self.stats.allocs += 1;
        let cost = Cost::instr(160 + 24 * splits + 12 * npages)
            + Cost::mem(14 + 2 * splits + npages * 3 / 2);
        Some((Pfn(head), cost))
    }

    /// Frees a block previously returned by [`BuddyAllocator::alloc_pages`],
    /// merging with free buddies.
    ///
    /// # Panics
    ///
    /// Panics on double-free or a pfn that is not a block head.
    pub fn free_pages(&mut self, pfn: Pfn) -> Cost {
        self.generation += 1;
        let info = self
            .allocated
            .remove(&pfn.0)
            .unwrap_or_else(|| panic!("free of non-allocated block {pfn:?}"));
        let npages = 1u64 << info.order;
        let mut head = pfn.0;
        let mut order = info.order;
        let mut merges = 0u64;
        while order < MAX_ORDER {
            let buddy = head ^ (1u64 << order);
            if self.free[order as usize].contains(&buddy)
                && self.managed_contig(head.min(buddy), 1 << (order + 1))
            {
                self.free[order as usize].remove(&buddy);
                head = head.min(buddy);
                order += 1;
                merges += 1;
                self.stats.merges += 1;
            } else {
                break;
            }
        }
        self.free[order as usize].insert(head);
        self.free_pages += npages;
        self.stats.frees += 1;
        Cost::instr(200 + 30 * merges + 6 * npages) + Cost::mem(20 + 4 * merges + npages)
    }

    /// The head of the first allocated block intersecting the range, if any.
    pub fn first_allocated_in(&self, start: Pfn, npages: u64) -> Option<Pfn> {
        self.allocated_range(start, npages)
            .next()
            .map(|(head, _)| Pfn(head))
    }

    /// All allocated block heads intersecting the range, in address order.
    pub fn allocated_in(&self, start: Pfn, npages: u64) -> Vec<(Pfn, AllocInfo)> {
        self.allocated_range(start, npages)
            .map(|(head, info)| (Pfn(head), info))
            .collect()
    }

    /// The allocated blocks intersecting the range, in address order: a
    /// block is at most `2^MAX_ORDER` pages, so none that starts further
    /// below `start` can reach it.
    fn allocated_range(
        &self,
        start: Pfn,
        npages: u64,
    ) -> impl Iterator<Item = (u64, AllocInfo)> + '_ {
        let from = start.0.saturating_sub((1 << MAX_ORDER) - 1);
        self.allocated
            .range(from..start.0 + npages)
            .filter(move |(&head, info)| head + (1u64 << info.order) > start.0)
            .map(|(&head, &info)| (head, info))
    }

    /// `true` if the whole range is managed and free.
    pub fn is_range_free(&self, start: Pfn, npages: u64) -> bool {
        if self.first_allocated_in(start, npages).is_some() {
            return false;
        }
        let end = start.0 + npages;
        let mut cursor = start.0;
        while cursor < end {
            match self.free_block_containing(cursor) {
                Some((head, order)) => cursor = head + (1 << order),
                None => return false,
            }
        }
        true
    }

    /// Verifies internal invariants; used by property tests.
    ///
    /// # Panics
    ///
    /// Panics if free lists overlap each other, overlap allocations, or the
    /// free-page counter is inconsistent.
    pub fn check_invariants(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }

    /// Non-panicking invariant check: free blocks must be aligned to their
    /// order, no block may overlap another (free or allocated), the
    /// free-page counter must match the lists, and every block must lie
    /// in a managed range. Returns the first inconsistency found. The
    /// system-wide invariant auditor runs this after simulation steps.
    ///
    /// A clean result is remembered with the mutation generation it saw.
    /// Only the `&mut` entry points write the private state, and each
    /// bumps the generation first, so while the generation stands still
    /// the state is the one already checked and the call returns `Ok` at
    /// once. Otherwise one allocation-free pass checks everything.
    pub fn validate(&self) -> Result<(), String> {
        if self.clean_at.get() == Some(self.generation) {
            return Ok(());
        }
        self.sweep()?;
        self.clean_at.set(self.generation);
        Ok(())
    }

    /// The full check behind [`BuddyAllocator::validate`]: one walk over
    /// every block in address order, merging the sorted free lists with
    /// the allocated map. Alignment and overlap are reported as the walk
    /// meets them, then counter drift, then the first block outside the
    /// managed ranges.
    fn sweep(&self) -> Result<(), String> {
        let mut lists: [_; (MAX_ORDER + 1) as usize] =
            std::array::from_fn(|o| self.free[o].iter().copied().peekable());
        let mut allocated = self.allocated.iter().peekable();
        let mut covered_to = 0u64;
        let mut free_total = 0u64;
        let mut unmanaged = None;
        loop {
            // The lowest head left; on a tie the allocated block first,
            // then the lowest order.
            let mut next = allocated
                .peek()
                .map(|(&head, info)| (head, info.order, false));
            for (o, list) in lists.iter_mut().enumerate() {
                if let Some(&head) = list.peek() {
                    if next.is_none_or(|(h, ..)| head < h) {
                        next = Some((head, o as u8, true));
                    }
                }
            }
            let Some((s, order, free)) = next else { break };
            let e = s + (1u64 << order);
            if free {
                lists[order as usize].next();
                if s % (1 << order) != 0 {
                    return Err(format!("unaligned free block {s:#x} order {order}"));
                }
                free_total += 1 << order;
            } else {
                allocated.next();
            }
            if s < covered_to {
                return Err(format!("block [{s:#x},{e:#x}) overlaps previous"));
            }
            covered_to = e;
            if unmanaged.is_none() && !self.managed_contig(s, e - s) {
                unmanaged = Some((s, e));
            }
        }
        if free_total != self.free_pages {
            return Err(format!(
                "free-page counter drifted: lists hold {free_total}, counter says {}",
                self.free_pages
            ));
        }
        if let Some((s, e)) = unmanaged {
            return Err(format!("block [{s:#x},{e:#x}) outside managed ranges"));
        }
        Ok(())
    }

    fn insert_free(&mut self, head: u64, order: u8) {
        debug_assert_eq!(head % (1 << order), 0);
        self.free[order as usize].insert(head);
    }

    fn free_block_containing(&self, pfn: u64) -> Option<(u64, u8)> {
        for order in 0..=MAX_ORDER {
            let head = pfn & !((1u64 << order) - 1);
            if self.free[order as usize].contains(&head) {
                return Some((head, order));
            }
        }
        None
    }

    fn managed_contig(&self, start: u64, npages: u64) -> bool {
        if let Some((&s, &n)) = self.managed.range(..=start).next_back() {
            return start + npages <= s + n;
        }
        false
    }

    fn coalesce_managed(&mut self, start: u64, npages: u64) {
        let mut s = start;
        let mut e = start + npages;
        if let Some((&ps, &pn)) = self.managed.range(..start).next_back() {
            if ps + pn == s {
                s = ps;
                self.managed.remove(&ps);
            }
        }
        if let Some(&nn) = self.managed.get(&e) {
            self.managed.remove(&e);
            e += nn;
        }
        self.managed.insert(s, e - s);
    }

    fn unmanage(&mut self, start: u64, npages: u64) {
        // Find the managed range containing [start, start+npages).
        let (&s, &n) = self
            .managed
            .range(..=start)
            .next_back()
            .expect("range is managed");
        let e = s + n;
        assert!(start + npages <= e, "range not fully managed");
        self.managed.remove(&s);
        if s < start {
            self.managed.insert(s, start - s);
        }
        if start + npages < e {
            self.managed.insert(start + npages, e - (start + npages));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(npages: u64) -> BuddyAllocator {
        let mut b = BuddyAllocator::new();
        b.add_range(Pfn(0), npages);
        b
    }

    #[test]
    fn alloc_free_round_trip() {
        let mut b = mk(1024);
        let (p, _) = b.alloc_pages(3, MigrateType::Unmovable).unwrap();
        assert_eq!(b.free_page_count(), 1024 - 8);
        b.free_pages(p);
        assert_eq!(b.free_page_count(), 1024);
        b.check_invariants();
    }

    #[test]
    fn merge_restores_max_blocks() {
        let mut b = mk(1024);
        let pages: Vec<Pfn> = (0..1024)
            .map(|_| b.alloc_pages(0, MigrateType::Unmovable).unwrap().0)
            .collect();
        assert_eq!(b.free_page_count(), 0);
        assert!(b.alloc_pages(0, MigrateType::Unmovable).is_none());
        for p in pages {
            b.free_pages(p);
        }
        assert_eq!(b.largest_free_order(), Some(10));
        b.check_invariants();
    }

    #[test]
    fn movable_allocates_high_unmovable_low() {
        let mut b = mk(1024);
        let (mv, _) = b.alloc_pages(0, MigrateType::Movable).unwrap();
        let (um, _) = b.alloc_pages(0, MigrateType::Unmovable).unwrap();
        assert_eq!(mv, Pfn(1023), "movable from the top");
        assert_eq!(um, Pfn(0), "unmovable from the bottom");
        b.check_invariants();
    }

    #[test]
    fn split_accounting() {
        let mut b = mk(1024);
        let before = b.stats().splits;
        // Allocating order 0 from a pristine order-10 block needs 10 splits.
        b.alloc_pages(0, MigrateType::Unmovable).unwrap();
        assert_eq!(b.stats().splits - before, 10);
    }

    #[test]
    fn alloc_cost_grows_with_size() {
        let mut b = mk(2048);
        let (_, c0) = b.alloc_pages(0, MigrateType::Unmovable).unwrap();
        let (_, c6) = b.alloc_pages(6, MigrateType::Unmovable).unwrap();
        let (_, c8) = b.alloc_pages(8, MigrateType::Unmovable).unwrap();
        assert!(c6.mem_refs > c0.mem_refs);
        assert!(c8.mem_refs > c6.mem_refs);
    }

    #[test]
    fn failure_counted_when_oom() {
        let mut b = mk(4);
        assert!(b.alloc_pages(3, MigrateType::Unmovable).is_none());
        assert_eq!(b.stats().failures, 1);
    }

    #[test]
    #[should_panic(expected = "non-allocated")]
    fn double_free_panics() {
        let mut b = mk(16);
        let (p, _) = b.alloc_pages(0, MigrateType::Unmovable).unwrap();
        b.free_pages(p);
        b.free_pages(p);
    }

    #[test]
    fn add_range_unaligned() {
        let mut b = BuddyAllocator::new();
        b.add_range(Pfn(3), 13); // 3..16: blocks 3,4-7,8-15? (1+1+4+8=14? no: 13 pages)
        assert_eq!(b.free_page_count(), 13);
        assert_eq!(b.managed_page_count(), 13);
        b.check_invariants();
        // Can allocate them all as single pages.
        for _ in 0..13 {
            assert!(b.alloc_pages(0, MigrateType::Unmovable).is_some());
        }
        assert!(b.alloc_pages(0, MigrateType::Unmovable).is_none());
    }

    #[test]
    #[should_panic(expected = "overlaps managed")]
    fn overlapping_add_panics() {
        let mut b = mk(64);
        b.add_range(Pfn(32), 64);
    }

    #[test]
    fn remove_range_of_free_memory() {
        let mut b = mk(1024);
        assert!(b.remove_range(Pfn(256), 256).is_ok());
        assert_eq!(b.free_page_count(), 768);
        assert_eq!(b.managed_page_count(), 768);
        b.check_invariants();
        // The removed range can be re-added (balloon deflate).
        b.add_range(Pfn(256), 256);
        assert_eq!(b.free_page_count(), 1024);
        b.check_invariants();
    }

    #[test]
    fn remove_range_reports_allocated_page() {
        let mut b = mk(1024);
        let (p, _) = b.alloc_pages(0, MigrateType::Unmovable).unwrap(); // pfn 0
        assert_eq!(b.remove_range(Pfn(0), 64), Err(p));
    }

    #[test]
    fn buddies_do_not_merge_across_managed_gap() {
        let mut b = BuddyAllocator::new();
        b.add_range(Pfn(0), 8);
        b.add_range(Pfn(16), 8);
        // Allocate and free everything; blocks must stay order <= 3.
        let a: Vec<Pfn> = (0..16)
            .map(|_| b.alloc_pages(0, MigrateType::Unmovable).unwrap().0)
            .collect();
        for p in a {
            b.free_pages(p);
        }
        assert_eq!(b.largest_free_order(), Some(3));
        b.check_invariants();
    }

    #[test]
    fn allocated_in_lists_blocks() {
        let mut b = mk(64);
        let (p1, _) = b.alloc_pages(2, MigrateType::Unmovable).unwrap();
        let (p2, _) = b.alloc_pages(0, MigrateType::Movable).unwrap();
        let all = b.allocated_in(Pfn(0), 64);
        assert_eq!(all.len(), 2);
        assert!(all.iter().any(|(p, i)| *p == p1 && i.order == 2));
        assert!(all
            .iter()
            .any(|(p, i)| *p == p2 && i.migrate == MigrateType::Movable));
    }

    #[test]
    fn range_queries_see_blocks_that_start_below_the_range() {
        let mut b = mk(2048);
        let (big, _) = b.alloc_pages(MAX_ORDER, MigrateType::Unmovable).unwrap();
        let (small, _) = b.alloc_pages(0, MigrateType::Unmovable).unwrap();
        assert_eq!((big, small), (Pfn(0), Pfn(1024)));
        assert_eq!(b.first_allocated_in(Pfn(1023), 1), Some(big));
        assert_eq!(b.first_allocated_in(Pfn(1024), 8), Some(small));
        assert_eq!(b.first_allocated_in(Pfn(1025), 8), None);
        let both: Vec<Pfn> = b
            .allocated_in(Pfn(1000), 100)
            .iter()
            .map(|(p, _)| *p)
            .collect();
        assert_eq!(both, [big, small]);
    }

    /// An allocator managing `[0, npages)` whose free lists hold exactly
    /// the `(head, order)` blocks in `free`, whose allocated map holds
    /// those in `allocated`, and whose free-page counter reads `counter`:
    /// state no public call sequence can reach.
    fn planted(
        npages: u64,
        free: &[(u64, u8)],
        allocated: &[(u64, u8)],
        counter: u64,
    ) -> BuddyAllocator {
        let mut b = BuddyAllocator::new();
        b.managed.insert(0, npages);
        for &(head, order) in free {
            b.free[order as usize].insert(head);
        }
        for &(head, order) in allocated {
            let info = AllocInfo {
                order,
                migrate: MigrateType::Unmovable,
            };
            b.allocated.insert(head, info);
        }
        b.free_pages = counter;
        b
    }

    #[test]
    fn planted_consistent_state_validates() {
        let b = planted(16, &[(0, 2), (4, 2), (12, 2)], &[(8, 2)], 12);
        assert_eq!(b.validate(), Ok(()));
    }

    #[test]
    fn validate_reports_an_unaligned_free_block() {
        let b = planted(16, &[(0, 0), (1, 0), (2, 1), (4, 3), (12, 2)], &[], 16);
        assert_eq!(
            b.validate(),
            Err("unaligned free block 0x4 order 3".to_string())
        );
    }

    #[test]
    fn validate_reports_free_blocks_overlapping_across_orders() {
        let b = planted(16, &[(0, 4), (8, 3)], &[], 24);
        assert_eq!(
            b.validate(),
            Err("block [0x8,0x10) overlaps previous".to_string())
        );
    }

    #[test]
    fn validate_reports_a_free_block_overlapping_an_allocated_one() {
        let b = planted(16, &[(0, 3), (8, 3)], &[(4, 2)], 16);
        assert_eq!(
            b.validate(),
            Err("block [0x4,0x8) overlaps previous".to_string())
        );
        // At a shared head the allocated block is met first.
        let b = planted(16, &[(0, 3), (8, 3)], &[(0, 0)], 16);
        assert_eq!(
            b.validate(),
            Err("block [0x0,0x8) overlaps previous".to_string())
        );
    }

    #[test]
    fn validate_reports_a_block_outside_the_managed_ranges() {
        let b = planted(16, &[(0, 4)], &[(16, 2)], 16);
        assert_eq!(
            b.validate(),
            Err("block [0x10,0x14) outside managed ranges".to_string())
        );
    }

    #[test]
    fn validate_reports_counter_drift() {
        let b = planted(16, &[(0, 4)], &[], 15);
        assert_eq!(
            b.validate(),
            Err("free-page counter drifted: lists hold 16, counter says 15".to_string())
        );
    }

    /// The drift message for an allocator whose counter reads one page
    /// more than its lists hold.
    fn drift_by_one(b: &BuddyAllocator) -> Result<(), String> {
        let counter = b.free_page_count();
        Err(format!(
            "free-page counter drifted: lists hold {}, counter says {counter}",
            counter - 1
        ))
    }

    #[test]
    fn every_mutator_moves_the_generation() {
        type Mutation = fn(&mut BuddyAllocator);
        let mutations: [(&str, Mutation); 7] = [
            ("add_range", |b| {
                b.add_range(Pfn(1024), 64);
            }),
            ("remove_range", |b| {
                b.remove_range(Pfn(512), 64).unwrap();
            }),
            ("refused remove_range", |b| {
                b.remove_range(Pfn(0), 64).unwrap_err();
            }),
            ("alloc_pages", |b| {
                b.alloc_pages(0, MigrateType::Movable).unwrap();
            }),
            ("alloc_pages_excluding", |b| {
                let excl = Some((Pfn(0), 512));
                b.alloc_pages_excluding(0, MigrateType::Unmovable, excl)
                    .unwrap();
            }),
            ("failed alloc_pages", |b| {
                assert!(b.alloc_pages(MAX_ORDER, MigrateType::Movable).is_none());
            }),
            ("free_pages", |b| {
                b.free_pages(Pfn(0));
            }),
        ];
        for (name, mutate) in mutations {
            let mut b = mk(1024);
            b.alloc_pages(0, MigrateType::Unmovable).unwrap(); // pfn 0
            assert_eq!(b.validate(), Ok(()), "{name}");
            // A fault planted behind the allocator's back goes unseen while
            // the generation stands still ...
            b.free_pages += 1;
            assert_eq!(b.validate(), Ok(()), "{name}: unchanged, not walked");
            // ... and is found by the first check after any mutation.
            mutate(&mut b);
            assert_eq!(b.validate(), drift_by_one(&b), "{name}");
        }
    }

    #[test]
    fn a_clean_check_vouches_only_for_the_state_it_saw() {
        let mut original = mk(1024);
        assert_eq!(original.validate(), Ok(()));
        // A clone carries the clean check with the state it covers.
        let mut copy = original.clone();
        copy.free_pages += 1;
        assert_eq!(copy.validate(), Ok(()), "the copied check covers the copy");
        // Both then move one generation on, to different states; checking
        // the original must not vouch for the clone.
        copy.alloc_pages(0, MigrateType::Movable).unwrap();
        original.alloc_pages(0, MigrateType::Movable).unwrap();
        assert_eq!(original.validate(), Ok(()));
        assert_eq!(copy.validate(), drift_by_one(&copy));
    }

    #[test]
    fn is_range_free_detects_holes() {
        let mut b = mk(64);
        assert!(b.is_range_free(Pfn(0), 64));
        let (p, _) = b.alloc_pages(0, MigrateType::Movable).unwrap();
        assert!(!b.is_range_free(Pfn(0), 64));
        b.free_pages(p);
        assert!(b.is_range_free(Pfn(0), 64));
        // Unmanaged memory is never "free".
        assert!(!b.is_range_free(Pfn(100), 4));
    }
}
