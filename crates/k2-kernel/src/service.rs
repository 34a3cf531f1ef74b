//! Shadowed-service plumbing: operation contexts.
//!
//! K2 classifies OS services (paper §5.3): *shadowed* services (drivers,
//! filesystems, the network stack) are built from one source and share their
//! state across kernels, with K2's DSM keeping it coherent transparently.
//! For the DSM to do its job in this reproduction, every shadowed-service
//! operation reports which of its 4 KB state pages it touched, via an
//! [`OpCx`] threaded through the call.
//!
//! The service code itself stays oblivious to coherence — exactly the
//! paper's point: shadowed services are reused, not rewritten.

use crate::cost::Cost;

/// A shadowed service's identity, namespacing its state pages.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ServiceId {
    /// The ext2 filesystem (metadata state).
    Fs,
    /// The UDP network stack (socket tables and buffers).
    Net,
    /// The DMA device driver (channel pools and the engine queue).
    DmaDriver,
}

/// One 4 KB page of a service's state, identified service-relative.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StatePage(pub u32);

/// Accumulates the cost and the state-page access trace of one operation.
///
/// # Examples
///
/// ```
/// use k2_kernel::service::OpCx;
/// use k2_kernel::cost::Cost;
///
/// let mut cx = OpCx::new();
/// cx.charge(Cost::instr(100));
/// cx.read(3);
/// cx.write(3);
/// assert_eq!(cx.cost().instructions, 100);
/// assert_eq!(cx.writes(), &[k2_kernel::service::StatePage(3)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct OpCx {
    cost: Cost,
    reads: Vec<StatePage>,
    writes: Vec<StatePage>,
    fresh: Vec<StatePage>,
}

impl OpCx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to the operation's cost.
    pub fn charge(&mut self, c: Cost) {
        self.cost += c;
    }

    /// Records a read of state page `p` (deduplicated).
    pub fn read(&mut self, p: u32) {
        let p = StatePage(p);
        if !self.reads.contains(&p) {
            self.reads.push(p);
        }
    }

    /// Records a write of state page `p` (deduplicated; also counts as a
    /// read for protocols that do not distinguish).
    pub fn write(&mut self, p: u32) {
        let p = StatePage(p);
        if !self.writes.contains(&p) {
            self.writes.push(p);
        }
        if !self.reads.contains(&p) {
            self.reads.push(p);
        }
    }

    /// Records that state page `p` was *freshly allocated* by this
    /// operation (e.g. a new socket's state, a data block taken from the
    /// free pool). Fresh pages belong to the allocating kernel from the
    /// start: the memory came from its local pool, so no coherence transfer
    /// is needed. (A recycled page that the other kernel once cached would
    /// in reality need one invalidation; the model accepts that small
    /// inaccuracy.) The page is also recorded as written.
    pub fn alloc(&mut self, p: u32) {
        let sp = StatePage(p);
        if !self.fresh.contains(&sp) {
            self.fresh.push(sp);
        }
        self.write(p);
    }

    /// Total cost so far.
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// Pages read (including written pages).
    pub fn reads(&self) -> &[StatePage] {
        &self.reads
    }

    /// Pages written.
    pub fn writes(&self) -> &[StatePage] {
        &self.writes
    }

    /// Pages freshly allocated by this operation.
    pub fn fresh(&self) -> &[StatePage] {
        &self.fresh
    }

    /// Empties the context for the next operation: cost back to zero,
    /// every page list emptied. The lists keep their capacity, so a
    /// context reused across operations stops allocating once it has
    /// seen its largest operation.
    pub fn clear(&mut self) {
        self.cost = Cost::default();
        self.reads.clear();
        self.writes.clear();
        self.fresh.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let mut cx = OpCx::new();
        cx.charge(Cost::instr(10));
        cx.charge(Cost::mem(5));
        assert_eq!(cx.cost(), Cost::instr(10) + Cost::mem(5));
    }

    #[test]
    fn reads_and_writes_deduplicate() {
        let mut cx = OpCx::new();
        cx.read(1);
        cx.read(1);
        cx.write(2);
        cx.write(2);
        assert_eq!(cx.reads().len(), 2);
        assert_eq!(cx.writes().len(), 1);
    }

    #[test]
    fn write_implies_read() {
        let mut cx = OpCx::new();
        cx.write(7);
        assert_eq!(cx.reads(), &[StatePage(7)]);
        assert_eq!(cx.writes(), &[StatePage(7)]);
    }

    #[test]
    fn clear_resets_cost_and_pages() {
        let mut cx = OpCx::new();
        cx.charge(Cost::instr(1));
        cx.alloc(4);
        cx.read(0);
        cx.clear();
        assert_eq!(cx.cost(), Cost::default());
        assert!(cx.reads().is_empty() && cx.writes().is_empty() && cx.fresh().is_empty());
        // A cleared context records afresh, as a new one would.
        cx.read(4);
        assert_eq!(cx.reads(), &[StatePage(4)]);
        assert!(cx.fresh().is_empty());
    }

    #[test]
    fn alloc_marks_fresh_and_written() {
        let mut cx = OpCx::new();
        cx.alloc(9);
        assert_eq!(cx.fresh(), &[StatePage(9)]);
        assert_eq!(cx.writes(), &[StatePage(9)]);
    }
}
