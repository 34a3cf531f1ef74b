//! Shared physical memory.
//!
//! All coherence domains connect to the system interconnect and share one
//! pool of RAM (paper §4.2). The model stores page contents sparsely — only
//! pages that have actually been written occupy host memory — so a simulated
//! 1 GB platform stays cheap while DMA transfers and filesystem writes
//! remain fully verifiable byte-for-byte.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Size of a physical page in bytes (4 KB, the DSM coherence unit).
pub const PAGE_SIZE: usize = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// A physical address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

/// A page frame number (physical address >> 12).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pfn(pub u64);

impl PhysAddr {
    /// The page frame containing this address.
    #[inline]
    pub fn pfn(self) -> Pfn {
        Pfn(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the page.
    #[inline]
    pub fn page_offset(self) -> usize {
        (self.0 & (PAGE_SIZE as u64 - 1)) as usize
    }

    /// Address advanced by `n` bytes.
    #[inline]
    pub fn offset(self, n: u64) -> PhysAddr {
        PhysAddr(self.0 + n)
    }
}

impl Pfn {
    /// The base physical address of this frame.
    #[inline]
    pub fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }

    /// The next frame.
    #[inline]
    pub fn next(self) -> Pfn {
        Pfn(self.0 + 1)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa:{:#x}", self.0)
    }
}

impl fmt::Debug for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{:#x}", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Byte-addressable shared RAM with sparse backing storage.
///
/// # Examples
///
/// ```
/// use k2_soc::mem::{PhysAddr, SharedRam};
///
/// let mut ram = SharedRam::new(64 * 1024 * 1024);
/// ram.write(PhysAddr(0x1000), b"hello");
/// let mut buf = [0u8; 5];
/// ram.read(PhysAddr(0x1000), &mut buf);
/// assert_eq!(&buf, b"hello");
/// ```
/// Backing pages are `Arc`-shared: cloning the RAM (a snapshot freeze or
/// fork) bumps refcounts instead of deep-copying pages, and a write to a
/// shared page copies just that page first (`Arc::make_mut`).
#[derive(Clone)]
pub struct SharedRam {
    size: u64,
    pages: BTreeMap<u64, Arc<[u8; PAGE_SIZE]>>,
}

impl SharedRam {
    /// Creates `size` bytes of zero-initialised RAM.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not page-aligned or is zero.
    pub fn new(size: u64) -> Self {
        assert!(
            size > 0 && size.is_multiple_of(PAGE_SIZE as u64),
            "bad RAM size {size}"
        );
        SharedRam {
            size,
            pages: BTreeMap::new(),
        }
    }

    /// Total RAM size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of page frames.
    pub fn frames(&self) -> u64 {
        self.size / PAGE_SIZE as u64
    }

    /// Folds the RAM's exact state into a snapshot digest: the size plus
    /// every materialised page (in address order) and its bytes. The
    /// sparse representation is itself deterministic — which pages are
    /// materialised is a pure function of the write history — so equal
    /// digests mean structurally equal RAMs.
    pub fn digest_into(&self, h: &mut k2_sim::digest::Fnv64) {
        h.u64(self.size).usize(self.pages.len());
        for (&a, page) in &self.pages {
            h.u64(a).bytes(&page[..]);
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond the end of RAM.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        self.check_range(addr, buf.len());
        let mut a = addr.0;
        let mut done = 0usize;
        while done < buf.len() {
            let off = (a % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            match self.pages.get(&(a >> PAGE_SHIFT)) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            a += n as u64;
            done += n;
        }
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond the end of RAM.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        self.check_range(addr, data.len());
        let mut a = addr.0;
        let mut done = 0usize;
        while done < data.len() {
            let off = (a % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min(data.len() - done);
            let page = self
                .pages
                .entry(a >> PAGE_SHIFT)
                .or_insert_with(|| Arc::new([0u8; PAGE_SIZE]));
            Arc::make_mut(page)[off..off + n].copy_from_slice(&data[done..done + n]);
            a += n as u64;
            done += n;
        }
    }

    /// Fills `len` bytes starting at `addr` with `byte`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond the end of RAM.
    pub fn fill(&mut self, addr: PhysAddr, len: usize, byte: u8) {
        self.check_range(addr, len);
        let mut a = addr.0;
        let mut left = len;
        while left > 0 {
            let off = (a % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min(left);
            if byte == 0 && off == 0 && n == PAGE_SIZE {
                // Whole-page zeroing: drop the backing page instead.
                self.pages.remove(&(a >> PAGE_SHIFT));
            } else {
                let page = self
                    .pages
                    .entry(a >> PAGE_SHIFT)
                    .or_insert_with(|| Arc::new([0u8; PAGE_SIZE]));
                Arc::make_mut(page)[off..off + n].fill(byte);
            }
            a += n as u64;
            left -= n;
        }
    }

    /// Copies `len` bytes from `src` to `dst` (what the DMA engine does).
    /// Handles overlapping ranges like `memmove`.
    ///
    /// # Panics
    ///
    /// Panics if either range extends beyond the end of RAM.
    pub fn copy(&mut self, src: PhysAddr, dst: PhysAddr, len: usize) {
        self.check_range(src, len);
        self.check_range(dst, len);
        let mut tmp = vec![0u8; len];
        self.read(src, &mut tmp);
        self.write(dst, &tmp);
    }

    /// Number of host-resident (non-zero) backing pages; a measure of the
    /// model's own footprint, useful in tests.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn check_range(&self, addr: PhysAddr, len: usize) {
        let end = addr
            .0
            .checked_add(len as u64)
            .unwrap_or_else(|| panic!("address overflow at {addr:?}+{len}"));
        assert!(
            end <= self.size,
            "access [{addr:?}, +{len}) beyond RAM size {:#x}",
            self.size
        );
    }
}

impl fmt::Debug for SharedRam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedRam")
            .field("size", &self.size)
            .field("resident_pages", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_pfn_round_trip() {
        let a = PhysAddr(0x12345);
        assert_eq!(a.pfn(), Pfn(0x12));
        assert_eq!(a.page_offset(), 0x345);
        assert_eq!(Pfn(0x12).base(), PhysAddr(0x12000));
        assert_eq!(Pfn(1).next(), Pfn(2));
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let ram = SharedRam::new(1 << 20);
        let mut buf = [0xffu8; 16];
        ram.read(PhysAddr(0x8000), &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn write_read_cross_page_boundary() {
        let mut ram = SharedRam::new(1 << 20);
        let data: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
        ram.write(PhysAddr(4000), &data); // spans 3 pages
        let mut buf = vec![0u8; 8192];
        ram.read(PhysAddr(4000), &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn fill_and_zero_fill() {
        let mut ram = SharedRam::new(1 << 20);
        ram.fill(PhysAddr(0x1000), 8192, 0xAB);
        let mut b = [0u8; 1];
        ram.read(PhysAddr(0x1fff), &mut b);
        assert_eq!(b[0], 0xAB);
        ram.fill(PhysAddr(0x1000), 4096, 0x00);
        // Whole-page zeroing releases backing storage.
        assert_eq!(ram.resident_pages(), 1);
        ram.read(PhysAddr(0x1000), &mut b);
        assert_eq!(b[0], 0);
    }

    #[test]
    fn copy_moves_bytes() {
        let mut ram = SharedRam::new(1 << 20);
        ram.write(PhysAddr(0), b"dma engine test");
        ram.copy(PhysAddr(0), PhysAddr(0x4_0000), 15);
        let mut buf = [0u8; 15];
        ram.read(PhysAddr(0x4_0000), &mut buf);
        assert_eq!(&buf, b"dma engine test");
    }

    #[test]
    fn copy_overlapping_is_memmove() {
        let mut ram = SharedRam::new(1 << 20);
        ram.write(PhysAddr(0), b"abcdef");
        ram.copy(PhysAddr(0), PhysAddr(2), 6);
        let mut buf = [0u8; 8];
        ram.read(PhysAddr(0), &mut buf);
        assert_eq!(&buf, b"ababcdef");
    }

    #[test]
    fn sparse_backing() {
        let mut ram = SharedRam::new(1 << 30);
        assert_eq!(ram.resident_pages(), 0);
        ram.write(PhysAddr(0x3000_0000), &[1]);
        assert_eq!(ram.resident_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "beyond RAM size")]
    fn out_of_range_access_panics() {
        let ram = SharedRam::new(1 << 20);
        let mut b = [0u8; 2];
        ram.read(PhysAddr((1 << 20) - 1), &mut b);
    }

    #[test]
    #[should_panic(expected = "bad RAM size")]
    fn unaligned_size_panics() {
        let _ = SharedRam::new(1000);
    }
}
