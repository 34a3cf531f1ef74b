//! Block devices.
//!
//! The paper's ext2 benchmark runs on a ramdisk "as the SD card driver of K2
//! is not yet fully functional" (§9.2) — which also deliberately favours
//! Linux, since a fast block device shortens the idle gaps that are so
//! expensive on strong cores. We model the same ramdisk, plus a flash-like
//! device with per-operation latency for tests and examples that want
//! realistic I/O gaps.

use crate::cost::Cost;
use k2_sim::time::SimDuration;
use std::sync::Arc;

/// Block size in bytes (matches the 4 KB page size).
pub const BLOCK_SIZE: usize = 4096;

/// A fixed-size array of blocks with explicit per-op costs.
pub trait BlockDevice {
    /// Number of blocks.
    fn block_count(&self) -> u64;

    /// Reads block `n` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range or `buf` is not [`BLOCK_SIZE`] bytes.
    fn read_block(&self, n: u64, buf: &mut [u8]) -> Cost;

    /// Writes `buf` to block `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range or `buf` is not [`BLOCK_SIZE`] bytes.
    fn write_block(&mut self, n: u64, buf: &[u8]) -> Cost;

    /// Extra device-side latency per operation (zero for a ramdisk); the
    /// caller turns this into an I/O wait instead of busy time.
    fn io_latency(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

/// A RAM-backed block device: CPU copy cost, no I/O latency.
///
/// The block table is copy-on-write at two levels: `Arc`'d chunks of 64
/// slots, each written slot an `Arc`'d 4 KB block, and no chunk until one
/// of its blocks is written. A clone, which every snapshot fork makes,
/// copies one pointer per chunk (1 KiB for a system's 8,192-block disk)
/// and bumps the written chunks' refcounts. The first write to a shared
/// block copies its chunk (512 bytes of slots) and then the block itself
/// (`Arc::make_mut`, chunk first); later writes to them copy nothing.
#[derive(Clone, Debug)]
pub struct RamDisk {
    chunks: Vec<Option<Arc<Chunk>>>,
    blocks: u64,
}

/// Slots per copy-on-write chunk of a [`RamDisk`]'s table.
const CHUNK_SLOTS: usize = 64;

/// One chunk of a [`RamDisk`]'s table: a slot per block, `None` until the
/// block is first written.
type Chunk = [Option<Arc<[u8; BLOCK_SIZE]>>; CHUNK_SLOTS];

impl RamDisk {
    /// Creates a zeroed ramdisk of `blocks` blocks.
    pub fn new(blocks: u64) -> Self {
        RamDisk {
            chunks: vec![None; blocks.div_ceil(CHUNK_SLOTS as u64) as usize],
            blocks,
        }
    }

    /// The chunk index and slot of block `n`. The last chunk may hold
    /// fewer than 64 blocks, so the range is checked here and not left
    /// to the table's bounds.
    fn locate(&self, n: u64) -> (usize, usize) {
        assert!(
            n < self.blocks,
            "block {n} beyond a {}-block disk",
            self.blocks
        );
        let slots = CHUNK_SLOTS as u64;
        ((n / slots) as usize, (n % slots) as usize)
    }
}

impl BlockDevice for RamDisk {
    fn block_count(&self) -> u64 {
        self.blocks
    }

    fn read_block(&self, n: u64, buf: &mut [u8]) -> Cost {
        assert_eq!(buf.len(), BLOCK_SIZE, "short buffer");
        let (chunk, slot) = self.locate(n);
        match self.chunks[chunk].as_ref().and_then(|c| c[slot].as_ref()) {
            Some(b) => buf.copy_from_slice(&b[..]),
            None => buf.fill(0),
        }
        Cost::instr(60) + Cost::bulk(BLOCK_SIZE as u64)
    }

    fn write_block(&mut self, n: u64, buf: &[u8]) -> Cost {
        assert_eq!(buf.len(), BLOCK_SIZE, "short buffer");
        let (chunk, slot) = self.locate(n);
        let chunk =
            self.chunks[chunk].get_or_insert_with(|| Arc::new([const { None }; CHUNK_SLOTS]));
        let block = Arc::make_mut(chunk)[slot].get_or_insert_with(|| Arc::new([0; BLOCK_SIZE]));
        Arc::make_mut(block).copy_from_slice(buf);
        Cost::instr(60) + Cost::bulk(BLOCK_SIZE as u64)
    }
}

/// A flash-like device: same storage, but each operation has device latency
/// (the I/O-bound idle gaps of §2.1).
#[derive(Clone, Debug)]
pub struct FlashDisk {
    inner: RamDisk,
    read_latency: SimDuration,
    write_latency: SimDuration,
}

impl FlashDisk {
    /// Creates a flash device with eMMC-class latencies (~100 µs read,
    /// ~250 µs write per 4 KB block).
    pub fn new(blocks: u64) -> Self {
        FlashDisk {
            inner: RamDisk::new(blocks),
            read_latency: SimDuration::from_us(100),
            write_latency: SimDuration::from_us(250),
        }
    }
}

impl BlockDevice for FlashDisk {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    fn read_block(&self, n: u64, buf: &mut [u8]) -> Cost {
        self.inner.read_block(n, buf)
    }

    fn write_block(&mut self, n: u64, buf: &[u8]) -> Cost {
        self.inner.write_block(n, buf)
    }

    fn io_latency(&self) -> SimDuration {
        // A single representative latency per op keeps the interface small;
        // writes dominate the ext2 workload.
        self.write_latency.max(self.read_latency)
    }
}

/// A block device chosen at boot time: the paper's ramdisk (which favours
/// the Linux baseline by shortening idle gaps), or a flash-like device
/// whose per-operation latency produces the IO-bound idle periods of
/// §2.1.
#[derive(Clone, Debug)]
pub enum Disk {
    /// RAM-backed, zero I/O latency.
    Ram(RamDisk),
    /// eMMC-class latencies.
    Flash(FlashDisk),
}

impl BlockDevice for Disk {
    fn block_count(&self) -> u64 {
        match self {
            Disk::Ram(d) => d.block_count(),
            Disk::Flash(d) => d.block_count(),
        }
    }

    fn read_block(&self, n: u64, buf: &mut [u8]) -> Cost {
        match self {
            Disk::Ram(d) => d.read_block(n, buf),
            Disk::Flash(d) => d.read_block(n, buf),
        }
    }

    fn write_block(&mut self, n: u64, buf: &[u8]) -> Cost {
        match self {
            Disk::Ram(d) => d.write_block(n, buf),
            Disk::Flash(d) => d.write_block(n, buf),
        }
    }

    fn io_latency(&self) -> SimDuration {
        match self {
            Disk::Ram(d) => d.io_latency(),
            Disk::Flash(d) => d.io_latency(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramdisk_round_trips_blocks() {
        // Block 99 is the last of a 100-block disk, whose last chunk is
        // partial.
        for (blocks, n) in [(8, 3), (100, 99)] {
            let mut d = RamDisk::new(blocks);
            let data = [0x5au8; BLOCK_SIZE];
            d.write_block(n, &data);
            let mut out = [0u8; BLOCK_SIZE];
            d.read_block(n, &mut out);
            assert_eq!(out[..], data[..]);
        }
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let d = RamDisk::new(2);
        let mut out = [1u8; BLOCK_SIZE];
        d.read_block(0, &mut out);
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn ramdisk_has_no_io_latency() {
        assert_eq!(RamDisk::new(1).io_latency(), SimDuration::ZERO);
    }

    #[test]
    fn flash_has_io_latency() {
        assert!(FlashDisk::new(1).io_latency() > SimDuration::ZERO);
    }

    #[test]
    fn costs_include_bulk_copy() {
        let mut d = RamDisk::new(1);
        let c = d.write_block(0, &[0u8; BLOCK_SIZE]);
        assert_eq!(c.bulk_bytes, BLOCK_SIZE as u64);
    }

    #[test]
    #[should_panic]
    fn out_of_range_block_panics() {
        let d = RamDisk::new(1);
        let mut out = [0u8; BLOCK_SIZE];
        d.read_block(5, &mut out);
    }

    fn read(d: &RamDisk, n: u64) -> [u8; BLOCK_SIZE] {
        let mut out = [0u8; BLOCK_SIZE];
        d.read_block(n, &mut out);
        out
    }

    #[test]
    fn writes_to_a_clone_and_its_original_stay_apart() {
        // Block 3 is written before the clone, so both disks share its
        // chunk and block; block 200 lies in a chunk never written.
        for (n, was) in [(3, 1), (200, 0)] {
            let mut original = RamDisk::new(256);
            original.write_block(3, &[1; BLOCK_SIZE]);
            let mut clone = original.clone();
            clone.write_block(n, &[2; BLOCK_SIZE]);
            assert_eq!(read(&clone, n), [2; BLOCK_SIZE]);
            assert_eq!(read(&original, n), [was; BLOCK_SIZE], "block {n}");
            original.write_block(n, &[3; BLOCK_SIZE]);
            assert_eq!(read(&original, n), [3; BLOCK_SIZE]);
            assert_eq!(read(&clone, n), [2; BLOCK_SIZE], "block {n}");
        }
    }

    #[test]
    #[should_panic(expected = "beyond a 100-block disk")]
    fn reading_past_a_partial_chunk_panics() {
        read(&RamDisk::new(100), 100);
    }

    #[test]
    #[should_panic(expected = "beyond a 100-block disk")]
    fn writing_past_a_partial_chunk_panics() {
        RamDisk::new(100).write_block(100, &[0; BLOCK_SIZE]);
    }
}
