//! Sparse host DRAM model.
//!
//! The evaluation platform has 188 GB of DRAM and several experiments sweep
//! working sets up to 8 GB. The simulator cannot (and need not) allocate
//! that much: [`HostMemory`] stores only the 4 KB frames that have actually
//! been touched, and supports three density optimizations that preserve
//! observable behaviour:
//!
//! * **Zero-fill reads** — reading a never-written frame returns zeros
//!   without materializing it (exactly what fresh anonymous memory reads as
//!   on the real machine).
//! * **Lazy fill regions** — a region can be registered with a deterministic
//!   line generator that synthesizes each 64-byte line on demand. A read
//!   synthesizes only the lines it touches, without storing them; a write
//!   materializes the frame by running the generator over its 64 lines.
//!   This is how multi-gigabyte linked-list workloads exist without being
//!   stored: the generator computes each node's next-pointer from a
//!   Feistel permutation (see `optimus-sim::perm`).
//! * **Scratch regions** — store-free benchmark output regions: writes are
//!   counted but discarded. Only the performance harness uses these;
//!   correctness tests always use fully materialized memory.
//!
//! # Examples
//!
//! ```
//! use optimus_mem::host::HostMemory;
//! use optimus_mem::addr::Hpa;
//!
//! let mut mem = HostMemory::new();
//! mem.write(Hpa::new(0x1000), b"hello");
//! let mut buf = [0u8; 5];
//! mem.read(Hpa::new(0x1000), &mut buf);
//! assert_eq!(&buf, b"hello");
//! ```

use crate::addr::{Hpa, CACHE_LINE, PAGE_4K};
use optimus_sim::hashing::FastMap;
use std::sync::Arc;

/// A 4 KB backing frame.
type Frame = Box<[u8; PAGE_4K as usize]>;

/// A deterministic content generator for a lazy region.
///
/// Called with a line's base HPA and a zeroed 64-byte buffer to fill. A
/// pointer-chasing workload reads one random line per frame, so reads
/// synthesize only the lines they touch. Generators are reference-counted
/// so a region can be re-registered on another device's host memory during
/// migration without re-deriving the generator.
pub type LineFiller = Arc<dyn Fn(Hpa, &mut [u8; CACHE_LINE as usize]) + Send + Sync>;

struct LazyRegion {
    base: u64,
    len: u64,
    line: LineFiller,
}

/// Sparse, lazily materialized host physical memory.
pub struct HostMemory {
    /// Frame base → backing frame. Keyed by addresses the simulator
    /// assigned itself, so the fast deterministic hasher applies; this
    /// map is probed once per 64-byte DMA line.
    frames: FastMap<u64, Frame>,
    lazy: Vec<LazyRegion>,
    scratch: Vec<(u64, u64)>,
    scratch_bytes_discarded: u64,
}

impl Default for HostMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for HostMemory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HostMemory")
            .field("materialized_frames", &self.frames.len())
            .field("lazy_regions", &self.lazy.len())
            .field("scratch_regions", &self.scratch.len())
            .finish()
    }
}

impl HostMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self {
            frames: FastMap::default(),
            lazy: Vec::new(),
            scratch: Vec::new(),
            scratch_bytes_discarded: 0,
        }
    }

    /// Registers `[base, base+len)` as a lazy region defined by the line
    /// generator `line`: reads synthesize the lines they touch, and a write
    /// materializes the frame from all 64 of its lines.
    ///
    /// # Panics
    ///
    /// Panics if `base`/`len` are not 4 KB aligned.
    pub fn add_lazy_region_lines(&mut self, base: Hpa, len: u64, line: LineFiller) {
        assert!(base.is_aligned(PAGE_4K) && len % PAGE_4K == 0, "lazy regions are page-granular");
        self.lazy.push(LazyRegion {
            base: base.raw(),
            len,
            line,
        });
    }

    /// Registers `[base, base+len)` as a scratch region: writes are counted
    /// and discarded, reads return zeros (or lazy content if also lazy).
    ///
    /// Used only by the performance harness for bulk benchmark output; see
    /// the module docs.
    ///
    /// # Panics
    ///
    /// Panics if `base`/`len` are not 4 KB aligned.
    pub fn add_scratch_region(&mut self, base: Hpa, len: u64) {
        assert!(base.is_aligned(PAGE_4K) && len % PAGE_4K == 0, "scratch regions are page-granular");
        self.scratch.push((base.raw(), len));
    }

    fn in_scratch(&self, addr: u64) -> bool {
        self.scratch
            .iter()
            .any(|&(b, l)| addr >= b && addr < b + l)
    }

    fn lazy_region_of(&self, addr: u64) -> Option<usize> {
        self.lazy
            .iter()
            .position(|r| addr >= r.base && addr < r.base + r.len)
    }

    /// Materializes (if needed) and returns the frame containing `addr`.
    fn frame_mut(&mut self, addr: u64) -> &mut Frame {
        let frame_base = addr & !(PAGE_4K - 1);
        if !self.frames.contains_key(&frame_base) {
            let mut frame: Frame = Box::new([0u8; PAGE_4K as usize]);
            if let Some(idx) = self.lazy_region_of(frame_base) {
                let line = &self.lazy[idx].line;
                for (i, chunk) in frame.chunks_exact_mut(CACHE_LINE as usize).enumerate() {
                    line(Hpa::new(frame_base + i as u64 * CACHE_LINE), chunk.try_into().unwrap());
                }
            }
            self.frames.insert(frame_base, frame);
        }
        self.frames.get_mut(&frame_base).unwrap()
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// Unmaterialized plain memory reads as zeros (without materializing);
    /// unmaterialized lazy-region frames are synthesized transiently.
    pub fn read(&self, addr: Hpa, buf: &mut [u8]) {
        let mut cursor = addr.raw();
        let mut filled = 0usize;
        while filled < buf.len() {
            let frame_base = cursor & !(PAGE_4K - 1);
            let offset = (cursor - frame_base) as usize;
            let take = (PAGE_4K as usize - offset).min(buf.len() - filled);
            match self.frames.get(&frame_base) {
                Some(frame) => {
                    buf[filled..filled + take].copy_from_slice(&frame[offset..offset + take]);
                }
                None => {
                    if let Some(idx) = self.lazy_region_of(frame_base) {
                        // Synthesize only the lines this read overlaps, and
                        // without caching: reads alone must not grow memory
                        // when sweeping huge working sets.
                        let line_filler = &self.lazy[idx].line;
                        let first = offset / CACHE_LINE as usize;
                        let last = (offset + take - 1) / CACHE_LINE as usize;
                        for li in first..=last {
                            let line_base = li * CACHE_LINE as usize;
                            let mut line = [0u8; CACHE_LINE as usize];
                            line_filler(Hpa::new(frame_base + line_base as u64), &mut line);
                            let lo = offset.max(line_base);
                            let hi = (offset + take).min(line_base + CACHE_LINE as usize);
                            buf[filled + (lo - offset)..filled + (hi - offset)]
                                .copy_from_slice(&line[lo - line_base..hi - line_base]);
                        }
                    } else {
                        buf[filled..filled + take].fill(0);
                    }
                }
            }
            filled += take;
            cursor += take as u64;
        }
    }

    /// Writes `data` starting at `addr`, materializing frames as needed.
    ///
    /// Writes that fall entirely inside a scratch region are counted and
    /// discarded.
    pub fn write(&mut self, addr: Hpa, data: &[u8]) {
        let mut cursor = addr.raw();
        let mut consumed = 0usize;
        while consumed < data.len() {
            let frame_base = cursor & !(PAGE_4K - 1);
            let offset = (cursor - frame_base) as usize;
            let take = (PAGE_4K as usize - offset).min(data.len() - consumed);
            // Fast path: the frame is already materialized (one map probe,
            // no scratch scan — scratch only intercepts unmaterialized
            // frames, so a present frame always takes the write).
            if let Some(frame) = self.frames.get_mut(&frame_base) {
                frame[offset..offset + take].copy_from_slice(&data[consumed..consumed + take]);
            } else if self.in_scratch(cursor) {
                self.scratch_bytes_discarded += take as u64;
            } else {
                let frame = self.frame_mut(cursor);
                frame[offset..offset + take].copy_from_slice(&data[consumed..consumed + take]);
            }
            consumed += take;
            cursor += take as u64;
        }
    }

    /// Reads one 64-byte cache line (the DMA unit).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not line-aligned.
    pub fn read_line(&self, addr: Hpa) -> [u8; CACHE_LINE as usize] {
        assert!(addr.is_aligned(CACHE_LINE), "DMA reads are line-aligned");
        let mut line = [0u8; CACHE_LINE as usize];
        self.read(addr, &mut line);
        line
    }

    /// Writes one 64-byte cache line (the DMA unit).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not line-aligned.
    pub fn write_line(&mut self, addr: Hpa, line: &[u8; CACHE_LINE as usize]) {
        assert!(addr.is_aligned(CACHE_LINE), "DMA writes are line-aligned");
        self.write(addr, line);
    }

    /// Number of materialized 4 KB frames.
    pub fn materialized_frames(&self) -> usize {
        self.frames.len()
    }

    /// Bytes written into scratch regions and discarded.
    pub fn scratch_bytes_discarded(&self) -> u64 {
        self.scratch_bytes_discarded
    }

    /// Base addresses of materialized frames inside `[base, base+len)`,
    /// sorted ascending (the map itself is unordered).
    pub fn materialized_frames_in(&self, base: Hpa, len: u64) -> Vec<u64> {
        let (lo, hi) = (base.raw(), base.raw() + len);
        let mut bases: Vec<u64> = self
            .frames
            .keys()
            .copied()
            .filter(|&b| b >= lo && b < hi)
            .collect();
        bases.sort_unstable();
        bases
    }

    /// Scratch regions overlapping `[base, base+len)` as
    /// `(region_base, region_len)` pairs, in registration order.
    pub fn scratch_regions_in(&self, base: Hpa, len: u64) -> Vec<(u64, u64)> {
        let (lo, hi) = (base.raw(), base.raw() + len);
        self.scratch
            .iter()
            .copied()
            .filter(|&(b, l)| b < hi && b + l > lo)
            .collect()
    }

    /// Adopts the span `[src_base, src_base+len)` of `src` into this memory
    /// at `[dst_base, dst_base+len)`: materialized frames are copied
    /// byte-for-byte, and the overlapping portions of lazy and scratch
    /// regions are registered at the translated addresses. Line generators
    /// are shared (`Arc`) and wrapped so they keep seeing source-relative
    /// line addresses — synthesized content is therefore identical on both
    /// sides. This is the host-memory half of cross-device tenant migration
    /// and of cross-device share syncs.
    ///
    /// A range this memory already carries at the same translated base and
    /// length is not registered again: the earlier registration answers
    /// every lookup in it, so a repeat would only lengthen the region scans
    /// (a cross-device share re-adopts the same pages at every sync).
    ///
    /// # Panics
    ///
    /// Panics if `src_base`, `dst_base` or `len` are not 4 KB aligned.
    pub fn adopt_span(&mut self, src: &HostMemory, src_base: Hpa, dst_base: Hpa, len: u64) {
        assert!(
            src_base.is_aligned(PAGE_4K) && dst_base.is_aligned(PAGE_4K) && len % PAGE_4K == 0,
            "adopted spans are page-granular"
        );
        // `dst - src`: translates a source address into this memory's range.
        let shift = dst_base.raw().wrapping_sub(src_base.raw());
        for frame_base in src.materialized_frames_in(src_base, len) {
            let frame = src.frames.get(&frame_base).expect("listed frame exists");
            self.frames.insert(frame_base.wrapping_add(shift), frame.clone());
        }
        // Only a region's overlap with the span moves: clamp, then translate.
        let (span_lo, span_hi) = (src_base.raw(), src_base.raw() + len);
        let clamp = |base: u64, len: u64| {
            let lo = base.max(span_lo);
            (lo.wrapping_add(shift), (base + len).min(span_hi) - lo)
        };
        for region in src.lazy.iter().filter(|r| r.base < span_hi && r.base + r.len > span_lo) {
            let (base, len) = clamp(region.base, region.len);
            if self.lazy.iter().any(|r| (r.base, r.len) == (base, len)) {
                continue;
            }
            let line = Arc::clone(&region.line);
            let back_shift = shift.wrapping_neg();
            let line: LineFiller = Arc::new(move |hpa: Hpa, buf: &mut [u8; CACHE_LINE as usize]| {
                line(Hpa::new(hpa.raw().wrapping_add(back_shift)), buf)
            });
            self.lazy.push(LazyRegion { base, len, line });
        }
        for (scr_base, scr_len) in src.scratch_regions_in(src_base, len) {
            let range = clamp(scr_base, scr_len);
            if !self.scratch.contains(&range) {
                self.scratch.push(range);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_reads_do_not_materialize() {
        let mem = HostMemory::new();
        let mut buf = [0xFFu8; 128];
        mem.read(Hpa::new(0x12345000), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(mem.materialized_frames(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut mem = HostMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        mem.write(Hpa::new(0xFF8), &data); // spans two frames
        let mut buf = vec![0u8; 256];
        mem.read(Hpa::new(0xFF8), &mut buf);
        assert_eq!(buf, data);
        assert_eq!(mem.materialized_frames(), 2);
    }

    #[test]
    fn line_helpers_round_trip() {
        let mut mem = HostMemory::new();
        let mut line = [0u8; 64];
        for (i, b) in line.iter_mut().enumerate() {
            *b = i as u8;
        }
        mem.write_line(Hpa::new(0x40), &line);
        assert_eq!(mem.read_line(Hpa::new(0x40)), line);
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn misaligned_line_read_panics() {
        HostMemory::new().read_line(Hpa::new(0x41));
    }

    /// A line generator writing `byte(address)` into every byte.
    fn by_address(byte: fn(u64) -> u8) -> LineFiller {
        Arc::new(move |base, line| {
            for (i, b) in line.iter_mut().enumerate() {
                *b = byte(base.raw() + i as u64);
            }
        })
    }

    #[test]
    fn lazy_region_synthesizes_content() {
        let mut mem = HostMemory::new();
        // Each byte = low bits of its own address.
        mem.add_lazy_region_lines(Hpa::new(0x10000), 0x4000, by_address(|a| a as u8));
        let mut buf = [0u8; 4];
        mem.read(Hpa::new(0x10100), &mut buf);
        assert_eq!(buf, [0x00, 0x01, 0x02, 0x03]);
        // Reads alone do not materialize.
        assert_eq!(mem.materialized_frames(), 0);
    }

    #[test]
    fn lazy_region_write_preserves_rest_of_frame() {
        let mut mem = HostMemory::new();
        mem.add_lazy_region_lines(Hpa::new(0x0), 0x1000, Arc::new(|_, line| line.fill(0xAA)));
        mem.write(Hpa::new(0x10), &[0x55]);
        let mut buf = [0u8; 3];
        mem.read(Hpa::new(0xF), &mut buf);
        // Byte before and after the write keep their lazy content.
        assert_eq!(buf, [0xAA, 0x55, 0xAA]);
        assert_eq!(mem.materialized_frames(), 1);
    }

    #[test]
    fn line_region_reads_generator_bytes_and_writes_keep_the_rest() {
        // A read at any offset and span sees exactly the generator's bytes,
        // across line and frame boundaries, without materializing.
        let fill_byte = |addr: u64| (addr >> 3) as u8 ^ (addr as u8);
        let mut mem = HostMemory::new();
        mem.add_lazy_region_lines(Hpa::new(0x10000), 0x4000, by_address(fill_byte));
        let want = |addr: u64, len: u64| (addr..addr + len).map(fill_byte).collect::<Vec<u8>>();
        let spans = [
            (0x10000, 64),
            (0x10040, 64),
            (0x10FC0, 64),
            (0x13FC0, 64),
            (0x10030, 100),
            (0x10FF9, 20),
            (0x10001, 3 * 4096),
        ];
        for (addr, len) in spans {
            let mut got = vec![0u8; len as usize];
            mem.read(Hpa::new(addr), &mut got);
            assert_eq!(got, want(addr, len), "mismatch at {addr:#x}+{len}");
        }
        assert_eq!(mem.materialized_frames(), 0);
        // A write materializes the frame from the generator; the rest of
        // the frame keeps its generated bytes.
        mem.write(Hpa::new(0x10040), &[0xEE; 64]);
        assert_eq!(mem.materialized_frames(), 1);
        let mut frame = vec![0u8; 4096];
        mem.read(Hpa::new(0x10000), &mut frame);
        let mut expect = want(0x10000, 4096);
        expect[0x40..0x80].fill(0xEE);
        assert_eq!(frame, expect);
    }

    #[test]
    fn adopt_span_preserves_line_granularity() {
        let mut src = HostMemory::new();
        src.add_lazy_region_lines(
            Hpa::new(0x10000),
            0x2000,
            Arc::new(|base, line| {
                line[0..8].copy_from_slice(&base.raw().to_le_bytes());
            }),
        );
        let mut dst = HostMemory::new();
        dst.adopt_span(&src, Hpa::new(0x10000), Hpa::new(0x50000), 0x2000);
        // Content is source-relative, and reading it stays transient.
        let line = dst.read_line(Hpa::new(0x50040));
        assert_eq!(u64::from_le_bytes(line[0..8].try_into().unwrap()), 0x10040);
        assert_eq!(dst.materialized_frames(), 0);
    }

    #[test]
    fn scratch_writes_are_counted_not_stored() {
        let mut mem = HostMemory::new();
        mem.add_scratch_region(Hpa::new(0x100000), 0x10000);
        mem.write(Hpa::new(0x100040), &[1u8; 64]);
        assert_eq!(mem.materialized_frames(), 0);
        assert_eq!(mem.scratch_bytes_discarded(), 64);
        let mut buf = [9u8; 4];
        mem.read(Hpa::new(0x100040), &mut buf);
        assert_eq!(buf, [0; 4]);
    }

    #[test]
    fn non_scratch_writes_nearby_still_stored() {
        let mut mem = HostMemory::new();
        mem.add_scratch_region(Hpa::new(0x100000), 0x1000);
        mem.write(Hpa::new(0xFFFC0), &[7u8; 64]); // just below the region
        assert_eq!(mem.read_line(Hpa::new(0xFFFC0)), [7u8; 64]);
    }

    #[test]
    #[should_panic(expected = "page-granular")]
    fn lazy_region_must_be_page_aligned() {
        HostMemory::new().add_lazy_region_lines(Hpa::new(0x10), 0x1000, Arc::new(|_, _| {}));
    }

    #[test]
    fn debug_is_nonempty() {
        let repr = format!("{:?}", HostMemory::new());
        assert!(repr.contains("HostMemory"));
    }

    #[test]
    fn adopt_span_translates_frames_lazy_and_scratch() {
        let mut src = HostMemory::new();
        // Materialized data, a lazy tail, and a scratch window, all inside
        // the migrated span [0x10000, 0x20000).
        src.write(Hpa::new(0x10040), &[0x5A; 64]);
        let byte = |a: u64| (a >> 12) as u8 ^ a as u8;
        src.add_lazy_region_lines(Hpa::new(0x14000), 0x2000, by_address(byte));
        src.add_scratch_region(Hpa::new(0x18000), 0x1000);

        let mut dst = HostMemory::new();
        dst.adopt_span(&src, Hpa::new(0x10000), Hpa::new(0x90000), 0x10000);

        // Copied frame content at the translated address.
        assert_eq!(dst.read_line(Hpa::new(0x90040)), [0x5A; 64]);
        // Lazy content matches what the source synthesizes for the same
        // span-relative offset (the filler sees source addresses).
        let mut want = [0u8; 8];
        src.read(Hpa::new(0x14100), &mut want);
        let mut got = [0u8; 8];
        dst.read(Hpa::new(0x94100), &mut got);
        assert_eq!(got, want);
        // Scratch behaviour carries over: the write is discarded.
        dst.write(Hpa::new(0x98000), &[1u8; 64]);
        assert_eq!(dst.scratch_bytes_discarded(), 64);
        // Frames outside the span are not adopted.
        src.write(Hpa::new(0x20000), &[9u8; 64]);
        let mut dst2 = HostMemory::new();
        dst2.adopt_span(&src, Hpa::new(0x10000), Hpa::new(0x90000), 0x10000);
        assert_eq!(dst2.materialized_frames_in(Hpa::new(0xa0000), 0x1000), Vec::<u64>::new());
    }

    #[test]
    fn adopting_a_span_again_registers_nothing_new() {
        let mut src = HostMemory::new();
        src.add_lazy_region_lines(Hpa::new(0x10000), 0x2000, by_address(|a| a as u8));
        src.add_scratch_region(Hpa::new(0x12000), 0x1000);
        let mut dst = HostMemory::new();
        for _ in 0..5 {
            dst.adopt_span(&src, Hpa::new(0x10000), Hpa::new(0x90000), 0x4000);
        }
        assert_eq!((dst.lazy.len(), dst.scratch.len()), (1, 1));
        // A different translation is a different range and still registers.
        dst.adopt_span(&src, Hpa::new(0x10000), Hpa::new(0xA0000), 0x4000);
        assert_eq!((dst.lazy.len(), dst.scratch.len()), (2, 2));
        assert_eq!(dst.read_line(Hpa::new(0x90040))[0], 0x40);
    }
}
