//! IOMMU and IOTLB models.
//!
//! On Skylake HARP the IOMMU is implemented as soft IP in the FPGA shell
//! (§2.2 of the paper) and translates every accelerator DMA through a
//! *single* IO page table — the root limitation that motivates page table
//! slicing. Its translation cache, the IOTLB, is the dominant performance
//! effect in Figs. 5 and 6:
//!
//! * it holds **512 entries** regardless of page size, so its reach is 1 GB
//!   with 2 MB pages but only 2 MB with 4 KB pages;
//! * it is **direct mapped** with the set index taken from the bits just
//!   above the page offset (bits 21–29 for 2 MB pages), so two pages whose
//!   indices coincide — `p1 ≡ p2 (mod 2^9)` — evict each other even when
//!   the TLB is mostly empty. With naive 64 GB-aligned slices every
//!   accelerator's page *k* collides, which is why OPTIMUS inserts a 128 MB
//!   gap between slices;
//! * on a miss the IOMMU must fetch the IO page table **over the system
//!   interconnect** (HARP's IOMMU is not integrated into the CPU), so a
//!   miss costs a multi-hundred-nanosecond walk, one access per radix level
//!   ([`PageTable::walk_depth`]);
//! * consecutive accesses that stay within one 2 MB region appear to take a
//!   **speculative fast path** (the paper's explanation for the anomalously
//!   high single-job read throughput in Fig. 6b), modeled here as the
//!   [`TlbLookup::HitSpeculative`] outcome.

use crate::addr::{Hpa, Iova, PageSize};
use crate::page_table::{PageFlags, PageTable};
use optimus_sim::metrics;
use optimus_sim::time::Cycle;
use optimus_sim::trace::{self, Track};

/// Number of IOTLB entries (sets × ways = 512 × 1).
pub const IOTLB_ENTRIES: usize = 512;

/// Result of an IOTLB probe, consumed by the interconnect latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLookup {
    /// Same 2 MB region as the immediately preceding access: the pipeline's
    /// speculative region reuse applies.
    HitSpeculative,
    /// Ordinary IOTLB hit.
    Hit,
    /// Miss: the IOMMU walked `walk_steps` page-table levels over the
    /// interconnect.
    Miss {
        /// Page-table levels touched by the hardware walker.
        walk_steps: u32,
    },
}

/// Errors surfaced to the auditor/accelerator when a DMA cannot translate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IommuError {
    /// No IO page table mapping covers the IOVA. The IOMMU cannot handle
    /// page faults (which is why OPTIMUS pins FPGA-accessible pages), so the
    /// DMA is aborted.
    Fault {
        /// The faulting IO virtual address.
        iova: Iova,
    },
    /// The mapping exists but forbids writes.
    WriteDenied {
        /// The offending IO virtual address.
        iova: Iova,
    },
}

impl core::fmt::Display for IommuError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IommuError::Fault { iova } => write!(f, "IO page fault at {iova}"),
            IommuError::WriteDenied { iova } => write!(f, "DMA write denied at {iova}"),
        }
    }
}

impl std::error::Error for IommuError {}

// Packed IOTLB tag word. The set arrays are struct-of-arrays: one `u64`
// tag per set (valid + write + size + VPN, laid out below) and one `u64`
// PFN per set, so a probe is a single load-and-compare against a
// precomputed tag instead of an `Option<struct>` discriminant walk, and
// the whole tag array (4 KB) stays resident in L1.
const TAG_VALID: u64 = 1 << 0;
const TAG_WRITE: u64 = 1 << 1;
const TAG_HUGE: u64 = 1 << 2;
const TAG_VPN_SHIFT: u32 = 3;

/// Packs a tag word. VPNs are at most 52 bits (64-bit IOVA minus the 4 KB
/// page offset), so the 3-bit flag field below never collides.
fn pack_tag(vpn: u64, size: PageSize, write: bool) -> u64 {
    TAG_VALID
        | if write { TAG_WRITE } else { 0 }
        | if size == PageSize::Huge { TAG_HUGE } else { 0 }
        | (vpn << TAG_VPN_SHIFT)
}

/// The 512-entry direct-mapped IOTLB.
#[derive(Debug, Clone)]
pub struct IoTlb {
    /// Per-set packed tags (0 = invalid: `TAG_VALID` is never set).
    tags: Box<[u64]>,
    /// Per-set physical page numbers, valid iff the matching tag is.
    pfns: Box<[u64]>,
    /// 2 MB region of the last access (for the speculative fast path).
    last_region: Option<u64>,
    hits: u64,
    speculative_hits: u64,
    misses: u64,
    conflict_evictions: u64,
}

impl Default for IoTlb {
    fn default() -> Self {
        Self::new()
    }
}

impl IoTlb {
    /// Creates an empty IOTLB.
    pub fn new() -> Self {
        Self {
            tags: vec![0; IOTLB_ENTRIES].into_boxed_slice(),
            pfns: vec![0; IOTLB_ENTRIES].into_boxed_slice(),
            last_region: None,
            hits: 0,
            speculative_hits: 0,
            misses: 0,
            conflict_evictions: 0,
        }
    }

    /// The direct-mapped set index for an address under a page size: the 9
    /// bits immediately above the page offset.
    pub fn set_index(iova: Iova, size: PageSize) -> usize {
        ((iova.raw() >> size.shift()) & (IOTLB_ENTRIES as u64 - 1)) as usize
    }

    /// Probes one page size. Returns `(pfn, write)` on a match. Masking
    /// `TAG_WRITE` out of the stored tag makes the compare insensitive to
    /// the permission bit while still requiring valid + size + VPN to
    /// match exactly; an invalid set (tag 0) can never equal `want`
    /// because `want` always carries `TAG_VALID`.
    #[inline]
    fn probe(&self, iova: Iova, size: PageSize) -> Option<(u64, bool)> {
        let set = Self::set_index(iova, size);
        let want = pack_tag(iova.raw() >> size.shift(), size, false);
        let tag = self.tags[set];
        if tag & !TAG_WRITE == want {
            Some((self.pfns[set], tag & TAG_WRITE != 0))
        } else {
            None
        }
    }

    /// Probes for `iova`; records hit/speculative-hit statistics.
    ///
    /// Returns the translated HPA and lookup class on a hit.
    pub fn lookup(&mut self, iova: Iova) -> Option<(Hpa, TlbLookup, bool)> {
        let region = iova.raw() >> PageSize::Huge.shift();
        let speculative = self.last_region == Some(region);
        self.last_region = Some(region);
        // Dual probe: huge first (the common configuration), then small.
        let (hpa, write) = if let Some((pfn, write)) = self.probe(iova, PageSize::Huge) {
            let offset = iova.raw() & (PageSize::Huge.bytes() - 1);
            (Hpa::new((pfn << PageSize::Huge.shift()) + offset), write)
        } else if let Some((pfn, write)) = self.probe(iova, PageSize::Small) {
            let offset = iova.raw() & (PageSize::Small.bytes() - 1);
            (Hpa::new((pfn << PageSize::Small.shift()) + offset), write)
        } else {
            return None;
        };
        let outcome = if speculative {
            self.speculative_hits += 1;
            TlbLookup::HitSpeculative
        } else {
            self.hits += 1;
            TlbLookup::Hit
        };
        Some((hpa, outcome, write))
    }

    /// Records a miss and installs a new entry after a walk.
    pub fn fill(&mut self, iova: Iova, hpa_base: Hpa, size: PageSize, write: bool) {
        self.misses += 1;
        let set = Self::set_index(iova, size);
        let new_tag = pack_tag(iova.raw() >> size.shift(), size, write);
        let old = self.tags[set];
        // Conflict iff a *different* page (VPN or size) was resident; a
        // permission-only change refreshes in place.
        if old & TAG_VALID != 0 && (old | TAG_WRITE) != (new_tag | TAG_WRITE) {
            self.conflict_evictions += 1;
        }
        self.tags[set] = new_tag;
        self.pfns[set] = hpa_base.raw() >> size.shift();
    }

    /// Invalidates every entry (used on VM context switches and after
    /// unmapping).
    pub fn invalidate_all(&mut self) {
        self.tags.fill(0);
        self.last_region = None;
    }

    /// Invalidates any entry covering `iova`.
    ///
    /// Also forgets the speculative-reuse region when it covers `iova`:
    /// the speculative fast path models pipeline state keyed on the last
    /// *translated* region, and letting it survive an unmap would carry a
    /// departed tenant's access history into whoever is remapped onto the
    /// same IOVA slice (a detached tenant's last region must not make the
    /// next tenant's first access speculative).
    pub fn invalidate(&mut self, iova: Iova) {
        for size in [PageSize::Huge, PageSize::Small] {
            let set = Self::set_index(iova, size);
            let want = pack_tag(iova.raw() >> size.shift(), size, false);
            if self.tags[set] & !TAG_WRITE == want {
                self.tags[set] = 0;
            }
        }
        if self.last_region == Some(iova.raw() >> PageSize::Huge.shift()) {
            self.last_region = None;
        }
    }

    /// (hits, speculative hits, misses, conflict evictions).
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (self.hits, self.speculative_hits, self.misses, self.conflict_evictions)
    }

    /// Fraction of lookups that missed (0 if no lookups yet).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.speculative_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// The IOMMU: an IOTLB in front of the single IO page table.
#[derive(Debug, Clone, Default)]
pub struct Iommu {
    tlb: IoTlb,
    iopt: PageTable,
    faults: u64,
}

/// A successful translation with its latency class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The host physical address of the access.
    pub hpa: Hpa,
    /// TLB outcome, consumed by the interconnect latency model.
    pub lookup: TlbLookup,
}

impl Iommu {
    /// Creates an IOMMU with an empty IO page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The IO page table, for the hypervisor's shadow-paging code.
    pub fn iopt(&self) -> &PageTable {
        &self.iopt
    }

    /// Mutable access to the IO page table (hypervisor only).
    pub fn iopt_mut(&mut self) -> &mut PageTable {
        &mut self.iopt
    }

    /// The IOTLB (for statistics inspection).
    pub fn tlb(&self) -> &IoTlb {
        &self.tlb
    }

    /// Mutable IOTLB access (for invalidations).
    pub fn tlb_mut(&mut self) -> &mut IoTlb {
        &mut self.tlb
    }

    /// Number of aborted DMAs due to IO page faults.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Translates a DMA at `iova`.
    ///
    /// Equivalent to [`translate_at`](Self::translate_at) with the
    /// flight-recorder timestamp pinned to cycle 0 (direct callers that
    /// don't track simulated time, e.g. unit tests).
    ///
    /// # Errors
    ///
    /// * [`IommuError::Fault`] if no mapping covers `iova`;
    /// * [`IommuError::WriteDenied`] if `is_write` and the mapping is
    ///   read-only.
    pub fn translate(&mut self, iova: Iova, is_write: bool) -> Result<Translation, IommuError> {
        self.translate_at(iova, is_write, 0)
    }

    /// Translates a DMA at `iova`, stamping flight-recorder events at
    /// fabric cycle `now`.
    ///
    /// Equivalent to [`translate_tagged`](Self::translate_tagged) with
    /// the tenant dimension pinned to 0 (callers that don't know which
    /// accelerator issued the DMA).
    ///
    /// # Errors
    ///
    /// Same as [`translate`](Self::translate).
    pub fn translate_at(
        &mut self,
        iova: Iova,
        is_write: bool,
        now: Cycle,
    ) -> Result<Translation, IommuError> {
        self.translate_tagged(iova, is_write, now, 0)
    }

    /// Translates a DMA at `iova` issued by accelerator port `tenant`,
    /// recording per-tenant IOTLB metrics (hit / speculative-hit / miss /
    /// conflict-evict / fault counters, always on) and stamping
    /// flight-recorder events at fabric cycle `now`: an `iotlb_hit` /
    /// `iotlb_spec_hit` / `iotlb_miss` instant per lookup, plus
    /// `iotlb_conflict_evict` when a fill displaced a live entry of
    /// another page (the Fig. 6 slice-stride pathology). Instrumentation
    /// is read-only: results and statistics are identical with tracing
    /// and metrics on or off.
    ///
    /// # Errors
    ///
    /// Same as [`translate`](Self::translate).
    pub fn translate_tagged(
        &mut self,
        iova: Iova,
        is_write: bool,
        now: Cycle,
        tenant: u32,
    ) -> Result<Translation, IommuError> {
        if let Some((hpa, lookup, writable)) = self.tlb.lookup(iova) {
            let metric = if lookup == TlbLookup::HitSpeculative {
                metrics::MEM_IOTLB_SPEC_HITS
            } else {
                metrics::MEM_IOTLB_HITS
            };
            metrics::inc(metric, tenant, 1);
            if trace::enabled() {
                let name = if lookup == TlbLookup::HitSpeculative {
                    "iotlb_spec_hit"
                } else {
                    "iotlb_hit"
                };
                trace::instant(Track::iommu(), name, now, &[("iova", iova.raw())]);
            }
            if is_write && !writable {
                return Err(IommuError::WriteDenied { iova });
            }
            return Ok(Translation { hpa, lookup });
        }
        // Miss: hardware walk of the IO page table.
        let walk_steps = self.iopt.walk_depth(iova.raw());
        match self.iopt.translate(iova.raw()) {
            Some((pa, flags)) => {
                if is_write && !flags.write {
                    return Err(IommuError::WriteDenied { iova });
                }
                let size = self
                    .iopt
                    .mapping_size(iova.raw())
                    .expect("translate succeeded, mapping must exist");
                let page_base = Hpa::new(pa & !(size.bytes() - 1));
                let evictions_before = self.tlb.conflict_evictions;
                self.tlb.fill(iova, page_base, size, flags.write);
                let evicted = self.tlb.conflict_evictions > evictions_before;
                metrics::inc(metrics::MEM_IOTLB_MISSES, tenant, 1);
                metrics::inc(metrics::MEM_IOTLB_CONFLICT_EVICTIONS, tenant, evicted as u64);
                if trace::enabled() {
                    let set = IoTlb::set_index(iova, size) as u64;
                    trace::instant(
                        Track::iommu(),
                        "iotlb_miss",
                        now,
                        &[("iova", iova.raw()), ("set", set), ("walk_steps", walk_steps as u64)],
                    );
                    if evicted {
                        trace::instant(
                            Track::iommu(),
                            "iotlb_conflict_evict",
                            now,
                            &[("iova", iova.raw()), ("set", set)],
                        );
                    }
                }
                Ok(Translation {
                    hpa: Hpa::new(pa),
                    lookup: TlbLookup::Miss { walk_steps },
                })
            }
            None => {
                self.faults += 1;
                metrics::inc(metrics::MEM_IO_PAGE_FAULTS, tenant, 1);
                trace::instant(Track::iommu(), "io_page_fault", now, &[("iova", iova.raw())]);
                Err(IommuError::Fault { iova })
            }
        }
    }

    /// Installs an IO page table mapping and invalidates any stale IOTLB
    /// entry for the range.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::page_table::MapError`] from the underlying table.
    pub fn map(
        &mut self,
        iova: Iova,
        hpa: Hpa,
        size: PageSize,
        flags: PageFlags,
    ) -> Result<(), crate::page_table::MapError> {
        self.iopt.map(iova.raw(), hpa.raw(), size, flags)?;
        self.tlb.invalidate(iova);
        Ok(())
    }

    /// Removes a mapping and invalidates the IOTLB entry.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::page_table::MapError::NotMapped`].
    pub fn unmap(&mut self, iova: Iova) -> Result<(), crate::page_table::MapError> {
        self.iopt.unmap(iova.raw())?;
        self.tlb.invalidate(iova);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PAGE_2M, PAGE_4K};

    fn mapped_iommu(pages: u64, size: PageSize) -> Iommu {
        let mut iommu = Iommu::new();
        for i in 0..pages {
            iommu
                .map(
                    Iova::new(i * size.bytes()),
                    Hpa::new((i + 1000) * size.bytes()),
                    size,
                    PageFlags::rw(),
                )
                .unwrap();
        }
        iommu
    }

    #[test]
    fn miss_then_hit() {
        let mut iommu = mapped_iommu(4, PageSize::Huge);
        let t1 = iommu.translate(Iova::new(0x1000), false).unwrap();
        assert!(matches!(t1.lookup, TlbLookup::Miss { .. }));
        assert_eq!(t1.hpa.raw(), 1000 * PAGE_2M + 0x1000);
        // Different 2 MB region to avoid the speculative path, then return.
        iommu.translate(Iova::new(PAGE_2M), false).unwrap();
        let t2 = iommu.translate(Iova::new(0x2000), false).unwrap();
        assert_eq!(t2.lookup, TlbLookup::Hit);
    }

    #[test]
    fn same_region_access_is_speculative() {
        let mut iommu = mapped_iommu(1, PageSize::Huge);
        iommu.translate(Iova::new(0x0), false).unwrap();
        let t = iommu.translate(Iova::new(0x40), false).unwrap();
        assert_eq!(t.lookup, TlbLookup::HitSpeculative);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut iommu = Iommu::new();
        let err = iommu.translate(Iova::new(0x5000), false).unwrap_err();
        assert_eq!(err, IommuError::Fault { iova: Iova::new(0x5000) });
        assert_eq!(iommu.faults(), 1);
    }

    #[test]
    fn write_to_readonly_denied() {
        let mut iommu = Iommu::new();
        iommu
            .map(Iova::new(0), Hpa::new(0x10000), PageSize::Small, PageFlags::ro())
            .unwrap();
        assert!(iommu.translate(Iova::new(0x10), false).is_ok());
        let err = iommu.translate(Iova::new(0x10), true).unwrap_err();
        assert!(matches!(err, IommuError::WriteDenied { .. }));
    }

    #[test]
    fn write_denied_even_on_tlb_hit() {
        let mut iommu = Iommu::new();
        iommu
            .map(Iova::new(0), Hpa::new(0x10000), PageSize::Small, PageFlags::ro())
            .unwrap();
        iommu.translate(Iova::new(0), false).unwrap(); // fill TLB
        let err = iommu.translate(Iova::new(4), true).unwrap_err();
        assert!(matches!(err, IommuError::WriteDenied { .. }));
    }

    #[test]
    fn set_index_bits_21_to_29_for_huge_pages() {
        // Pages 2^9 huge-pages apart share a set (the paper's conflict rule:
        // p1 ≡ p2 mod 2^9).
        let a = Iova::new(0);
        let b = Iova::new(512 * PAGE_2M);
        let c = Iova::new(513 * PAGE_2M);
        assert_eq!(
            IoTlb::set_index(a, PageSize::Huge),
            IoTlb::set_index(b, PageSize::Huge)
        );
        assert_ne!(
            IoTlb::set_index(a, PageSize::Huge),
            IoTlb::set_index(c, PageSize::Huge)
        );
    }

    #[test]
    fn conflicting_pages_evict_each_other() {
        let mut iommu = Iommu::new();
        let a = Iova::new(0);
        let b = Iova::new(512 * PAGE_2M); // same set as a
        for (iova, hpa) in [(a, 0x10000000u64), (b, 0x20000000)] {
            iommu
                .map(iova, Hpa::new(hpa), PageSize::Huge, PageFlags::rw())
                .unwrap();
        }
        iommu.translate(a, false).unwrap(); // miss, fill
        iommu.translate(b, false).unwrap(); // conflict miss, evicts a
        let t = iommu.translate(a, false).unwrap(); // must miss again
        assert!(matches!(t.lookup, TlbLookup::Miss { .. }));
        let (_, _, _, conflicts) = iommu.tlb().stats();
        assert!(conflicts >= 2, "conflict evictions {conflicts}");
    }

    #[test]
    fn non_conflicting_pages_coexist() {
        let mut iommu = mapped_iommu(8, PageSize::Huge);
        for i in 0..8u64 {
            iommu.translate(Iova::new(i * PAGE_2M), false).unwrap();
        }
        // Re-touch: all hits (interleave regions to defeat speculation).
        for i in 0..8u64 {
            let t = iommu.translate(Iova::new(((i + 3) % 8) * PAGE_2M), false).unwrap();
            assert_eq!(t.lookup, TlbLookup::Hit, "page {i}");
        }
    }

    #[test]
    fn capacity_is_512_entries() {
        // 513 huge pages wrap the index space: at least one conflict.
        let mut iommu = mapped_iommu(513, PageSize::Huge);
        for i in 0..513u64 {
            iommu.translate(Iova::new(i * PAGE_2M), false).unwrap();
        }
        let (_, _, misses, _) = iommu.tlb().stats();
        assert_eq!(misses, 513);
        // Page 0 was evicted by page 512.
        let t = iommu.translate(Iova::new(0), false).unwrap();
        assert!(matches!(t.lookup, TlbLookup::Miss { .. }));
    }

    #[test]
    fn four_k_reach_is_two_megabytes() {
        // 512 4K pages cover exactly 2 MB; accessing 1024 thrash.
        let mut iommu = mapped_iommu(1024, PageSize::Small);
        for round in 0..2 {
            for i in 0..1024u64 {
                iommu.translate(Iova::new(i * PAGE_4K), false).unwrap();
            }
            let _ = round;
        }
        let (_, _, misses, _) = iommu.tlb().stats();
        // Every access conflicts (1024 pages, 512 sets, 2 pages per set).
        assert_eq!(misses, 2048);
    }

    #[test]
    fn invalidate_all_forces_misses() {
        let mut iommu = mapped_iommu(4, PageSize::Huge);
        for i in 0..4u64 {
            iommu.translate(Iova::new(i * PAGE_2M), false).unwrap();
        }
        iommu.tlb_mut().invalidate_all();
        let t = iommu.translate(Iova::new(0), false).unwrap();
        assert!(matches!(t.lookup, TlbLookup::Miss { .. }));
    }

    #[test]
    fn unmap_invalidates_tlb() {
        let mut iommu = mapped_iommu(1, PageSize::Huge);
        iommu.translate(Iova::new(0), false).unwrap();
        iommu.unmap(Iova::new(0)).unwrap();
        assert!(iommu.translate(Iova::new(0), false).is_err());
    }

    #[test]
    fn speculative_state_does_not_survive_unmap_remap() {
        // Regression (isolation spec harness): `invalidate` cleared the
        // tag but left `last_region`, so a departed tenant's access
        // history leaked into the next tenant mapped onto the same IOVA
        // slice — its first access came back `HitSpeculative` instead of
        // a cold-start class.
        let mut iommu = mapped_iommu(1, PageSize::Huge);
        iommu.translate(Iova::new(0x40), false).unwrap(); // last_region = 0
        iommu.unmap(Iova::new(0)).unwrap();
        assert_eq!(
            iommu.tlb().last_region, None,
            "unmap must clear the speculative-reuse region, not just the tag"
        );
        // Re-allocate the slice to a new tenant: same IOVA, fresh HPA.
        iommu
            .map(Iova::new(0), Hpa::new(0x4000_0000), PageSize::Huge, PageFlags::rw())
            .unwrap();
        let t = iommu.translate(Iova::new(0x80), false).unwrap();
        assert!(
            matches!(t.lookup, TlbLookup::Miss { .. }),
            "first access after re-allocation must be a cold miss, got {:?}",
            t.lookup
        );
        assert_eq!(t.hpa.raw(), 0x4000_0000 + 0x80);
        let (_, spec_hits, _, _) = iommu.tlb().stats();
        assert_eq!(spec_hits, 0, "no speculative reuse across unmap/remap");
    }

    #[test]
    fn mixed_page_sizes_translate() {
        let mut iommu = Iommu::new();
        iommu
            .map(Iova::new(0), Hpa::new(PAGE_2M), PageSize::Huge, PageFlags::rw())
            .unwrap();
        iommu
            .map(
                Iova::new(4 * PAGE_2M),
                Hpa::new(0x7000),
                PageSize::Small,
                PageFlags::rw(),
            )
            .unwrap();
        assert_eq!(
            iommu.translate(Iova::new(0x123), false).unwrap().hpa.raw(),
            PAGE_2M + 0x123
        );
        assert_eq!(
            iommu
                .translate(Iova::new(4 * PAGE_2M + 5), false)
                .unwrap()
                .hpa
                .raw(),
            0x7005
        );
        // Both hit after interleaving.
        iommu.translate(Iova::new(0x200), false).unwrap();
        let t = iommu.translate(Iova::new(4 * PAGE_2M + 64), false).unwrap();
        assert_ne!(t.lookup, TlbLookup::HitSpeculative);
    }
}

