//! Auditors: the isolation checkpoint in front of every accelerator.
//!
//! The multiplexer tree does *lazy* routing (§4.1): it never inspects
//! addresses, it just propagates packets. Isolation decisions are deferred
//! to one auditor per physical accelerator, which:
//!
//! * translates outgoing DMA addresses from guest virtual addresses to IO
//!   virtual addresses by adding the accelerator's page-table-slicing
//!   offset (a single add — one cycle in hardware);
//! * stamps outgoing DMAs with the accelerator's ID, and on the return path
//!   forwards a DMA packet to its accelerator only if the packet's ID
//!   matches, discarding strays;
//! * forwards an incoming MMIO packet only if it falls inside the
//!   accelerator's MMIO page, discarding the rest.

use optimus_cci::packet::{AccelId, DownPacket, Line, Tag, UpPacket};
use optimus_mem::addr::{Gva, Iova};

/// A request emitted by an accelerator, before auditor translation.
#[derive(Debug)]
pub struct OutboundReq {
    /// The guest virtual address the accelerator used.
    pub gva: Gva,
    /// Write payload, or `None` for a read.
    pub write: Option<Box<Line>>,
    /// The port-assigned tag.
    pub tag: Tag,
}

/// What an auditor decided about an incoming downstream packet.
#[derive(Debug, PartialEq, Eq)]
pub enum AuditVerdict {
    /// Deliver to the accelerator: a DMA response with matching ID.
    DeliverDma {
        /// The matched request tag.
        tag: Tag,
        /// Line data (None for write acks).
        data: Option<Box<Line>>,
    },
    /// Deliver an MMIO access (page-relative offset).
    DeliverMmio {
        /// Offset within the accelerator's MMIO page.
        offset: u64,
        /// `Some(value)` for a write, `None` for a read.
        write: Option<u64>,
    },
    /// Not addressed to this accelerator.
    NotMine,
    /// Addressed at this accelerator but rejected (isolation violation).
    Discarded,
}

/// Per-accelerator auditor.
#[derive(Debug)]
pub struct Auditor {
    id: AccelId,
    offset: u64,
    mmio_base: u64,
    mmio_size: u64,
    win_base: u64,
    win_len: u64,
    discarded_dma: u64,
    discarded_mmio: u64,
}

impl Auditor {
    /// Creates the auditor for accelerator `id` guarding the MMIO page at
    /// `[mmio_base, mmio_base + mmio_size)`. The outbound IOVA window
    /// starts unrestricted (passthrough semantics) until the VCU programs
    /// one.
    pub fn new(id: AccelId, mmio_base: u64, mmio_size: u64) -> Self {
        Self {
            id,
            offset: 0,
            mmio_base,
            mmio_size,
            win_base: 0,
            win_len: u64::MAX,
            discarded_dma: 0,
            discarded_mmio: 0,
        }
    }

    /// The accelerator this auditor guards.
    pub fn id(&self) -> AccelId {
        self.id
    }

    /// The current page-table-slicing offset (IOVA − GVA).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Installs a new slicing offset (driven by the VCU offset table).
    pub fn set_offset(&mut self, offset: u64) {
        self.offset = offset;
    }

    /// Restricts outbound DMA to the IOVA window `[base, base + len)`
    /// (driven by the VCU window tables at install time). `len` of
    /// `u64::MAX` means unrestricted.
    pub fn set_window(&mut self, base: u64, len: u64) {
        self.win_base = base;
        self.win_len = len;
    }

    /// The programmed outbound window as `(base, len)`.
    pub fn window(&self) -> (u64, u64) {
        (self.win_base, self.win_len)
    }

    /// Whether a translated IOVA lands inside the programmed window. The
    /// subtract-and-compare form is wraparound-safe for windows near the
    /// top of the address space.
    fn in_window(&self, iova: u64) -> bool {
        iova.wrapping_sub(self.win_base) < self.win_len
    }

    /// Translates an accelerator request into an interconnect packet:
    /// adds the slicing offset, screens the result against the outbound
    /// IOVA window, and stamps the accelerator ID.
    ///
    /// A request whose translated IOVA falls outside the window is the
    /// hardware analogue of a wild pointer escaping the tenant's slice:
    /// it is discarded here (counted), and `Err` returns the tag so the
    /// device can retire the request with a master-abort response instead
    /// of letting it dangle in the port's in-flight table forever (which
    /// would wedge the preemption drain).
    ///
    /// # Errors
    ///
    /// `Err((tag, was_write))` when the translated IOVA is outside the
    /// window.
    pub fn translate(&mut self, req: OutboundReq) -> Result<UpPacket, (Tag, bool)> {
        let iova = Iova::new(req.gva.raw().wrapping_add(self.offset));
        if !self.in_window(iova.raw()) {
            self.discarded_dma += 1;
            return Err((req.tag, req.write.is_some()));
        }
        match req.write {
            Some(data) => Ok(UpPacket::DmaWrite {
                iova,
                data,
                src: self.id,
                tag: req.tag,
            }),
            None => Ok(UpPacket::DmaRead {
                iova,
                src: self.id,
                tag: req.tag,
            }),
        }
    }

    /// Audits a downstream packet.
    ///
    /// DMA packets are matched on the accelerator-ID field; MMIO packets on
    /// the address range. Packets that target this accelerator but fail the
    /// check are discarded and counted.
    pub fn audit(&mut self, pkt: &DownPacket) -> AuditVerdict {
        match pkt {
            DownPacket::DmaReadResp { data, dst, tag } => {
                if *dst == self.id {
                    AuditVerdict::DeliverDma {
                        tag: *tag,
                        data: Some(data.clone()),
                    }
                } else {
                    AuditVerdict::NotMine
                }
            }
            DownPacket::DmaAck { dst, tag } => {
                if *dst == self.id {
                    AuditVerdict::DeliverDma {
                        tag: *tag,
                        data: None,
                    }
                } else {
                    AuditVerdict::NotMine
                }
            }
            DownPacket::MmioWrite { addr, value } => {
                if self.in_mmio_range(*addr) {
                    AuditVerdict::DeliverMmio {
                        offset: addr.wrapping_sub(self.mmio_base),
                        write: Some(*value),
                    }
                } else {
                    AuditVerdict::NotMine
                }
            }
            DownPacket::MmioRead { addr } => {
                if self.in_mmio_range(*addr) {
                    AuditVerdict::DeliverMmio {
                        offset: addr.wrapping_sub(self.mmio_base),
                        write: None,
                    }
                } else {
                    AuditVerdict::NotMine
                }
            }
        }
    }

    /// Records a discarded DMA packet that claimed this accelerator's
    /// identity but failed validation (used by the device when a response's
    /// tag is unknown, e.g. after a reset, or under fault injection).
    pub fn count_discarded_dma(&mut self) {
        self.discarded_dma += 1;
    }

    /// Records an out-of-range MMIO discard.
    pub fn count_discarded_mmio(&mut self) {
        self.discarded_mmio += 1;
    }

    /// (discarded DMA, discarded MMIO) counters.
    pub fn discard_counts(&self) -> (u64, u64) {
        (self.discarded_dma, self.discarded_mmio)
    }

    /// Whether `addr` falls inside `[mmio_base, mmio_base + mmio_size)`.
    ///
    /// Computed as a wrapping subtract-and-compare: the naive
    /// `addr < base + size` form overflows u64 when the page sits at the
    /// top of the address space, silently accepting every address (the
    /// auditor would fail *open*).
    fn in_mmio_range(&self, addr: u64) -> bool {
        addr.wrapping_sub(self.mmio_base) < self.mmio_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn auditor() -> Auditor {
        Auditor::new(AccelId(2), 0x13000, 0x1000)
    }

    #[test]
    fn translate_adds_offset_and_stamps_id() {
        let mut a = auditor();
        a.set_offset(64 << 30); // a 64 GB slice
        let pkt = a
            .translate(OutboundReq {
                gva: Gva::new(0x1000),
                write: None,
                tag: Tag(5),
            })
            .expect("unrestricted window");
        match pkt {
            UpPacket::DmaRead { iova, src, tag } => {
                assert_eq!(iova.raw(), (64u64 << 30) + 0x1000);
                assert_eq!(src, AccelId(2));
                assert_eq!(tag, Tag(5));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn write_translation_keeps_payload() {
        let mut a = auditor();
        let pkt = a
            .translate(OutboundReq {
                gva: Gva::new(0),
                write: Some(Box::new([7; 64])),
                tag: Tag(0),
            })
            .expect("unrestricted window");
        assert!(matches!(pkt, UpPacket::DmaWrite { ref data, .. } if data[0] == 7));
    }

    #[test]
    fn window_screens_translated_iovas_at_both_boundaries() {
        let mut a = auditor();
        let base = 64u64 << 30;
        let len = 1u64 << 30;
        a.set_offset(base);
        a.set_window(base, len);
        let req = |gva: u64| OutboundReq {
            gva: Gva::new(gva),
            write: None,
            tag: Tag(1),
        };
        assert!(a.translate(req(0)).is_ok(), "window base accepted");
        assert!(a.translate(req(len - 64)).is_ok(), "last line accepted");
        assert_eq!(
            a.translate(req(len)),
            Err((Tag(1), false)),
            "first IOVA past the window rejected"
        );
        // A gva that wraps the offset addition back *below* the window
        // must also be rejected (wild pointer aimed at a lower slice).
        assert_eq!(a.translate(req(u64::MAX - base + 1)), Err((Tag(1), false)));
        assert_eq!(a.discard_counts().0, 2, "both rejects counted");
    }

    #[test]
    fn mmio_range_boundary_values() {
        let mut a = auditor(); // page [0x13000, 0x14000)
        let probe = |a: &mut Auditor, addr: u64| {
            a.audit(&DownPacket::MmioRead { addr }) != AuditVerdict::NotMine
        };
        assert!(!probe(&mut a, 0x12fff), "below base rejected");
        assert!(probe(&mut a, 0x13000), "base accepted");
        assert!(probe(&mut a, 0x13fff), "last byte accepted");
        assert!(!probe(&mut a, 0x14000), "base + size rejected (exclusive)");
    }

    #[test]
    fn mmio_range_does_not_wrap_at_top_of_address_space() {
        // Regression (isolation spec harness): with the page at the top of
        // the address space, `base + size` overflows u64 to a tiny value
        // and the naive `addr < base + size` comparison rejects the
        // page's own addresses while `addr >= base` accepts nothing —
        // and for partially-overflowed layouts it accepted *wrapped*
        // foreign addresses. The wrapping-subtract form is exact.
        let mut a = Auditor::new(AccelId(0), u64::MAX - 0xfff, 0x2000);
        let probe = |a: &mut Auditor, addr: u64| {
            a.audit(&DownPacket::MmioRead { addr }) != AuditVerdict::NotMine
        };
        assert!(probe(&mut a, u64::MAX - 0xfff), "base accepted");
        assert!(probe(&mut a, u64::MAX), "top byte accepted");
        assert!(!probe(&mut a, u64::MAX - 0x1000), "below base rejected");
        // The range arithmetically wraps to [0, 0x1000); the auditor must
        // honor the declared span, not silently exclude it.
        assert!(probe(&mut a, 0x0fff), "wrapped tail accepted as declared");
        assert!(!probe(&mut a, 0x1000), "past wrapped tail rejected");
    }

    #[test]
    fn accepts_own_dma_rejects_foreign() {
        let mut a = auditor();
        let own = DownPacket::DmaAck {
            dst: AccelId(2),
            tag: Tag(1),
        };
        assert!(matches!(a.audit(&own), AuditVerdict::DeliverDma { .. }));
        let foreign = DownPacket::DmaAck {
            dst: AccelId(3),
            tag: Tag(1),
        };
        assert_eq!(a.audit(&foreign), AuditVerdict::NotMine);
    }

    #[test]
    fn mmio_range_check() {
        let mut a = auditor();
        let inside = DownPacket::MmioWrite {
            addr: 0x13040,
            value: 9,
        };
        assert_eq!(
            a.audit(&inside),
            AuditVerdict::DeliverMmio {
                offset: 0x40,
                write: Some(9)
            }
        );
        let outside = DownPacket::MmioWrite {
            addr: 0x14000,
            value: 9,
        };
        assert_eq!(a.audit(&outside), AuditVerdict::NotMine);
    }

    #[test]
    fn discard_counters_accumulate() {
        let mut a = auditor();
        a.count_discarded_dma();
        a.count_discarded_mmio();
        a.count_discarded_mmio();
        assert_eq!(a.discard_counts(), (1, 2));
    }
}
