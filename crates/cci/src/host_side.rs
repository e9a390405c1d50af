//! The host side of the interconnect: channels → IOMMU → DRAM.
//!
//! [`HostSide`] is the single component the FPGA shell talks to. It owns
//! the host DRAM model and the IOMMU, and composes the timing pipeline a
//! DMA experiences after leaving the FPGA:
//!
//! ```text
//!  shell ──submit()──▶ channel (serialization + flight)
//!                        └─▶ IOMMU (IOTLB hit, or walk on miss)
//!                              └─▶ DRAM service (1.8 cycles/line)
//!                                    └─▶ return channel ──▶ pop_response()
//! ```
//!
//! Every stage contributes its calibrated latency (see
//! [`params`]); the response surfaces from
//! [`HostSide::pop_response`] once the simulated clock reaches its computed
//! arrival time. DMAs that fail translation are *dropped and counted* — the
//! IOMMU cannot fault-and-retry, which is exactly why OPTIMUS pins
//! FPGA-accessible pages.

use crate::channel::{ChannelKind, ChannelSet, SelectorPolicy};
use crate::packet::{DownPacket, UpPacket};
use crate::params;
use optimus_mem::host::HostMemory;
use optimus_mem::iommu::{Iommu, IommuError, TlbLookup};
use optimus_sim::metrics;
use optimus_sim::spec;
use optimus_sim::time::Cycle;
use optimus_sim::trace::{self, Track};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Outbound {
    ready: Cycle,
    seq: u64,
    pkt: DownPacket,
}

impl PartialEq for Outbound {
    fn eq(&self, other: &Self) -> bool {
        self.ready == other.ready && self.seq == other.seq
    }
}
impl Eq for Outbound {}
impl PartialOrd for Outbound {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Outbound {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (ready, seq).
        other
            .ready
            .cmp(&self.ready)
            .then(other.seq.cmp(&self.seq))
    }
}

/// The host-side model: channel set, IOMMU, DRAM, and the timing pipeline.
pub struct HostSide {
    memory: HostMemory,
    iommu: Iommu,
    channels: ChannelSet,
    service_next_free: f64,
    walker_free: Vec<f64>,
    outbound: BinaryHeap<Outbound>,
    seq: u64,
    faulted_dmas: u64,
    last_fault: Option<IommuError>,
    total_dma_bytes: u64,
    mmio_latency: Cycle,
    mmio_mailbox: Vec<(Cycle, u64, u64)>,
    /// Channel chosen for the previous DMA (flight-recorder switch
    /// detection only; never feeds back into timing).
    last_kind: Option<ChannelKind>,
}

impl core::fmt::Debug for HostSide {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HostSide")
            .field("policy", &self.channels.policy())
            .field("outbound", &self.outbound.len())
            .field("faulted_dmas", &self.faulted_dmas)
            .finish()
    }
}

impl HostSide {
    /// Creates the host side with an empty memory and IO page table.
    pub fn new(policy: SelectorPolicy) -> Self {
        Self {
            memory: HostMemory::new(),
            iommu: Iommu::new(),
            channels: ChannelSet::new(policy),
            service_next_free: 0.0,
            walker_free: vec![0.0; params::WALKERS],
            outbound: BinaryHeap::new(),
            seq: 0,
            faulted_dmas: 0,
            last_fault: None,
            total_dma_bytes: 0,
            mmio_latency: params::mmio_fabric_latency(),
            mmio_mailbox: Vec::new(),
            last_kind: None,
        }
    }

    /// Observability bookkeeping for one admitted DMA: always-on
    /// per-channel packet counters and a selector-switch counter
    /// (attributed to the channel switched *to*), plus a trace-gated
    /// `channel_switch` instant when the selector moved to a different
    /// physical channel. Never feeds back into timing.
    fn account_channel(&mut self, kind: ChannelKind, now: Cycle) {
        let idx = kind.index() as u32;
        let switched = self.last_kind.is_some_and(|prev| prev != kind);
        metrics::inc(metrics::CCI_CHANNEL_PACKETS, idx, 1);
        metrics::inc(metrics::CCI_CHANNEL_SWITCHES, idx, switched as u64);
        if switched {
            trace::instant(Track::channels(), "channel_switch", now, &[("channel", idx as u64)]);
        }
        self.last_kind = Some(kind);
    }

    /// Host DRAM (CPU-side accesses go straight through; only DMAs pay the
    /// interconnect pipeline).
    pub fn memory(&self) -> &HostMemory {
        &self.memory
    }

    /// Mutable host DRAM.
    pub fn memory_mut(&mut self) -> &mut HostMemory {
        &mut self.memory
    }

    /// The IOMMU (for the hypervisor's shadow-paging code).
    pub fn iommu(&self) -> &Iommu {
        &self.iommu
    }

    /// Mutable IOMMU access.
    pub fn iommu_mut(&mut self) -> &mut Iommu {
        &mut self.iommu
    }

    /// DMAs dropped because translation failed.
    pub fn faulted_dmas(&self) -> u64 {
        self.faulted_dmas
    }

    /// The most recent translation error, if any (test observability).
    pub fn last_fault(&self) -> Option<IommuError> {
        self.last_fault
    }

    /// Total bytes moved by completed DMA submissions.
    pub fn total_dma_bytes(&self) -> u64 {
        self.total_dma_bytes
    }

    /// Whether the shell may submit another packet this cycle.
    ///
    /// The DRAM service queue is bounded; once the backlog exceeds the
    /// channel flight time plus a small queue the shell stalls, which is how
    /// the 14.2 GB/s memory ceiling propagates backpressure into the fabric.
    /// (The threshold includes the worst-case channel latency because
    /// `service_next_free` is expressed in arrival-time terms.)
    pub fn can_accept(&self, now: Cycle) -> bool {
        self.service_next_free - (now as f64) < 256.0
    }

    /// Submits one FPGA→host packet at `now`.
    ///
    /// DMA packets are translated, serviced, and produce a response packet
    /// that [`pop_response`](Self::pop_response) will yield at the computed
    /// arrival time. MMIO read responses are queued for
    /// [`take_mmio_response`](Self::take_mmio_response).
    pub fn submit(&mut self, pkt: UpPacket, now: Cycle) {
        match pkt {
            UpPacket::MmioReadResp { addr, value } => {
                // MMIO responses return to the CPU mailbox; software costs
                // dominate (see params::host_costs).
                let ready = now + self.mmio_latency;
                self.mmio_mailbox.push((ready, addr, value));
            }
            UpPacket::DmaRead { iova, src, tag } => {
                let (arrival, kind) = self.channels.admit(now);
                self.account_channel(kind, now);
                match self.iommu.translate_tagged(iova, false, now, src.0 as u32) {
                    Ok(tr) => {
                        if spec::enabled() {
                            // The device scope is claimed by the stepping
                            // hypervisor before `device.run`, so it names
                            // the device this host side belongs to.
                            spec::check_dma(
                                metrics::device_scope(),
                                src.0 as u32,
                                iova.raw(),
                                tr.hpa.raw(),
                                false,
                            );
                        }
                        let done = self.schedule_service(arrival, tr.lookup, src.0 as u32);
                        let data = Box::new(self.memory.read_line(tr.hpa));
                        self.total_dma_bytes += 64;
                        let ready =
                            (done + self.channels.response_latency(kind)).ceil() as Cycle;
                        metrics::inc(metrics::CCI_DMA_BYTES, src.0 as u32, 64);
                        metrics::observe(metrics::CCI_DMA_RT_CYCLES, src.0 as u32, ready - now);
                        if trace::enabled() {
                            let link = Track::link(src.0 as usize);
                            trace::complete(link, "dma_read", now, ready - now, &[("iova", iova.raw())]);
                        }
                        self.push_outbound(DownPacket::DmaReadResp { data, dst: src, tag }, ready);
                    }
                    Err(e) => {
                        if spec::enabled() {
                            spec::check_dma_fault(
                                metrics::device_scope(),
                                src.0 as u32,
                                iova.raw(),
                                false,
                            );
                        }
                        self.faulted_dmas += 1;
                        self.last_fault = Some(e);
                    }
                }
            }
            UpPacket::DmaWrite { iova, data, src, tag } => {
                let (arrival, kind) = self.channels.admit(now);
                self.account_channel(kind, now);
                match self.iommu.translate_tagged(iova, true, now, src.0 as u32) {
                    Ok(tr) => {
                        if spec::enabled() {
                            spec::check_dma(
                                metrics::device_scope(),
                                src.0 as u32,
                                iova.raw(),
                                tr.hpa.raw(),
                                true,
                            );
                        }
                        let done = self.schedule_service(arrival, tr.lookup, src.0 as u32);
                        self.memory.write_line(tr.hpa, &data);
                        self.total_dma_bytes += 64;
                        let ready =
                            (done + self.channels.response_latency(kind)).ceil() as Cycle;
                        metrics::inc(metrics::CCI_DMA_BYTES, src.0 as u32, 64);
                        metrics::observe(metrics::CCI_DMA_RT_CYCLES, src.0 as u32, ready - now);
                        if trace::enabled() {
                            let link = Track::link(src.0 as usize);
                            trace::complete(link, "dma_write", now, ready - now, &[("iova", iova.raw())]);
                        }
                        self.push_outbound(DownPacket::DmaWriteAck { dst: src, tag }, ready);
                    }
                    Err(e) => {
                        if spec::enabled() {
                            spec::check_dma_fault(
                                metrics::device_scope(),
                                src.0 as u32,
                                iova.raw(),
                                true,
                            );
                        }
                        self.faulted_dmas += 1;
                        self.last_fault = Some(e);
                    }
                }
            }
        }
    }

    /// Schedules translation-walk and DRAM-service stages; returns the time
    /// the line leaves DRAM.
    fn schedule_service(&mut self, arrival: f64, lookup: TlbLookup, tenant: u32) -> f64 {
        let translated = match lookup {
            TlbLookup::Hit | TlbLookup::HitSpeculative => arrival,
            TlbLookup::Miss { walk_steps } => {
                // Claim the earliest-free walker.
                let (walker_idx, walker_at) = self
                    .walker_free
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .expect("at least one walker");
                let start = arrival.max(walker_at);
                self.walker_free[walker_idx] = start + params::WALK_OCCUPANCY_NS / 2.5;
                let done = start + walk_steps as f64 * params::WALK_STEP_NS / 2.5;
                // The walk's start/end cycles are only known here, where
                // walker contention resolves, so the latency histogram is
                // recorded here rather than in the IOMMU.
                metrics::observe(
                    metrics::MEM_PAGE_WALK_CYCLES,
                    tenant,
                    (done - start).ceil() as u64,
                );
                if trace::enabled() {
                    trace::complete(
                        Track::iommu(),
                        "page_walk",
                        start.ceil() as Cycle,
                        (done - start).ceil() as Cycle,
                        &[("walker", walker_idx as u64), ("walk_steps", walk_steps as u64)],
                    );
                }
                done
            }
        };
        let interval = if lookup == TlbLookup::HitSpeculative {
            params::MEM_SERVICE_INTERVAL_SPEC
        } else {
            params::MEM_SERVICE_INTERVAL
        };
        let svc_start = translated.max(self.service_next_free);
        self.service_next_free = svc_start + interval;
        svc_start + params::DRAM_ACCESS_NS / 2.5
    }

    fn push_outbound(&mut self, pkt: DownPacket, ready: Cycle) {
        self.seq += 1;
        self.outbound.push(Outbound {
            ready,
            seq: self.seq,
            pkt,
        });
    }

    /// Earliest future cycle at which the host side has something new to
    /// say: a response becoming poppable or an MMIO answer landing in the
    /// mailbox. `None` means nothing is in flight.
    ///
    /// All host-side timing is computed at [`submit`](Self::submit) time, so
    /// between submissions this horizon is exact: no internal state advances
    /// cycle by cycle.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let resp = self.outbound.peek().map(|o| o.ready);
        let mmio = self.mmio_mailbox.iter().map(|&(r, _, _)| r).min();
        match (resp, mmio) {
            (Some(a), Some(b)) => Some(a.min(b).max(now)),
            (Some(a), None) => Some(a.max(now)),
            (None, Some(b)) => Some(b.max(now)),
            (None, None) => None,
        }
    }

    /// Earliest cycle at or after `now` at which [`can_accept`](Self::can_accept)
    /// holds, assuming no intervening submissions.
    ///
    /// `can_accept` is monotone in time for a fixed service backlog, so the
    /// threshold crossing can be computed in closed form.
    pub fn next_accept(&self, now: Cycle) -> Cycle {
        if self.can_accept(now) {
            return now;
        }
        let t = (self.service_next_free - 256.0).floor() as i64 + 1;
        (t.max(0) as Cycle).max(now + 1)
    }

    /// Pops the next host→FPGA packet whose arrival time has been reached.
    /// The shell calls this at most once per cycle.
    pub fn pop_response(&mut self, now: Cycle) -> Option<DownPacket> {
        if self.outbound.peek().map(|o| o.ready <= now).unwrap_or(false) {
            self.outbound.pop().map(|o| o.pkt)
        } else {
            None
        }
    }

    /// Injects a CPU-originated MMIO write toward the FPGA.
    pub fn inject_mmio_write(&mut self, addr: u64, value: u64, now: Cycle) {
        let ready = now + self.mmio_latency;
        self.push_outbound(DownPacket::MmioWrite { addr, value }, ready);
    }

    /// Injects a CPU-originated MMIO read toward the FPGA.
    pub fn inject_mmio_read(&mut self, addr: u64, now: Cycle) {
        let ready = now + self.mmio_latency;
        self.push_outbound(DownPacket::MmioRead { addr }, ready);
    }

    /// Yields an MMIO read response `(addr, value)` once its return flight
    /// completes.
    pub fn take_mmio_response(&mut self, now: Cycle) -> Option<(u64, u64)> {
        if let Some(pos) = self.mmio_mailbox.iter().position(|&(r, _, _)| r <= now) {
            let (_, addr, value) = self.mmio_mailbox.remove(pos);
            Some((addr, value))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{AccelId, Tag};
    use optimus_mem::addr::{Hpa, Iova, PageSize};
    use optimus_mem::page_table::PageFlags;

    fn host_with_identity_map(pages: u64) -> HostSide {
        let mut h = HostSide::new(SelectorPolicy::UpiOnly);
        for i in 0..pages {
            h.iommu_mut()
                .map(
                    Iova::new(i * PageSize::Huge.bytes()),
                    Hpa::new(i * PageSize::Huge.bytes()),
                    PageSize::Huge,
                    PageFlags::rw(),
                )
                .unwrap();
        }
        h
    }

    fn drain_until(h: &mut HostSide, deadline: Cycle) -> Vec<(Cycle, DownPacket)> {
        let mut out = Vec::new();
        for now in 0..deadline {
            while let Some(p) = h.pop_response(now) {
                out.push((now, p));
            }
        }
        out
    }

    #[test]
    fn dma_read_round_trip_latency() {
        let mut h = host_with_identity_map(1);
        h.memory_mut().write_line(Hpa::new(0x40), &[7u8; 64]);
        h.submit(
            UpPacket::DmaRead {
                iova: Iova::new(0x40),
                src: AccelId(0),
                tag: Tag(1),
            },
            0,
        );
        let got = drain_until(&mut h, 4000);
        assert_eq!(got.len(), 1);
        let (when, pkt) = &got[0];
        match pkt {
            DownPacket::DmaReadResp { data, dst, tag } => {
                assert_eq!(**data, [7u8; 64]);
                assert_eq!(*dst, AccelId(0));
                assert_eq!(*tag, Tag(1));
            }
            other => panic!("unexpected {other:?}"),
        }
        // First access misses the IOTLB: RT ≈ UPI (175×2) + DRAM 60 + a
        // 3-level huge-page walk (330 ns).
        let rt_ns = *when as f64 * 2.5;
        assert!((650.0..850.0).contains(&rt_ns), "RT {rt_ns} ns");
    }

    #[test]
    fn warm_read_hits_calibrated_upi_latency() {
        let mut h = host_with_identity_map(2);
        // Warm two regions alternately so the second read of region 0 is a
        // plain (non-speculative) hit.
        for (i, iova) in [0u64, 1 << 21, 0, 1 << 21].iter().enumerate() {
            h.submit(
                UpPacket::DmaRead {
                    iova: Iova::new(*iova),
                    src: AccelId(0),
                    tag: Tag(i as u32),
                },
                (i as Cycle) * 2000,
            );
        }
        let got = drain_until(&mut h, 20_000);
        assert_eq!(got.len(), 4);
        // Third response (hit) relative to its submit time of 4000.
        let rt_ns = (got[2].0 - 4000) as f64 * 2.5;
        assert!((380.0..450.0).contains(&rt_ns), "warm RT {rt_ns} ns");
    }

    #[test]
    fn unmapped_dma_is_dropped_and_counted() {
        let mut h = HostSide::new(SelectorPolicy::UpiOnly);
        h.submit(
            UpPacket::DmaRead {
                iova: Iova::new(0x9990000),
                src: AccelId(3),
                tag: Tag(0),
            },
            0,
        );
        assert!(drain_until(&mut h, 5000).is_empty());
        assert_eq!(h.faulted_dmas(), 1);
        assert!(h.last_fault().is_some());
    }

    #[test]
    fn dma_write_lands_in_memory() {
        let mut h = host_with_identity_map(1);
        h.submit(
            UpPacket::DmaWrite {
                iova: Iova::new(0x80),
                data: Box::new([0xABu8; 64]),
                src: AccelId(2),
                tag: Tag(9),
            },
            0,
        );
        let got = drain_until(&mut h, 4000);
        assert!(matches!(
            got[0].1,
            DownPacket::DmaWriteAck { dst: AccelId(2), tag: Tag(9) }
        ));
        assert_eq!(h.memory().read_line(Hpa::new(0x80)), [0xABu8; 64]);
        assert_eq!(h.total_dma_bytes(), 64);
    }

    #[test]
    fn service_rate_limits_throughput() {
        // Saturate with reads spread over 32 distinct huge pages (defeating
        // the speculative same-region path) under the Auto selector, whose
        // aggregate channel bandwidth exceeds the DRAM service rate: the
        // acceptance rate converges on 1/1.8 lines per cycle (14.2 GB/s).
        let mut h = HostSide::new(SelectorPolicy::Auto);
        for i in 0..32u64 {
            h.iommu_mut()
                .map(
                    Iova::new(i * PageSize::Huge.bytes()),
                    Hpa::new(i * PageSize::Huge.bytes()),
                    PageSize::Huge,
                    PageFlags::rw(),
                )
                .unwrap();
        }
        let mut submitted = 0u32;
        let mut completed = 0u64;
        for now in 0..24_000u64 {
            if now < 20_000 && h.can_accept(now) {
                h.submit(
                    UpPacket::DmaRead {
                        iova: Iova::new((submitted as u64 % 32) * PageSize::Huge.bytes()),
                        src: AccelId(0),
                        tag: Tag(submitted),
                    },
                    now,
                );
                submitted += 1;
            }
            while h.pop_response(now).is_some() {
                completed += 1;
            }
        }
        let rate = submitted as f64 / 20_000.0;
        assert!(
            (0.5..0.62).contains(&rate),
            "acceptance rate {rate} should approximate 1/1.8"
        );
        assert!(completed > 9000, "completed {completed}");
    }

    #[test]
    fn mmio_round_trip() {
        let mut h = HostSide::new(SelectorPolicy::Auto);
        h.inject_mmio_write(0x100, 42, 0);
        let mut seen_write = false;
        for now in 0..200 {
            if let Some(DownPacket::MmioWrite { addr, value }) = h.pop_response(now) {
                assert_eq!((addr, value), (0x100, 42));
                seen_write = true;
                break;
            }
        }
        assert!(seen_write);
        // Device answers a read.
        h.submit(UpPacket::MmioReadResp { addr: 0x100, value: 42 }, 100);
        let mut got = None;
        for now in 100..400 {
            if let Some(r) = h.take_mmio_response(now) {
                got = Some(r);
                break;
            }
        }
        assert_eq!(got, Some((0x100, 42)));
    }

    #[test]
    fn next_event_predicts_first_response() {
        let mut h = host_with_identity_map(1);
        assert_eq!(h.next_event(0), None);
        h.submit(
            UpPacket::DmaRead {
                iova: Iova::new(0),
                src: AccelId(0),
                tag: Tag(0),
            },
            0,
        );
        let horizon = h.next_event(0).expect("response in flight");
        assert!(h.pop_response(horizon - 1).is_none());
        assert!(h.pop_response(horizon).is_some());
        assert_eq!(h.next_event(horizon), None);
    }

    #[test]
    fn next_event_covers_mmio_mailbox() {
        let mut h = HostSide::new(SelectorPolicy::Auto);
        h.submit(UpPacket::MmioReadResp { addr: 0x8, value: 5 }, 10);
        let horizon = h.next_event(10).expect("mailbox pending");
        assert!(h.take_mmio_response(horizon - 1).is_none());
        assert_eq!(h.take_mmio_response(horizon), Some((0x8, 5)));
    }

    #[test]
    fn next_accept_is_the_exact_threshold() {
        let mut h = host_with_identity_map(1);
        // Saturate until backpressure engages.
        let mut tag = 0u32;
        let mut now = 0;
        while h.can_accept(now) {
            h.submit(
                UpPacket::DmaRead {
                    iova: Iova::new(0),
                    src: AccelId(0),
                    tag: Tag(tag),
                },
                now,
            );
            tag += 1;
            now = 0; // keep submitting at cycle 0 to build backlog
        }
        assert!(!h.can_accept(0));
        let t = h.next_accept(0);
        assert!(!h.can_accept(t - 1), "accepts one cycle early");
        assert!(h.can_accept(t), "predicted accept time is wrong");
    }

    #[test]
    fn backpressure_engages_under_load() {
        let mut h = host_with_identity_map(1);
        let mut stalls = 0;
        for now in 0..1000u64 {
            if h.can_accept(now) {
                h.submit(
                    UpPacket::DmaRead {
                        iova: Iova::new(0),
                        src: AccelId(0),
                        tag: Tag(now as u32),
                    },
                    now,
                );
            } else {
                stalls += 1;
            }
        }
        assert!(stalls > 300, "expected sustained backpressure, got {stalls}");
    }
}
