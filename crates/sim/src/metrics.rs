//! The always-on metrics plane: typed counters, gauges, and log2-bucketed
//! histograms keyed by a static registry of (layer, metric, label).
//!
//! Unlike the flight recorder ([`crate::trace`], off by default, raw
//! events), the metrics plane is **on by default** and records steady-state
//! health in bounded memory: every histogram is 65 log2 buckets plus
//! count/sum/min/max, never a raw-sample `Vec`. Series carry two small
//! integer dimensions — the device index (multi-FPGA nodes) and a
//! per-metric label (vaccel, slot, channel, link, mux node…) — stored
//! densely so the record path is an add into a flat array.
//!
//! # Determinism
//!
//! Recording never feeds back into simulation: the plane is write-only
//! from the simulated layers and only read by reports, tests, and
//! exposition. `OPTIMUS_METRICS=off` (accepted values:
//! [`crate::plane::env_gate`]) disables accumulation, but through a
//! *branch-free masked path*: the accumulate executes
//! unconditionally with a per-thread mask of `!0` (on) or `0` (off), so
//! the instruction stream — and therefore the simulation — is identical
//! either way. A differential property test in `crates/core/tests/prop.rs`
//! proves simulation fingerprints are byte-identical with metrics on vs
//! off.
//!
//! Storage is thread-local, like the flight recorder, so parallel device
//! stepping needs no locks: node workers drain their cells per device
//! into a [`crate::plane::Chunk`] which the main thread absorbs. Every
//! merge operation (counter add, bucket add, min/max) is commutative and
//! associative, so parallel stepping yields bit-identical totals to
//! serial stepping.
//!
//! # Exposition
//!
//! [`snapshot`] returns the registry-ordered series list (embedded as the
//! `metrics` section of every `BENCH_*.json`); [`prometheus_text`] renders
//! the standard text format (`# HELP`/`# TYPE`, cumulative `_bucket{le=…}`
//! histograms) written next to the bench reports as `PROM_<name>.prom`.

use std::cell::{Cell, RefCell};

/// Index of a metric in [`REGISTRY`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Metric(pub u16);

/// What a registry entry measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count.
    Counter,
    /// Last-written value (stored as `f64` bits).
    Gauge,
    /// Log2-bucketed distribution with count/sum/min/max.
    Histogram,
}

/// One entry of the static metric registry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The metric's own index (checked against its position by a test).
    pub id: Metric,
    /// Owning layer: `hv`, `mem`, `cci`, `fabric`, or `node`.
    pub layer: &'static str,
    /// Metric name within the layer.
    pub name: &'static str,
    /// Name of the per-metric label dimension; `""` = device-only.
    pub label: &'static str,
    pub kind: MetricKind,
    pub help: &'static str,
}

// ---- The registry ---------------------------------------------------------
//
// The workspace's one counter mechanism: the flight recorder carries
// events only, so every aggregate count is a series here.

pub const HV_MMIO_TRAPS: Metric = Metric(0);
pub const HV_MMIO_TRAP_CYCLES: Metric = Metric(1);
pub const HV_HYPERCALLS: Metric = Metric(2);
pub const HV_CONTEXT_SWITCHES: Metric = Metric(3);
pub const HV_SLICE_OVERRUN_CYCLES: Metric = Metric(4);
pub const HV_PREEMPTIONS: Metric = Metric(5);
pub const HV_PREEMPT_CYCLES: Metric = Metric(6);
pub const HV_FORCED_RESETS: Metric = Metric(7);
pub const HV_INSTALLS: Metric = Metric(8);
pub const HV_INSTALL_CYCLES: Metric = Metric(9);
pub const HV_ISOLATION_ALERTS: Metric = Metric(10);
pub const MEM_IOTLB_HITS: Metric = Metric(11);
pub const MEM_IOTLB_SPEC_HITS: Metric = Metric(12);
pub const MEM_IOTLB_MISSES: Metric = Metric(13);
pub const MEM_IOTLB_CONFLICT_EVICTIONS: Metric = Metric(14);
pub const MEM_IO_PAGE_FAULTS: Metric = Metric(15);
pub const MEM_PAGE_WALK_CYCLES: Metric = Metric(16);
pub const CCI_CHANNEL_PACKETS: Metric = Metric(17);
pub const CCI_CHANNEL_SWITCHES: Metric = Metric(18);
pub const CCI_DMA_BYTES: Metric = Metric(19);
pub const CCI_DMA_RT_CYCLES: Metric = Metric(20);
pub const FABRIC_MUX_GRANTS: Metric = Metric(21);
pub const FABRIC_MUX_STALLS: Metric = Metric(22);
pub const FABRIC_MUX_QUEUE_DEPTH: Metric = Metric(23);
pub const FABRIC_PORT_FORWARDED: Metric = Metric(24);
pub const FABRIC_AUDITOR_REJECTS: Metric = Metric(25);
pub const FABRIC_FAIRNESS_JAIN: Metric = Metric(26);
pub const NODE_CHUNKS: Metric = Metric(27);
pub const NODE_CHUNK_CYCLES: Metric = Metric(28);
pub const NODE_MIGRATIONS: Metric = Metric(29);
pub const SLO_QUEUE_CYCLES: Metric = Metric(30);
pub const SLO_INSTALL_CYCLES: Metric = Metric(31);
pub const SLO_COMPUTE_CYCLES: Metric = Metric(32);
pub const SLO_PREEMPT_CYCLES: Metric = Metric(33);
pub const SLO_SHARE_STALL_CYCLES: Metric = Metric(34);
pub const SLO_E2E_CYCLES: Metric = Metric(35);
pub const SLO_JOBS_COMPLETED: Metric = Metric(36);
pub const SLO_PAYLOAD_BYTES: Metric = Metric(37);

use MetricKind::{Counter, Gauge, Histogram};

/// The static registry: every series the workspace can record.
pub const REGISTRY: &[MetricDef] = &[
    MetricDef { id: HV_MMIO_TRAPS, layer: "hv", name: "mmio_traps", label: "vaccel", kind: Counter, help: "MMIO accesses trapped and emulated by the hypervisor" },
    MetricDef { id: HV_MMIO_TRAP_CYCLES, layer: "hv", name: "mmio_trap_cycles", label: "vaccel", kind: Histogram, help: "Per-trap emulation latency in fabric cycles" },
    MetricDef { id: HV_HYPERCALLS, layer: "hv", name: "hypercalls", label: "vaccel", kind: Counter, help: "Guest hypercalls (page registrations)" },
    MetricDef { id: HV_CONTEXT_SWITCHES, layer: "hv", name: "context_switches", label: "slot", kind: Counter, help: "Slice-boundary context switches per physical slot" },
    MetricDef { id: HV_SLICE_OVERRUN_CYCLES, layer: "hv", name: "slice_overrun_cycles", label: "slot", kind: Histogram, help: "Cycles past the nominal slice end when the boundary ran" },
    MetricDef { id: HV_PREEMPTIONS, layer: "hv", name: "preemptions", label: "slot", kind: Counter, help: "Cooperative preemptions (drain + state save)" },
    MetricDef { id: HV_PREEMPT_CYCLES, layer: "hv", name: "preempt_cycles", label: "slot", kind: Histogram, help: "Drain+save duration per preemption, vs the Fig 8 deadline" },
    MetricDef { id: HV_FORCED_RESETS, layer: "hv", name: "forced_resets", label: "slot", kind: Counter, help: "Preemptions that blew the deadline and were reset" },
    MetricDef { id: HV_INSTALLS, layer: "hv", name: "installs", label: "vaccel", kind: Counter, help: "Virtual-accelerator installs (fresh or state restore)" },
    MetricDef { id: HV_INSTALL_CYCLES, layer: "hv", name: "install_cycles", label: "vaccel", kind: Histogram, help: "Install/restore duration in fabric cycles" },
    MetricDef { id: HV_ISOLATION_ALERTS, layer: "hv", name: "isolation_alerts", label: "kind", kind: Counter, help: "Watchdog alerts (kind: 0=starvation 1=iotlb_thrash 2=preempt_overrun)" },
    MetricDef { id: MEM_IOTLB_HITS, layer: "mem", name: "iotlb_hits", label: "vaccel", kind: Counter, help: "IOTLB lookups served from the TLB" },
    MetricDef { id: MEM_IOTLB_SPEC_HITS, layer: "mem", name: "iotlb_spec_hits", label: "vaccel", kind: Counter, help: "Speculative same-region fast-path hits" },
    MetricDef { id: MEM_IOTLB_MISSES, layer: "mem", name: "iotlb_misses", label: "vaccel", kind: Counter, help: "IOTLB misses requiring a page walk" },
    MetricDef { id: MEM_IOTLB_CONFLICT_EVICTIONS, layer: "mem", name: "iotlb_conflict_evictions", label: "vaccel", kind: Counter, help: "Direct-mapped set conflicts (the Fig 6 stride pathology)" },
    MetricDef { id: MEM_IO_PAGE_FAULTS, layer: "mem", name: "io_page_faults", label: "vaccel", kind: Counter, help: "Translations that faulted (unmapped or permission)" },
    MetricDef { id: MEM_PAGE_WALK_CYCLES, layer: "mem", name: "page_walk_cycles", label: "vaccel", kind: Histogram, help: "Page-walk latency including walker queueing, in cycles" },
    MetricDef { id: CCI_CHANNEL_PACKETS, layer: "cci", name: "channel_packets", label: "channel", kind: Counter, help: "Upstream packets admitted per physical channel" },
    MetricDef { id: CCI_CHANNEL_SWITCHES, layer: "cci", name: "channel_switches", label: "channel", kind: Counter, help: "Channel-selector switches, attributed to the new channel" },
    MetricDef { id: CCI_DMA_BYTES, layer: "cci", name: "dma_bytes", label: "link", kind: Counter, help: "DMA payload bytes moved per accelerator link" },
    MetricDef { id: CCI_DMA_RT_CYCLES, layer: "cci", name: "dma_rt_cycles", label: "link", kind: Histogram, help: "DMA round-trip (admit to response-ready) in cycles" },
    MetricDef { id: FABRIC_MUX_GRANTS, layer: "fabric", name: "mux_grants", label: "node", kind: Counter, help: "Round-robin grants per multiplexer-tree node" },
    MetricDef { id: FABRIC_MUX_STALLS, layer: "fabric", name: "mux_stalls", label: "node", kind: Counter, help: "Backpressure stalls (ready input, full output) per node" },
    MetricDef { id: FABRIC_MUX_QUEUE_DEPTH, layer: "fabric", name: "mux_queue_depth", label: "node", kind: Histogram, help: "Input-queue occupancy observed at each grant" },
    MetricDef { id: FABRIC_PORT_FORWARDED, layer: "fabric", name: "port_forwarded", label: "port", kind: Counter, help: "Packets cleared through the tree root per source port" },
    MetricDef { id: FABRIC_AUDITOR_REJECTS, layer: "fabric", name: "auditor_rejects", label: "slot", kind: Counter, help: "Downstream packets rejected by an auditor" },
    MetricDef { id: FABRIC_FAIRNESS_JAIN, layer: "fabric", name: "fairness_jain", label: "", kind: Gauge, help: "Jain's fairness index over per-port root grants, last watchdog window" },
    MetricDef { id: NODE_CHUNKS, layer: "node", name: "chunks", label: "", kind: Counter, help: "Synchronization-horizon chunks stepped per device" },
    MetricDef { id: NODE_CHUNK_CYCLES, layer: "node", name: "chunk_cycles", label: "", kind: Histogram, help: "Cycles per stepped chunk per device" },
    MetricDef { id: NODE_MIGRATIONS, layer: "node", name: "migrations", label: "", kind: Counter, help: "Tenants migrated onto each device (recorded on the destination)" },
    MetricDef { id: SLO_QUEUE_CYCLES, layer: "slo", name: "queue_cycles", label: "vaccel", kind: Histogram, help: "Per-job scheduler-queue wait (journal-derived, share stall excluded)" },
    MetricDef { id: SLO_INSTALL_CYCLES, layer: "slo", name: "install_cycles", label: "vaccel", kind: Histogram, help: "Per-job install cost: register replay + VCU window programming" },
    MetricDef { id: SLO_COMPUTE_CYCLES, layer: "slo", name: "compute_cycles", label: "vaccel", kind: Histogram, help: "Per-job fabric execution time" },
    MetricDef { id: SLO_PREEMPT_CYCLES, layer: "slo", name: "preempt_cycles", label: "vaccel", kind: Histogram, help: "Per-job preemption overhead: drain/save plus restore" },
    MetricDef { id: SLO_SHARE_STALL_CYCLES, layer: "slo", name: "share_stall_cycles", label: "vaccel", kind: Histogram, help: "Per-job wait on a share-linked producer, carved out of queue time" },
    MetricDef { id: SLO_E2E_CYCLES, layer: "slo", name: "e2e_cycles", label: "vaccel", kind: Histogram, help: "Per-job end-to-end latency, submit to complete" },
    MetricDef { id: SLO_JOBS_COMPLETED, layer: "slo", name: "jobs_completed", label: "vaccel", kind: Counter, help: "Jobs run to completion (journal-derived)" },
    MetricDef { id: SLO_PAYLOAD_BYTES, layer: "slo", name: "payload_bytes", label: "vaccel", kind: Counter, help: "Completed-job payload bytes (mapped working set at submit)" },
];

/// The registry entry for `m`.
pub fn def(m: Metric) -> &'static MetricDef {
    &REGISTRY[m.0 as usize]
}

// ---- Dense storage --------------------------------------------------------

/// Series index = `device * LABEL_STRIDE + min(label, LABEL_STRIDE-1)`.
/// 64 label values per device is enough for every dimension in the
/// registry (slots ≤ 8, channels ≤ 4, mux nodes ≤ 2·slots, vaccels
/// clamped); out-of-range labels share the last bin rather than growing
/// unboundedly.
pub const LABEL_STRIDE: usize = 64;

const BUCKETS: usize = 65;

#[inline]
fn packed(device: u32, label: u32) -> usize {
    device as usize * LABEL_STRIDE + (label as usize).min(LABEL_STRIDE - 1)
}

#[inline]
fn bucket_index(value: u64) -> usize {
    // 0 → bucket 0; v ∈ [2^(b-1), 2^b) → bucket b; so bucket b's inclusive
    // upper bound is 2^b - 1 and bucket 64 catches v ≥ 2^63.
    (64 - value.leading_zeros()) as usize
}

#[derive(Debug, Clone)]
struct Hist {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Hist {
    const EMPTY: Hist = Hist {
        buckets: [0; BUCKETS],
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
    };
}

#[derive(Debug, Default)]
struct Plane {
    /// Counters and gauges (gauges store `f64` bits), one dense series
    /// vector per registry entry, grown on demand.
    scalars: Vec<Vec<u64>>,
    hists: Vec<Vec<Hist>>,
}

impl Plane {
    fn new() -> Self {
        Self {
            scalars: vec![Vec::new(); REGISTRY.len()],
            hists: vec![Vec::new(); REGISTRY.len()],
        }
    }
}

/// All per-thread metrics state behind a *single* `thread_local`, so the
/// record path pays exactly one TLS address computation. (Split across
/// three keys — mask, device scope, plane — each `inc` cost three TLS
/// accesses, which profiles showed as a measurable slice of the hot
/// packet path.)
struct Tls {
    /// `!0` = recording, `0` = masked off. Sampled from `OPTIMUS_METRICS`
    /// once per thread; node workers re-apply the main thread's state.
    mask: Cell<u64>,
    /// Device dimension for [`inc`]/[`observe`]; the hypervisor scopes it
    /// before stepping its device so deep layers need no plumbing.
    device: Cell<u32>,
    plane: RefCell<Plane>,
}

thread_local! {
    static TLS: Tls = Tls {
        mask: Cell::new(if crate::plane::env_gate("OPTIMUS_METRICS", true) { !0 } else { 0 }),
        device: Cell::new(0),
        plane: RefCell::new(Plane::new()),
    };
}

/// Whether this thread is recording metrics.
pub fn enabled() -> bool {
    TLS.with(|t| t.mask.get()) != 0
}

/// Overrides the `OPTIMUS_METRICS` gate for this thread (tests, node
/// workers propagating the main thread's state).
pub fn set_enabled(on: bool) {
    TLS.with(|t| t.mask.set(if on { !0 } else { 0 }));
}

/// Scopes subsequent [`inc`]/[`observe`] calls to device `d`.
pub fn set_device(d: u32) {
    TLS.with(|t| t.device.set(d));
}

/// The current device scope.
pub fn device_scope() -> u32 {
    TLS.with(|t| t.device.get())
}

#[inline]
fn scalar_add(t: &Tls, m: Metric, idx: usize, delta: u64) {
    let mask = t.mask.get();
    let mut p = t.plane.borrow_mut();
    let v = &mut p.scalars[m.0 as usize];
    if v.len() <= idx {
        v.resize(idx + 1, 0);
    }
    v[idx] = v[idx].wrapping_add(delta & mask);
}

#[inline]
fn hist_add(t: &Tls, m: Metric, idx: usize, value: u64) {
    let mask = t.mask.get();
    let b = bucket_index(value);
    let mut p = t.plane.borrow_mut();
    let h = &mut p.hists[m.0 as usize];
    if h.len() <= idx {
        h.resize(idx + 1, Hist::EMPTY);
    }
    let h = &mut h[idx];
    h.buckets[b] = h.buckets[b].wrapping_add(1 & mask);
    h.count = h.count.wrapping_add(1 & mask);
    h.sum = h.sum.wrapping_add(value & mask);
    // min: disabled ⇒ compare against MAX (no-op); max: against 0.
    h.min = h.min.min(value | !mask);
    h.max = h.max.max(value & mask);
}

/// Adds `delta` to counter `m` for the scoped device. Branch-free on the
/// enable gate: the add always executes, masked to zero when disabled.
#[inline]
pub fn inc(m: Metric, label: u32, delta: u64) {
    TLS.with(|t| scalar_add(t, m, packed(t.device.get(), label), delta));
}

/// [`inc`] with an explicit device (node-layer aggregation).
#[inline]
pub fn inc_at(m: Metric, device: u32, label: u32, delta: u64) {
    TLS.with(|t| scalar_add(t, m, packed(device, label), delta));
}

/// Records `value` into histogram `m` for the scoped device (branch-free
/// masked path, like [`inc`]).
#[inline]
pub fn observe(m: Metric, label: u32, value: u64) {
    TLS.with(|t| hist_add(t, m, packed(t.device.get(), label), value));
}

/// [`observe`] with an explicit device.
#[inline]
pub fn observe_at(m: Metric, device: u32, label: u32, value: u64) {
    TLS.with(|t| hist_add(t, m, packed(device, label), value));
}

/// Sets gauge `m` for the scoped device (masked: a disabled thread leaves
/// the stored value untouched).
pub fn set_gauge(m: Metric, label: u32, value: f64) {
    TLS.with(|t| {
        let mask = t.mask.get();
        let idx = packed(t.device.get(), label);
        let bits = value.to_bits();
        let mut p = t.plane.borrow_mut();
        let v = &mut p.scalars[m.0 as usize];
        if v.len() <= idx {
            v.resize(idx + 1, 0);
        }
        v[idx] = (bits & mask) | (v[idx] & !mask);
    });
}

// ---- Reads ---------------------------------------------------------------

/// O(1) read of counter `m` at (device, label); 0 if never recorded.
pub fn counter_value(m: Metric, device: u32, label: u32) -> u64 {
    let idx = packed(device, label);
    TLS.with(|t| {
        t.plane.borrow().scalars[m.0 as usize]
            .get(idx)
            .copied()
            .unwrap_or(0)
    })
}

/// Sum of counter `m` over every device and label.
pub fn counter_total(m: Metric) -> u64 {
    TLS.with(|t| {
        t.plane.borrow().scalars[m.0 as usize]
            .iter()
            .fold(0u64, |a, v| a.wrapping_add(*v))
    })
}

/// Last-written gauge value; 0.0 if never set.
pub fn gauge_value(m: Metric, device: u32, label: u32) -> f64 {
    f64::from_bits(counter_value(m, device, label))
}

/// Sample count of histogram `m` at (device, label).
pub fn hist_count(m: Metric, device: u32, label: u32) -> u64 {
    let idx = packed(device, label);
    TLS.with(|t| {
        t.plane.borrow().hists[m.0 as usize]
            .get(idx)
            .map_or(0, |h| h.count)
    })
}

/// Sum of all recorded values of histogram `m` at (device, label).
pub fn hist_sum(m: Metric, device: u32, label: u32) -> u64 {
    let idx = packed(device, label);
    TLS.with(|t| {
        t.plane.borrow().hists[m.0 as usize]
            .get(idx)
            .map_or(0, |h| h.sum)
    })
}

/// Total sample count of histogram `m` across every series.
pub fn hist_total_count(m: Metric) -> u64 {
    TLS.with(|t| {
        t.plane.borrow().hists[m.0 as usize]
            .iter()
            .fold(0u64, |a, h| a.wrapping_add(h.count))
    })
}

/// Clears every series on this thread.
pub fn reset() {
    TLS.with(|t| *t.plane.borrow_mut() = Plane::new());
}

// ---- Parallel chunk drain -------------------------------------------------

/// A worker thread's accumulated cells (the metrics leg of
/// [`crate::plane::Chunk`]). Every merge is commutative, so the absorb
/// order cannot affect totals.
#[derive(Debug)]
pub(crate) struct MetricsChunk {
    scalars: Vec<Vec<u64>>,
    hists: Vec<Vec<Hist>>,
}

/// Takes this thread's plane, leaving it empty.
pub(crate) fn take_chunk() -> MetricsChunk {
    TLS.with(|t| {
        let plane = std::mem::replace(&mut *t.plane.borrow_mut(), Plane::new());
        MetricsChunk {
            scalars: plane.scalars,
            hists: plane.hists,
        }
    })
}

/// Merges a drained chunk into this thread's plane. Counters and
/// histogram cells add; gauges overwrite when the chunk wrote a value
/// (series are device-disjoint across node workers, so this is
/// order-independent too).
pub(crate) fn absorb_chunk(chunk: MetricsChunk) {
    TLS.with(|t| {
        let mut p = t.plane.borrow_mut();
        for (mi, src) in chunk.scalars.into_iter().enumerate() {
            if src.is_empty() {
                continue;
            }
            let gauge = REGISTRY[mi].kind == Gauge;
            let dst = &mut p.scalars[mi];
            if dst.len() < src.len() {
                dst.resize(src.len(), 0);
            }
            for (i, v) in src.into_iter().enumerate() {
                if gauge {
                    if v != 0 {
                        dst[i] = v;
                    }
                } else {
                    dst[i] = dst[i].wrapping_add(v);
                }
            }
        }
        for (mi, src) in chunk.hists.into_iter().enumerate() {
            if src.is_empty() {
                continue;
            }
            let dst = &mut p.hists[mi];
            if dst.len() < src.len() {
                dst.resize(src.len(), Hist::EMPTY);
            }
            for (i, h) in src.into_iter().enumerate() {
                let d = &mut dst[i];
                for (db, sb) in d.buckets.iter_mut().zip(h.buckets.iter()) {
                    *db = db.wrapping_add(*sb);
                }
                d.count = d.count.wrapping_add(h.count);
                d.sum = d.sum.wrapping_add(h.sum);
                d.min = d.min.min(h.min);
                d.max = d.max.max(h.max);
            }
        }
    });
}

// ---- Exposition -----------------------------------------------------------

/// A frozen histogram series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    /// `u64::MAX` when empty.
    pub min: u64,
    pub max: u64,
    /// Cumulative counts as `(inclusive upper bound, count ≤ bound)`
    /// pairs, trimmed at the highest non-empty bucket; the implicit
    /// `+Inf` bucket equals `count`.
    pub buckets: Vec<(u64, u64)>,
}

/// A frozen series value.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    Counter(u64),
    Gauge(f64),
    Hist(HistSnapshot),
}

/// One non-empty series: registry entry plus its two dimensions.
#[derive(Debug, Clone)]
pub struct Series {
    pub def: &'static MetricDef,
    pub device: u32,
    pub label: u32,
    pub value: SeriesValue,
}

/// Freezes every non-empty series, in registry order then
/// (device, label) order — fully deterministic for diffable reports.
pub fn snapshot() -> Vec<Series> {
    let mut out = Vec::new();
    TLS.with(|t| {
        let p = t.plane.borrow();
        for d in REGISTRY {
            let mi = d.id.0 as usize;
            match d.kind {
                Counter | Gauge => {
                    for (idx, &v) in p.scalars[mi].iter().enumerate() {
                        if v == 0 {
                            continue;
                        }
                        out.push(Series {
                            def: d,
                            device: (idx / LABEL_STRIDE) as u32,
                            label: (idx % LABEL_STRIDE) as u32,
                            value: if d.kind == Gauge {
                                SeriesValue::Gauge(f64::from_bits(v))
                            } else {
                                SeriesValue::Counter(v)
                            },
                        });
                    }
                }
                Histogram => {
                    for (idx, h) in p.hists[mi].iter().enumerate() {
                        if h.count == 0 {
                            continue;
                        }
                        let top = h
                            .buckets
                            .iter()
                            .rposition(|&c| c != 0)
                            .unwrap_or(0)
                            .min(63);
                        let mut cum = 0u64;
                        let buckets = (0..=top)
                            .map(|b| {
                                cum += h.buckets[b];
                                ((1u64 << b) - 1, cum)
                            })
                            .collect();
                        out.push(Series {
                            def: d,
                            device: (idx / LABEL_STRIDE) as u32,
                            label: (idx % LABEL_STRIDE) as u32,
                            value: SeriesValue::Hist(HistSnapshot {
                                count: h.count,
                                sum: h.sum,
                                min: h.min,
                                max: h.max,
                                buckets,
                            }),
                        });
                    }
                }
            }
        }
    });
    out
}

fn series_labels(s: &Series) -> String {
    if s.def.label.is_empty() {
        format!("{{device=\"{}\"}}", s.device)
    } else {
        format!("{{device=\"{}\",{}=\"{}\"}}", s.device, s.def.label, s.label)
    }
}

/// Renders every non-empty series in the Prometheus text exposition
/// format. Counters get the conventional `_total` suffix; histograms emit
/// cumulative `_bucket{le=…}` series plus `_sum` and `_count`.
pub fn prometheus_text() -> String {
    let mut out = String::new();
    let snap = snapshot();
    let mut last: Option<Metric> = None;
    for s in &snap {
        let suffix = match s.def.kind {
            Counter => "_total",
            _ => "",
        };
        let fq = format!("optimus_{}_{}{}", s.def.layer, s.def.name, suffix);
        if last != Some(s.def.id) {
            last = Some(s.def.id);
            let ty = match s.def.kind {
                Counter => "counter",
                Gauge => "gauge",
                Histogram => "histogram",
            };
            out.push_str(&format!("# HELP {} {}\n", fq, s.def.help));
            out.push_str(&format!("# TYPE {fq} {ty}\n"));
        }
        let labels = series_labels(s);
        match &s.value {
            SeriesValue::Counter(v) => {
                out.push_str(&format!("{fq}{labels} {v}\n"));
            }
            SeriesValue::Gauge(v) => {
                out.push_str(&format!("{fq}{labels} {v}\n"));
            }
            SeriesValue::Hist(h) => {
                let inner = labels.trim_start_matches('{').trim_end_matches('}');
                for (le, cum) in &h.buckets {
                    out.push_str(&format!("{fq}_bucket{{{inner},le=\"{le}\"}} {cum}\n"));
                }
                out.push_str(&format!("{fq}_bucket{{{inner},le=\"+Inf\"}} {}\n", h.count));
                out.push_str(&format!("{fq}_sum{labels} {}\n", h.sum));
                out.push_str(&format!("{fq}_count{labels} {}\n", h.count));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_match_positions() {
        for (i, d) in REGISTRY.iter().enumerate() {
            assert_eq!(d.id.0 as usize, i, "registry entry {} ({}/{}) misnumbered", i, d.layer, d.name);
        }
    }

    #[test]
    fn masked_accumulate_is_a_no_op_when_disabled() {
        set_enabled(false);
        inc(HV_MMIO_TRAPS, 1, 5);
        observe(HV_MMIO_TRAP_CYCLES, 1, 800);
        set_gauge(FABRIC_FAIRNESS_JAIN, 0, 0.5);
        assert_eq!(counter_value(HV_MMIO_TRAPS, 0, 1), 0);
        assert_eq!(hist_count(HV_MMIO_TRAP_CYCLES, 0, 1), 0);
        assert_eq!(gauge_value(FABRIC_FAIRNESS_JAIN, 0, 0), 0.0);
        set_enabled(true);
        inc(HV_MMIO_TRAPS, 1, 5);
        inc(HV_MMIO_TRAPS, 1, 2);
        observe(HV_MMIO_TRAP_CYCLES, 1, 800);
        set_gauge(FABRIC_FAIRNESS_JAIN, 0, 0.5);
        assert_eq!(counter_value(HV_MMIO_TRAPS, 0, 1), 7);
        assert_eq!(hist_count(HV_MMIO_TRAP_CYCLES, 0, 1), 1);
        assert_eq!(hist_sum(HV_MMIO_TRAP_CYCLES, 0, 1), 800);
        assert_eq!(gauge_value(FABRIC_FAIRNESS_JAIN, 0, 0), 0.5);
    }

    #[test]
    fn log2_bucketing_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        set_enabled(true);
        for v in [0u64, 1, 2, 3, 1024] {
            observe(MEM_PAGE_WALK_CYCLES, 4, v);
        }
        let snap = snapshot();
        let s = snap
            .iter()
            .find(|s| s.def.id == MEM_PAGE_WALK_CYCLES)
            .expect("series present");
        match &s.value {
            SeriesValue::Hist(h) => {
                assert_eq!(h.count, 5);
                assert_eq!(h.sum, 1030);
                assert_eq!(h.min, 0);
                assert_eq!(h.max, 1024);
                // Cumulative: le=0 → 1 sample, le=1 → 2, le=3 → 4,
                // le=2047 → 5 (1024 lands in bucket 11).
                assert_eq!(h.buckets.first(), Some(&(0, 1)));
                assert_eq!(h.buckets.last(), Some(&((1 << 11) - 1, 5)));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn device_scope_and_explicit_device_agree() {
        set_enabled(true);
        set_device(3);
        inc(CCI_DMA_BYTES, 2, 64);
        set_device(0);
        inc_at(CCI_DMA_BYTES, 3, 2, 64);
        assert_eq!(counter_value(CCI_DMA_BYTES, 3, 2), 128);
        assert_eq!(counter_total(CCI_DMA_BYTES), 128);
    }

    #[test]
    fn prometheus_text_has_no_duplicate_series() {
        set_enabled(true);
        inc(HV_MMIO_TRAPS, 0, 1);
        inc(HV_MMIO_TRAPS, 1, 2);
        observe(HV_MMIO_TRAP_CYCLES, 0, 800);
        let text = prometheus_text();
        assert!(text.contains("# TYPE optimus_hv_mmio_traps_total counter"));
        assert!(text.contains("optimus_hv_mmio_traps_total{device=\"0\",vaccel=\"1\"} 2"));
        assert!(text.contains("optimus_hv_mmio_trap_cycles_bucket"));
        assert!(text.contains("le=\"+Inf\""));
        let mut seen = std::collections::HashSet::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let series = line.rsplit_once(' ').map(|(s, _)| s).unwrap_or(line);
            assert!(seen.insert(series.to_string()), "duplicate series {series}");
        }
    }

    #[test]
    fn out_of_range_labels_clamp_into_the_last_bin() {
        set_enabled(true);
        inc(HV_HYPERCALLS, 1_000_000, 1);
        inc(HV_HYPERCALLS, 2_000_000, 1);
        assert_eq!(
            counter_value(HV_HYPERCALLS, 0, (LABEL_STRIDE - 1) as u32),
            2
        );
    }
}
