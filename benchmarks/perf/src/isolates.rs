//! Per-layer isolates: host nanoseconds of one public operation of one
//! layer, driven in a loop with nothing else around it. They price the
//! counts the metrics plane reports ("how much host time is an IOTLB
//! miss?") and do not depend on the workload, so each is measured once:
//! in the traced run of the workload whose timed section its layer
//! carries.

use crate::kernels::{self, service_ideal, JobSpec, APP, COMPUTE_KINDS};
use crate::spans::Spans;
use crate::stats::median;
use optimus::hypervisor::{Optimus, OptimusConfig};
use optimus_accel::membench::MbKernel;
use optimus_accel::registry::{build_accelerator, AccelKind};
use optimus_cci::channel::SelectorPolicy;
use optimus_cci::host_side::HostSide;
use optimus_cci::packet::{AccelId, Tag, UpPacket};
use optimus_fabric::accelerator::{AccelPort, Accelerator};
use optimus_fabric::auditor::{Auditor, OutboundReq};
use optimus_fabric::device::FpgaDevice;
use optimus_fabric::mmio::{self, accel_reg};
use optimus_fabric::mux_tree::{MuxTree, TreeConfig};
use optimus_mem::addr::{Gva, Hpa, Iova, PageSize, PAGE_2M};
use optimus_mem::host::HostMemory;
use optimus_mem::iommu::Iommu;
use optimus_mem::page_table::{PageFlags, PageTable};
use optimus_sim::rng::Xoshiro256;
use optimus_workloads::linked_list::linked_list_line_filler;
use std::hint::black_box;
use std::time::Instant;

/// Repeats of each isolate; the median is reported.
const REPS: usize = 5;

/// Median host nanoseconds per operation: `REPS` timings of `ops`
/// operations performed by one call of `f`.
fn ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// `(metric name, value)` of the isolates `workload`'s traced run
/// measures; units are the catalog's (ns, or ms for the snapshot and
/// tenant-move calls). The five workloads between them cover every
/// isolate exactly once.
pub fn run_for(workload: &str, sp: &mut Spans) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut push = |name: &str, v: f64| out.push((name.to_string(), v));
    match workload {
        "ll_chase" => {
            let s = sp.begin("isolate.mem");
            let (hit, miss) = iotlb();
            push("mem.iotlb_hit_ns", hit);
            push("mem.iotlb_miss_walk_ns", miss);
            push("mem.pt_translate_ns", pt_translate());
            let (read, write, fill) = host_memory();
            push("mem.host_read_line_ns", read);
            push("mem.host_write_line_ns", write);
            push("mem.lazy_fill_line_ns", fill);
            sp.end(s);
        }
        "mb_rw" => {
            let s = sp.begin("isolate.cci");
            push("cci.hostside_roundtrip_ns", hostside_roundtrip());
            sp.end(s);
            let s = sp.begin("isolate.fabric");
            push("fabric.auditor_translate_ns", auditor_translate());
            push("fabric.mux_step_saturated_ns", mux_step_saturated());
            let (idle, loaded) = device_step();
            push("fabric.device_step_idle_ns", idle);
            push("fabric.device_step_loaded_ns", loaded);
            sp.end(s);
        }
        "compute_mix" => {
            let s = sp.begin("isolate.accel");
            for kind in COMPUTE_KINDS {
                let k = kernels::short_name(kind);
                push(&format!("accel.{k}.ns_per_line"), kernel_ns_per_line(kind));
            }
            sp.end(s);
            let s = sp.begin("isolate.algo");
            for kind in COMPUTE_KINDS {
                let k = kernels::short_name(kind);
                push(&format!("algo.{k}.ns_per_line"), algo_ns_per_line(kind));
            }
            sp.end(s);
        }
        "tenant_churn" => {
            let s = sp.begin("isolate.core.hv");
            push("core.hv.trap_ns", trap());
            push("core.hv.pin_page_ns", pin_page());
            push("core.hv.create_vaccel_ns", create_vaccel());
            push("core.hv.share_retrieve_ns", share_cycle());
            sp.end(s);
        }
        "node_ops" => {
            let s = sp.begin("isolate.core.snapshot");
            let (freeze, thaw, bytes) = snapshot();
            push("core.snapshot.freeze_ms", freeze);
            push("core.snapshot.thaw_ms", thaw);
            push("core.snapshot.bytes", bytes);
            sp.end(s);
            let s = sp.begin("isolate.core.node");
            let (detach, attach) = detach_attach();
            push("core.node.detach_ms", detach);
            push("core.node.attach_ms", attach);
            sp.end(s);
        }
        other => panic!("unknown workload {other}"),
    }
    out
}

fn mapped_iommu(pages: u64) -> Iommu {
    let mut iommu = Iommu::new();
    for i in 0..pages {
        iommu
            .map(
                Iova::new(i * PAGE_2M),
                Hpa::new(i * PAGE_2M),
                PageSize::Huge,
                PageFlags::rw(),
            )
            .expect("fresh IOVA");
    }
    iommu
}

/// IOTLB hit (64 resident pages, random order) and miss + walk (2 048
/// pages visited in order: four pages per direct-mapped set, so every
/// lookup evicts the entry the next visit to that set needs).
fn iotlb() -> (f64, f64) {
    const N: u64 = 200_000;
    let mut iommu = mapped_iommu(2_048);
    let mut rng = Xoshiro256::seed_from(1);
    let hot: Vec<u64> = (0..N)
        .map(|_| rng.gen_range(0..64) * PAGE_2M + 64)
        .collect();
    let hit = ns_per_op(N, || {
        for &a in &hot {
            black_box(iommu.translate_tagged(Iova::new(a), false, 0, 0).is_ok());
        }
    });
    let miss = ns_per_op(N, || {
        for i in 0..N {
            let a = (i % 2_048) * PAGE_2M;
            black_box(iommu.translate_tagged(Iova::new(a), false, 0, 0).is_ok());
        }
    });
    (hit, miss)
}

fn pt_translate() -> f64 {
    const N: u64 = 200_000;
    let mut pt = PageTable::new();
    for i in 0..512u64 {
        pt.map(i * PAGE_2M, i * PAGE_2M, PageSize::Huge, PageFlags::rw())
            .expect("fresh VA");
    }
    let mut rng = Xoshiro256::seed_from(2);
    let addrs: Vec<u64> = (0..N).map(|_| rng.gen_range(0..512 * PAGE_2M)).collect();
    ns_per_op(N, || {
        for &a in &addrs {
            black_box(pt.translate(a));
        }
    })
}

/// Line reads and writes on materialized memory, and first-touch reads of
/// a lazily synthesized linked list (one line fill each).
fn host_memory() -> (f64, f64, f64) {
    const N: u64 = 100_000;
    const REGION: u64 = 4 << 20;
    let mut mem = HostMemory::new();
    let base = Hpa::new(0x4000_0000);
    mem.write(base, &vec![0xA5u8; REGION as usize]);
    let mut rng = Xoshiro256::seed_from(3);
    let lines: Vec<u64> = (0..N).map(|_| rng.gen_range(0..REGION / 64) * 64).collect();
    let read = ns_per_op(N, || {
        for &off in &lines {
            black_box(mem.read_line(Hpa::new(base.raw() + off)));
        }
    });
    let payload = [0x5Au8; 64];
    let write = ns_per_op(N, || {
        for &off in &lines {
            mem.write_line(Hpa::new(base.raw() + off), &payload);
        }
    });
    let nodes = (1u64 << 30) / 64;
    let lazy = Hpa::new(0x1_0000_0000);
    mem.add_lazy_region_lines(
        lazy,
        nodes * 64,
        linked_list_line_filler(Gva::new(lazy.raw()), lazy, nodes, 4),
    );
    let far: Vec<u64> = (0..N).map(|_| rng.gen_range(0..nodes) * 64).collect();
    let fill = ns_per_op(N, || {
        for &off in &far {
            black_box(mem.read_line(Hpa::new(lazy.raw() + off)));
        }
    });
    (read, write, fill)
}

/// One DMA read through the host side: admit, translate, service, and
/// pop the response when it is due.
fn hostside_roundtrip() -> f64 {
    const N: u64 = 50_000;
    let mut host = HostSide::new(SelectorPolicy::Auto);
    for i in 0..64u64 {
        host.iommu_mut()
            .map(
                Iova::new(i * PAGE_2M),
                Hpa::new(i * PAGE_2M),
                PageSize::Huge,
                PageFlags::rw(),
            )
            .expect("fresh IOVA");
    }
    let mut rng = Xoshiro256::seed_from(5);
    let addrs: Vec<u64> = (0..N)
        .map(|_| rng.gen_range(0..64 * PAGE_2M / 64) * 64)
        .collect();
    let mut now = 0u64;
    let mut tag = 0u32;
    ns_per_op(N, || {
        for &a in &addrs {
            while !host.can_accept(now) {
                now = host.next_accept(now);
            }
            host.submit(
                UpPacket::DmaRead {
                    iova: Iova::new(a),
                    src: AccelId(0),
                    tag: Tag(tag),
                },
                now,
            );
            tag = tag.wrapping_add(1);
            now = host.next_event(now).unwrap_or(now + 1);
            black_box(host.pop_response(now));
        }
    })
}

fn auditor_translate() -> f64 {
    const N: u64 = 200_000;
    let mut auditor = Auditor::new(AccelId(3), mmio::accel_mmio_base(3), mmio::ACCEL_PAGE);
    auditor.set_offset(3 << 36);
    auditor.set_window(3 << 36, 1 << 36);
    ns_per_op(N, || {
        for i in 0..N {
            let req = OutboundReq {
                gva: Gva::new((i % 4096) * 64),
                write: None,
                tag: Tag(i as u32),
            };
            black_box(auditor.translate(req).is_ok());
        }
    })
}

/// One arbitration cycle of the eight-leaf tree with every leaf offering
/// a packet whenever it has room.
fn mux_step_saturated() -> f64 {
    const N: u64 = 100_000;
    let mut tree = MuxTree::new(TreeConfig::default_eight());
    let mut now = 0u64;
    ns_per_op(N, || {
        for _ in 0..N {
            for leaf in 0..8 {
                if tree.can_accept(leaf) {
                    let pkt = UpPacket::DmaRead {
                        iova: Iova::new(now * 64),
                        src: AccelId(leaf as u8),
                        tag: Tag(now as u32),
                    };
                    tree.inject(leaf, pkt, now);
                }
            }
            tree.step(now);
            black_box(tree.pop_root(now));
            now += 1;
        }
    })
}

/// A monitored device with eight MemBench kernels over identity-mapped
/// IO space; `start` launches them on 8 MiB each.
fn membench_device(start: bool) -> FpgaDevice {
    let accels: Vec<Box<dyn Accelerator>> = (0..8)
        .map(|i| build_accelerator(AccelKind::Mb, i as u64 + 1))
        .collect();
    let mut dev = FpgaDevice::new_monitored(accels, 2, SelectorPolicy::Auto);
    for i in 0..64u64 {
        dev.host_mut()
            .iommu_mut()
            .map(
                Iova::new(i * PAGE_2M),
                Hpa::new(i * PAGE_2M),
                PageSize::Huge,
                PageFlags::rw(),
            )
            .expect("fresh IOVA");
    }
    dev.host_mut()
        .memory_mut()
        .add_scratch_region(Hpa::new(0), 64 * PAGE_2M);
    if start {
        for slot in 0..8u64 {
            let base = mmio::accel_mmio_base(slot as usize);
            dev.mmio_write(base + APP + MbKernel::REG_REGION, slot * (8 << 20));
            dev.mmio_write(base + APP + MbKernel::REG_BYTES, 8 << 20);
            dev.mmio_write(base + APP + MbKernel::REG_MODE, 2);
            dev.mmio_write(base + accel_reg::CTRL_CMD, accel_reg::CMD_START);
        }
        dev.run(20_000);
    }
    dev
}

/// One `FpgaDevice::step`, idle and with eight saturating kernels.
fn device_step() -> (f64, f64) {
    const N: u64 = 50_000;
    let mut idle = membench_device(false);
    let idle_ns = ns_per_op(N, || {
        for _ in 0..N {
            idle.step();
        }
    });
    let mut loaded = membench_device(true);
    let loaded_ns = ns_per_op(N, || {
        for _ in 0..N {
            loaded.step();
        }
    });
    (idle_ns, loaded_ns)
}

/// Work units (lines; nonces for the miner) of the kernel isolates.
const ISOLATE_LINES: u64 = 512;

/// A kernel stepped against a zero-latency port until its bounded job is
/// done: host nanoseconds per input line.
fn kernel_ns_per_line(kind: AccelKind) -> f64 {
    let spec = JobSpec::bounded(kind, ISOLATE_LINES, 21);
    let (src, dst) = (0x1000_0000u64, 0x2000_0000u64);
    let read = kernels::ideal_source(&spec, src);
    ns_per_op(ISOLATE_LINES, || {
        let mut acc = build_accelerator(kind, spec.seed);
        let mut port = AccelPort::new();
        for (reg, value) in spec.regs(src, dst) {
            acc.mmio_write(APP + reg, value);
        }
        if kind == AccelKind::Btc {
            // An impossible target: the miner grinds all its nonces.
            acc.mmio_write(APP + optimus_accel::btc::BtcKernel::REG_TARGET, 0);
        }
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        let mut now = 0u64;
        while !acc.is_done() && now < 10_000_000 {
            acc.step(now, &mut port);
            service_ideal(&mut port, now, read.as_ref());
            now += 1;
        }
        black_box(acc.is_done());
    })
}

/// The same arithmetic called straight from `optimus_algo`, on the same
/// input: the difference to the kernel isolate is the kernel's stepping,
/// pacing and port traffic.
fn algo_ns_per_line(kind: AccelKind) -> f64 {
    use optimus_algo::smith_waterman::{score_only, Scoring};
    use optimus_algo::{aes::Aes128, bitcoin, fir::FirFilter, reed_solomon::ReedSolomon};
    let spec = JobSpec::bounded(kind, ISOLATE_LINES, 21);
    let input = spec.input();
    ns_per_op(ISOLATE_LINES, || match kind {
        AccelKind::Aes => {
            let mut buf = input.clone();
            Aes128::new(&[7u8; 16]).encrypt_ecb(&mut buf);
            black_box(buf);
        }
        AccelKind::Sha => {
            black_box(optimus_algo::sha2::sha512(&input));
        }
        AccelKind::Md5 => {
            black_box(optimus_algo::md5::md5(&input));
        }
        AccelKind::Fir => {
            let samples: Vec<i16> = input
                .chunks_exact(2)
                .map(|c| i16::from_le_bytes([c[0], c[1]]))
                .collect();
            black_box(FirFilter::low_pass(31, 0.25).filter(&samples));
        }
        AccelKind::Rsd => {
            let codec = ReedSolomon::new(32);
            for cw in input.chunks_exact(256) {
                black_box(codec.decode(&cw[..255]).is_ok());
            }
        }
        AccelKind::Sw => {
            let (reference, queries) = input.split_at(128);
            for q in queries.chunks_exact(64) {
                black_box(score_only(q, reference, &Scoring::default()));
            }
        }
        AccelKind::Gau => {
            black_box(kernels::gaussian_rows(&input));
        }
        AccelKind::Btc => {
            let header = bitcoin::BlockHeader::example();
            black_box(bitcoin::mine_range(
                &header,
                [0; 4],
                0,
                ISOLATE_LINES as u32,
            ));
        }
        other => panic!("no algo isolate for {other:?}"),
    })
}

fn idle_hv() -> Optimus {
    Optimus::new(OptimusConfig::new(vec![AccelKind::Mb; 2]))
}

/// One trapped guest MMIO write of an application register (the trap
/// also advances an idle device by the trap's simulated cost).
fn trap() -> f64 {
    const N: u64 = 20_000;
    let mut hv = idle_hv();
    let vm = hv.create_vm("t");
    let va = hv.create_vaccel(vm, 0);
    ns_per_op(N, || {
        let mut g = hv.guest(va);
        for i in 0..N {
            g.mmio_write(APP + MbKernel::REG_SEED, i);
        }
    })
}

/// Registering one 2 MB page: hypercall, validation, pin, IOPT map.
fn pin_page() -> f64 {
    const PAGES: u64 = 256;
    ns_per_op(PAGES, || {
        let mut hv = idle_hv();
        let vm = hv.create_vm("t");
        let va = hv.create_vaccel(vm, 0);
        black_box(hv.guest(va).alloc_dma(PAGES * PAGE_2M));
    })
}

fn create_vaccel() -> f64 {
    const N: u64 = 512;
    ns_per_op(N, || {
        let mut hv = idle_hv();
        for i in 0..N {
            let vm = hv.create_vm("t");
            black_box(hv.create_vaccel(vm, (i % 2) as usize));
        }
    })
}

/// One full share life cycle between two co-resident tenants: share,
/// retrieve, relinquish, reclaim.
fn share_cycle() -> f64 {
    const N: u64 = 500;
    let mut hv = idle_hv();
    let (vm_a, vm_b) = (hv.create_vm("owner"), hv.create_vm("peer"));
    let (va_a, va_b) = (hv.create_vaccel(vm_a, 0), hv.create_vaccel(vm_b, 1));
    let span = hv.guest(va_a).alloc_dma(PAGE_2M);
    hv.guest(va_b).alloc_dma(PAGE_2M);
    ns_per_op(N, || {
        for _ in 0..N {
            let h = hv
                .guest(va_a)
                .mem_share(span, PAGE_2M, "peer", false)
                .expect("share");
            hv.guest(va_b).mem_retrieve(h).expect("retrieve");
            hv.guest(va_b).mem_relinquish(h).expect("relinquish");
            hv.guest(va_a).mem_reclaim(h).expect("reclaim");
        }
    })
}

/// A hypervisor with eight tenants of 64 pinned pages each, jobs running.
fn populated_hv() -> (Optimus, Vec<optimus::vaccel::VaccelId>) {
    let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Mb; 8]));
    let mut quiet = Spans::new(false);
    let mut vas = Vec::new();
    for slot in 0..8 {
        let vm = hv.create_vm(&format!("t{slot}"));
        let va = hv.create_vaccel(vm, slot);
        let mut g = hv.guest(va);
        let state = g.alloc_dma(PAGE_2M);
        g.set_state_buffer(state);
        let spec = JobSpec {
            kind: AccelKind::Mb,
            work: 0,
            working_set: 126 << 20,
            mb_mode: 0,
            seed: slot as u64,
        };
        kernels::launch(&mut g, &spec, PageSize::Huge, false, true, &mut quiet);
        vas.push(va);
    }
    hv.run(20_000);
    (hv, vas)
}

/// `freeze` and `thaw` of a populated hypervisor (milliseconds) and the
/// snapshot's wire size.
fn snapshot() -> (f64, f64, f64) {
    let mut freeze_ms = Vec::new();
    let mut thaw_ms = Vec::new();
    let mut bytes = 0.0;
    let (mut hv, _) = populated_hv();
    for _ in 0..REPS {
        let t = Instant::now();
        let (snap, device) = hv.freeze();
        freeze_ms.push(t.elapsed().as_secs_f64() * 1e3);
        bytes = snap.to_bytes().len() as f64;
        let t = Instant::now();
        hv = Optimus::thaw(&snap, device).expect("own snapshot thaws");
        thaw_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&freeze_ms), median(&thaw_ms), bytes)
}

/// `detach_tenant` from one hypervisor and `attach_tenant` to another.
fn detach_attach() -> (f64, f64) {
    let mut detach_ms = Vec::new();
    let mut attach_ms = Vec::new();
    let (mut src, vas) = populated_hv();
    let mut dst = Optimus::new(OptimusConfig::new(vec![AccelKind::Mb; 8]));
    for &va in vas.iter().take(REPS) {
        let t = Instant::now();
        let tenant = src.detach_tenant(va).expect("detach");
        detach_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(dst.attach_tenant(tenant).expect("attach"));
        attach_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&detach_ms), median(&attach_ms))
}
