//! Robustness and failure-injection tests: misbehaving accelerators and
//! guests, demand-profile validation, 4 KB-page configurations, and node
//! scheduling under live cross-device shares.

use optimus::hypervisor::{GuestCtx, Optimus, OptimusConfig};
use optimus::node::{NodeConfig, OptimusNode};
use optimus::scheduler::SchedPolicy;
use optimus::vaccel::{VaccelId, VaccelRun};
use optimus_accel::hash::reg as hash_reg;
use optimus_accel::registry::AccelKind;
use optimus_accel::hash::Md5Kernel;
use optimus_accel::linked_list::LlKernel;
use optimus_accel::sssp::SsspKernel;
use optimus_accel::stream::StreamShell;
use optimus_accel::{aes::AesKernel, btc::BtcKernel, grn::GrnKernel, membench::MbKernel};
use optimus_algo::bitcoin::BlockHeader;
use optimus_bench::jobs::{self, JobParams};
use optimus_fabric::accelerator::CtrlStatus;
use optimus_fabric::mmio::accel_reg;
use optimus_fabric::platform::DeviceId;
use optimus_mem::addr::{Gva, PAGE_2M};
use optimus_sim::time::{gbps, ms_to_cycles};
use optimus_workloads::streams::random_bytes;

const APP: u64 = accel_reg::APP_BASE;

#[test]
fn forced_reset_recovers_a_stuck_accelerator() {
    // MemBench in unbounded mode with an *unserviceable* region: its
    // requests fault at the IOMMU (never acked), so its port never drains
    // and a preemption can only complete by forced reset.
    let mut cfg = OptimusConfig::new(vec![AccelKind::Mb]);
    cfg.time_slice = ms_to_cycles(0.1);
    cfg.preempt_timeout = ms_to_cycles(0.2);
    let mut hv = Optimus::new(cfg);
    let vm = hv.create_vm("stuck");
    let va_bad = hv.create_vaccel(vm, 0);
    let va_good = hv.create_vaccel(vm, 0);
    {
        let mut g = hv.guest(va_bad);
        let region = g.alloc_dma(1 << 21);
        let state = g.alloc_dma(1 << 21);
        g.set_state_buffer(state);
        g.mmio_write(APP + MbKernel::REG_REGION, region.raw());
        // Lie about the region size: half the accesses land beyond the
        // registered page and fault, leaving the port permanently undrained.
        g.mmio_write(APP + MbKernel::REG_BYTES, 64 << 20);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    {
        let mut g = hv.guest(va_good);
        let region = g.alloc_dma(1 << 21);
        let state = g.alloc_dma(1 << 21);
        g.set_state_buffer(state);
        g.mmio_write(APP + MbKernel::REG_REGION, region.raw());
        g.mmio_write(APP + MbKernel::REG_BYTES, 1 << 21);
        g.mmio_write(APP + MbKernel::REG_OPS, 2000);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    // The stuck vaccel cannot cede; the hypervisor must reset it and the
    // well-behaved one must still finish.
    assert!(hv.run_until_done(va_good, 2_000_000_000), "good job starved");
    assert!(hv.stats().forced_resets > 0, "reset path never exercised");
    assert!(hv.device().host().faulted_dmas() > 0);
}

#[test]
fn measured_demand_matches_table1_profile() {
    // Single-job OPTIMUS bandwidth ≈ demand × 12.8 GB/s for the calibrated
    // streaming kernels (the column printed in table1_benchmarks).
    let window = 400_000u64;
    for kind in [
        AccelKind::Aes,
        AccelKind::Md5,
        AccelKind::Sha,
        AccelKind::Fir,
        AccelKind::Gau,
        AccelKind::Grs,
        AccelKind::Sbl,
    ] {
        let mut hv = Optimus::new(OptimusConfig::new(vec![kind; 8]));
        let vm = hv.create_vm("d");
        let va = hv.create_vaccel(vm, 0);
        let params = JobParams {
            window,
            ..JobParams::default()
        };
        let mut g = hv.guest(va);
        jobs::launch(&mut g, kind, &params);
        hv.run(150_000);
        hv.device_mut().open_windows();
        hv.run(window);
        hv.device_mut().close_windows();
        let measured = gbps(hv.device().port(0).window_bytes(), window) / 12.8;
        let expect = kind.meta().demand;
        assert!(
            (measured - expect).abs() < 0.04,
            "{}: measured demand {measured:.3} vs profile {expect:.3}",
            kind.meta().name
        );
    }
}

#[test]
fn btc_through_hypervisor_finds_software_nonce() {
    let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Btc]));
    let vm = hv.create_vm("miner");
    let va = hv.create_vaccel(vm, 0);
    let header = BlockHeader::example();
    let target = 0x0FFF_FFFFu32;
    {
        let mut g = hv.guest(va);
        let src = g.alloc_dma(4096);
        g.write_mem(src, &header.to_bytes());
        g.mmio_write(APP + BtcKernel::REG_SRC, src.raw());
        g.mmio_write(APP + BtcKernel::REG_TARGET, target as u64);
        g.mmio_write(APP + BtcKernel::REG_COUNT, 20_000);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    assert!(hv.run_until_done(va, 2_000_000_000));
    let found = hv.guest(va).mmio_read(APP + BtcKernel::REG_FOUND);
    let expect = optimus_algo::bitcoin::mine_range(&header, target.to_be_bytes(), 0, 20_000);
    assert_eq!(found, expect.unwrap() as u64);
}

#[test]
fn grn_through_hypervisor_produces_unit_normals() {
    let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Grn]));
    let vm = hv.create_vm("gauss");
    let va = hv.create_vaccel(vm, 0);
    let lines = 4000u64;
    let dst;
    {
        let mut g = hv.guest(va);
        dst = g.alloc_dma(lines * 64);
        g.mmio_write(APP + GrnKernel::REG_DST, dst.raw());
        g.mmio_write(APP + GrnKernel::REG_LINES, lines);
        g.mmio_write(APP + GrnKernel::REG_SEED, 2024);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    assert!(hv.run_until_done(va, 2_000_000_000));
    let mut raw = vec![0u8; (lines * 64) as usize];
    hv.guest(va).read_mem(dst, &mut raw);
    let samples: Vec<f64> = raw
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()) as f64 / 65536.0)
        .collect();
    let (mean, var) = optimus_algo::gaussian::moments(&samples);
    assert!(mean.abs() < 0.02, "mean {mean}");
    assert!((var - 1.0).abs() < 0.05, "variance {var}");
}

#[test]
fn four_kilobyte_pages_work_but_thrash_sooner() {
    // Functional equivalence of 4 KB IOPT registration, plus the IOTLB
    // reach difference the paper measures in Fig. 5/6.
    use optimus::hypervisor::Backing;
    let run = |small_pages: bool| -> (u64, f64) {
        let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Mb; 8]));
        let vm = hv.create_vm("pg");
        let va = hv.create_vaccel(vm, 0);
        let ws = 16u64 << 20; // 16 MB: inside 2M reach, far past 4K reach
        {
            let mut g = hv.guest(va);
            let region = if small_pages {
                g.alloc_dma_4k(ws, Backing::Scratch)
            } else {
                g.alloc_dma_with(ws, Backing::Scratch)
            };
            g.mmio_write(APP + MbKernel::REG_REGION, region.raw());
            g.mmio_write(APP + MbKernel::REG_BYTES, ws);
            g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        }
        hv.run(100_000);
        hv.device_mut().open_windows();
        hv.run(300_000);
        hv.device_mut().close_windows();
        let bw = gbps(hv.device().port(0).window_bytes(), 300_000);
        let (_, _, misses, _) = hv.device().host().iommu().tlb().stats();
        (misses, bw)
    };
    let (misses_2m, bw_2m) = run(false);
    let (misses_4k, bw_4k) = run(true);
    assert!(misses_4k > misses_2m * 10, "4K must miss far more: {misses_4k} vs {misses_2m}");
    assert!(bw_2m > bw_4k * 2.0, "2M pages must be much faster: {bw_2m} vs {bw_4k}");
}

#[test]
fn priority_scheduler_starves_low_priority_until_high_completes() {
    let mut cfg = OptimusConfig::new(vec![AccelKind::Mb]);
    cfg.time_slice = ms_to_cycles(0.1);
    cfg.sched_policy = SchedPolicy::Priority;
    let mut hv = Optimus::new(cfg);
    let vm = hv.create_vm("prio");
    let high = hv.create_vaccel_with(vm, 0, 1, 9);
    let low = hv.create_vaccel_with(vm, 0, 1, 1);
    for (va, ops, seed) in [(high, 400_000u64, 1u64), (low, 1_000, 2)] {
        let mut g = hv.guest(va);
        let region = g.alloc_dma(1 << 21);
        let state = g.alloc_dma(1 << 21);
        g.set_state_buffer(state);
        g.mmio_write(APP + MbKernel::REG_REGION, region.raw());
        g.mmio_write(APP + MbKernel::REG_BYTES, 1 << 21);
        g.mmio_write(APP + MbKernel::REG_OPS, ops);
        g.mmio_write(APP + MbKernel::REG_SEED, seed);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    // While the high-priority job runs, the low one must make no progress.
    hv.run(ms_to_cycles(0.5));
    assert!(!hv.vaccel_completed(low));
    assert!(hv.run_until_done(high, 2_000_000_000));
    // Once high completes, low runs and finishes.
    assert!(hv.run_until_done(low, 2_000_000_000));
}

#[test]
fn guest_dma_pointers_are_gvas_not_hpas() {
    // A regression guard on the address-space plumbing: the HPA backing a
    // guest buffer differs from its GVA, so any layer confusing the two
    // would fault or corrupt.
    let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Md5]));
    let vm = hv.create_vm("addr");
    let va = hv.create_vaccel(vm, 0);
    let mut g = hv.guest(va);
    let gva = g.alloc_dma(1 << 21);
    let hpa = g.gva_to_hpa(gva).unwrap();
    assert_ne!(gva.raw(), hpa.raw());
    assert_ne!(gva, Gva::new(0));
}


#[test]
fn tree_placement_shapes_bandwidth_shares() {
    // §4.1: "if cloud providers seek to provide greater bandwidth to some
    // accelerator A, the multiplexer tree can be configured to place fewer
    // accelerators under the multiplexers on A's path." In the binary tree
    // slots 0 and 1 share a level-1 node while slot 2's node neighbour is
    // idle — so with three saturating MemBench jobs at slots {0, 1, 2},
    // slot 2 receives roughly twice the bandwidth of slots 0 and 1.
    let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Mb; 8]));
    let vm = hv.create_vm("skew");
    for slot in 0..3 {
        let va = hv.create_vaccel(vm, slot);
        let mut g = hv.guest(va);
        let region = g.alloc_dma(1 << 21);
        g.mmio_write(APP + MbKernel::REG_REGION, region.raw());
        g.mmio_write(APP + MbKernel::REG_BYTES, 1 << 21);
        g.mmio_write(APP + MbKernel::REG_SEED, slot as u64 + 1);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    hv.run(100_000);
    hv.device_mut().open_windows();
    hv.run(300_000);
    hv.device_mut().close_windows();
    let bw: Vec<f64> = (0..3)
        .map(|s| gbps(hv.device().port(s).window_bytes(), 300_000))
        .collect();
    assert!((bw[0] - bw[1]).abs() / bw[0] < 0.05, "siblings equal: {bw:?}");
    let ratio = bw[2] / bw[0];
    assert!(
        (1.7..2.3).contains(&ratio),
        "lone-node accelerator should get ~2x: {bw:?}"
    );
}

/// One AES tenant with its own VM, source, destination and state buffer.
struct AesTenant {
    va: VaccelId,
    src: Gva,
    dst: Gva,
    state: Gva,
    key0: u64,
    plain: Vec<u8>,
}

impl AesTenant {
    /// A tenant on slot 0 with its job submitted.
    fn new(hv: &mut Optimus, name: &str, seed: u64) -> Self {
        let vm = hv.create_vm(name);
        let va = hv.create_vaccel(vm, 0);
        let plain = random_bytes(128 << 10, seed);
        let mut g = hv.guest(va);
        let src = g.alloc_dma(1 << 17);
        let dst = g.alloc_dma(1 << 17);
        let state = g.alloc_dma(PAGE_2M);
        g.write_mem(src, &plain);
        g.set_state_buffer(state);
        let t = Self { va, src, dst, state, key0: seed, plain };
        t.submit(hv);
        t
    }

    /// Programs the job's registers and starts it.
    fn submit(&self, hv: &mut Optimus) {
        let mut g = hv.guest(self.va);
        g.mmio_write(APP + AesKernel::REG_SRC, self.src.raw());
        g.mmio_write(APP + AesKernel::REG_DST, self.dst.raw());
        g.mmio_write(APP + AesKernel::REG_LINES, self.plain.len() as u64 / 64);
        g.mmio_write(APP + AesKernel::REG_KEY0, self.key0);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }

    /// Whether the destination holds exactly the software ciphertext.
    fn output_is_exact(&self, hv: &mut Optimus) -> bool {
        let mut out = vec![0u8; self.plain.len()];
        hv.guest(self.va).read_mem(self.dst, &mut out);
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&self.key0.to_le_bytes());
        let mut expect = self.plain.clone();
        optimus_algo::aes::Aes128::new(&key).encrypt_ecb(&mut expect);
        out == expect
    }
}

/// §4.2 puts the save buffer in guest memory, so a tenant may rewrite its
/// saved state (or repoint `CTRL_STATE_ADDR`) while its job is off the
/// hardware. Each way of doing so must end as a failed restore of that
/// tenant's job — never a panic or an allocation sized by what the guest
/// wrote — while the tenant time-sharing its slot finishes bit-exactly and
/// the at-fault tenant can submit again.
#[test]
fn corrupted_saved_state_fails_the_restore_not_the_simulator() {
    type Corrupt = fn(&mut Optimus, &AesTenant);
    let corruptions: [(&str, Corrupt); 4] = [
        ("buffer repointed out of the window", |hv, t| {
            hv.guest(t.va).set_state_buffer(Gva::new(t.state.raw() + (1 << 40)))
        }),
        ("header whose frame overflows", |hv, t| {
            hv.guest(t.va).write_mem(t.state, &u64::MAX.to_le_bytes())
        }),
        ("header naming a terabyte", |hv, t| {
            hv.guest(t.va).write_mem(t.state, &(1u64 << 40).to_le_bytes())
        }),
        ("body too short for its kernel", |hv, t| {
            hv.guest(t.va).write_mem(t.state, &8u64.to_le_bytes())
        }),
    ];
    for (what, corrupt) in corruptions {
        let mut cfg = OptimusConfig::new(vec![AccelKind::Aes]);
        cfg.time_slice = 8_000;
        cfg.preempt_timeout = 20_000;
        let mut hv = Optimus::new(cfg);
        let bad = AesTenant::new(&mut hv, "bad", 1);
        let good = AesTenant::new(&mut hv, "good", 2);
        while hv.vaccel_run(bad.va) != Some(VaccelRun::SavedInMemory) {
            hv.run(1_000);
        }
        corrupt(&mut hv, &bad);
        // The next install resumes from the corrupted state; once it has
        // played out, the guest points its buffer back at real memory.
        while hv.vaccel_run(bad.va) != Some(VaccelRun::Scheduled) {
            hv.run(1_000);
        }
        hv.run(2_000);
        hv.guest(bad.va).set_state_buffer(bad.state);
        // A polling guest resubmits whenever its slot reports the job gone.
        let (mut resubmits, deadline) = (0, hv.now() + 20_000_000);
        loop {
            hv.run(1_000);
            match CtrlStatus::from_u64(hv.guest(bad.va).mmio_read(accel_reg::CTRL_STATUS)) {
                CtrlStatus::Done => break,
                CtrlStatus::Idle => {
                    bad.submit(&mut hv);
                    resubmits += 1;
                }
                _ => {}
            }
            assert!(hv.now() < deadline, "{what}: the at-fault job never finished");
        }
        assert!(hv.run_until_done(good.va, 20_000_000), "{what}: co-tenant starved");
        assert!(good.output_is_exact(&mut hv), "{what}: co-tenant output corrupted");
        assert!(bad.output_is_exact(&mut hv), "{what}: resubmitted job output wrong");
        let forced = hv.stats().forced_resets;
        assert!(resubmits + forced > 0, "{what}: the corrupted restore never failed");
    }
}

/// A slice deadline that a span ends exactly on must still fire while a
/// live cross-device share keeps the node in horizon-chunked stepping.
/// The horizon of a due-but-unfired deadline used to be `now`, sizing
/// 1-cycle chunks that end before `Optimus::run`'s boundary check: the
/// slot never rotated again and the node crawled at one cycle per chunk.
#[test]
fn due_slice_deadline_fires_under_a_live_cross_device_share() {
    let mut cfg = NodeConfig::new(vec![AccelKind::Md5], 2);
    cfg.time_slice = 20_000;
    let mut node = OptimusNode::new(cfg).expect("node boots");
    let owner = node.create_tenant_on(DeviceId(1), "owner");
    let tenants = [
        node.create_tenant_on(DeviceId(0), "peer"),
        node.create_tenant_on(DeviceId(0), "other"),
    ];
    let span = node.guest(owner).alloc_dma(PAGE_2M);
    let handle = node.guest(owner).mem_share(span, PAGE_2M, "peer", false).expect("share");
    node.retrieve_shared(handle, tenants[0]).expect("cross-device retrieve");
    for h in tenants {
        let mut g = node.guest(h);
        let state = g.alloc_dma(PAGE_2M);
        g.set_state_buffer(state);
        let (src, dst) = (g.alloc_dma(8 << 20), g.alloc_dma(4096));
        g.mmio_write(APP + hash_reg::SRC, src.raw());
        g.mmio_write(APP + hash_reg::DST, dst.raw());
        g.mmio_write(APP + hash_reg::LINES, (8 << 20) / 64);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    node.run(1_000);
    // End a span exactly on device 0's slice deadline.
    let hv = node.device(DeviceId(0));
    let deadline = hv.next_sync_horizon().expect("a tenant holds the slot");
    let span = deadline - hv.now();
    node.run(span);
    let before = node.device(DeviceId(0)).stats().context_switches;
    node.run(200_000);
    let switches = node.device(DeviceId(0)).stats().context_switches - before;
    assert!(switches >= 9, "slot stopped rotating: {switches} slice boundaries in 200k cycles");
}

/// A GVA one terabyte past a fresh page of `g`'s: outside its auditor
/// window, so every access there is master-aborted.
fn out_of_window(g: &mut GuestCtx<'_>) -> u64 {
    g.alloc_dma(4096).raw() + (1 << 40)
}

/// A CSR graph in `CsrGraph::to_dram_layout` form, malformed at will.
fn csr(vertices: u32, offsets: &[u32], targets: &[u32], weights: &[u32]) -> Vec<u8> {
    let words = [vertices, targets.len() as u32].into_iter().chain(offsets.iter().copied());
    let words = words.chain(targets.iter().copied()).chain(weights.iter().copied());
    words.flat_map(u32::to_le_bytes).collect()
}

/// Programs an SSSP job from source 0 over `graph` (or over a pointer out
/// of the window) with a zeroed distance array.
fn program_sssp(g: &mut GuestCtx<'_>, graph: Option<Vec<u8>>, onchip: bool) {
    let at = match graph {
        Some(blob) => {
            let gva = g.alloc_dma(4096);
            g.write_mem(gva, &blob);
            gva.raw()
        }
        None => out_of_window(g),
    };
    let dist = g.alloc_dma(4096);
    g.mmio_write(APP + SsspKernel::REG_GRAPH, at);
    g.mmio_write(APP + SsspKernel::REG_DIST, dist.raw());
    g.mmio_write(APP + SsspKernel::REG_ONCHIP, onchip as u64);
}

/// The last line of the address space, once `g` holds memory (which
/// anchors its window): the line after it, GVA 0, is out of the window too.
fn top_line(g: &mut GuestCtx<'_>) -> u64 {
    let _ = g.alloc_dma(4096);
    0u64.wrapping_sub(64)
}

/// Programs a 64-line stream job from `src` into `dst`; a fresh buffer
/// stands in for either one left `None`.
fn program_stream(g: &mut GuestCtx<'_>, src: Option<u64>, dst: Option<u64>) {
    let mut buffer = |at: Option<u64>| at.unwrap_or_else(|| g.alloc_dma(64 * 64).raw());
    let (src, dst) = (buffer(src), buffer(dst));
    g.mmio_write(APP + StreamShell::REG_SRC, src);
    g.mmio_write(APP + StreamShell::REG_DST, dst);
    g.mmio_write(APP + StreamShell::REG_LINES, 64);
}

/// One MMIO write that points a kernel outside its window, or at a graph
/// that does not hang together, must end that tenant's job as `Done` — not
/// panic the simulator, allocate by a size read from guest memory, or wait
/// forever for a line that was master-aborted — while the AES tenant on the
/// device's other slot finishes bit-exactly. Aborted reads show up in
/// `HvStats.discarded_dma`. A pointer at the last line of the address
/// space steps to GVA 0 for its next line instead of overflowing.
#[test]
fn wild_pointers_and_malformed_graphs_end_the_job_not_the_simulator() {
    type Program = fn(&mut GuestCtx<'_>);
    use AccelKind::{Aes, Fir, Gau, Grs, Md5, Rsd, Sbl, Sha, Sw};
    let streams = [Aes, Md5, Sha, Fir, Rsd, Sw, Gau, Sbl, Grs].into_iter().flat_map(|kind| {
        let wild: Program = |g| {
            let src = out_of_window(g);
            program_stream(g, Some(src), None)
        };
        [
            ("stream source out of the window", kind, true, wild),
            ("stream source at the top line", kind, true, |g| {
                let src = top_line(g);
                program_stream(g, Some(src), None)
            }),
        ]
    });
    let top_dst: Program = |g| {
        let dst = top_line(g);
        program_stream(g, None, Some(dst))
    };
    let writers = [Aes, Fir, Rsd, Gau, Sbl, Grs]
        .map(|kind| ("stream destination at the top line", kind, true, top_dst));
    let vectors: [(&str, AccelKind, bool, Program); 11] = [
        ("LinkedList start node out of the window", AccelKind::Ll, true, |g| {
            let start = out_of_window(g);
            g.mmio_write(APP + LlKernel::REG_START, start);
            g.mmio_write(APP + LlKernel::REG_STEPS, 100);
        }),
        ("BTC header out of the window", AccelKind::Btc, true, |g| {
            let src = out_of_window(g);
            g.mmio_write(APP + BtcKernel::REG_SRC, src);
            g.mmio_write(APP + BtcKernel::REG_COUNT, 1_000);
        }),
        ("BTC header at the top line", AccelKind::Btc, true, |g| {
            let src = top_line(g);
            g.mmio_write(APP + BtcKernel::REG_SRC, src);
            g.mmio_write(APP + BtcKernel::REG_COUNT, 1_000);
        }),
        ("GRN destination at the top line", AccelKind::Grn, true, |g| {
            let dst = top_line(g);
            g.mmio_write(APP + GrnKernel::REG_DST, dst);
            g.mmio_write(APP + GrnKernel::REG_LINES, 64);
        }),
        ("SSSP graph out of the window", AccelKind::Sssp, true, |g| program_sssp(g, None, false)),
        ("SSSP graph out of the window, on chip", AccelKind::Sssp, true, |g| {
            program_sssp(g, None, true)
        }),
        ("SSSP distance array out of the window, on chip", AccelKind::Sssp, true, |g| {
            program_sssp(g, Some(csr(2, &[0, 1, 1], &[1], &[1])), true);
            let dist = out_of_window(g);
            g.mmio_write(APP + SsspKernel::REG_DIST, dist);
        }),
        ("SSSP vertex count past on-chip RAM", AccelKind::Sssp, false, |g| {
            program_sssp(g, Some(csr(u32::MAX, &[], &[], &[])), true)
        }),
        ("SSSP edge target past the distance array", AccelKind::Sssp, false, |g| {
            program_sssp(g, Some(csr(2, &[0, 1, 1], &[5], &[1])), true)
        }),
        ("SSSP edge range ending before it starts", AccelKind::Sssp, false, |g| {
            program_sssp(g, Some(csr(2, &[1, 0, 1], &[1], &[1])), false)
        }),
        ("SSSP source past the vertex count", AccelKind::Sssp, false, |g| {
            // Vertex 3's row offsets would be the words after the array.
            program_sssp(g, Some(csr(2, &[0, 1, 1], &[0], &[1])), true);
            g.mmio_write(APP + SsspKernel::REG_SOURCE, 3);
        }),
    ];
    for (what, kind, aborts, program) in vectors.into_iter().chain(streams).chain(writers) {
        let what = format!("{kind:?}: {what}");
        let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Aes, kind]));
        let good = AesTenant::new(&mut hv, "good", 3);
        let vm = hv.create_vm("bad");
        let bad = hv.create_vaccel(vm, 1);
        {
            let mut g = hv.guest(bad);
            program(&mut g);
            g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        }
        assert!(hv.run_until_done(bad, 2_000_000), "{what}: the at-fault job never ended");
        assert!(hv.run_until_done(good.va, 20_000_000), "{what}: co-tenant starved");
        assert!(good.output_is_exact(&mut hv), "{what}: co-tenant output corrupted");
        assert_eq!(hv.stats().discarded_dma > 0, aborts, "{what}: discarded DMA");
    }
}

/// MD5's `REG_STATE_PAD` sizes the zero padding every save writes, and the
/// save buffer is built on the host: a guest writing 2^40 used to abort the
/// process at the first preemption ("memory allocation of 1099511627776
/// bytes failed"). The register clamps to on-chip RAM instead, and the
/// tenant time-sharing the slot finishes bit-exactly.
#[test]
fn a_terabyte_md5_state_pad_is_clamped_to_on_chip_ram() {
    let mut cfg = OptimusConfig::new(vec![AccelKind::Md5]);
    cfg.time_slice = 8_000;
    let mut hv = Optimus::new(cfg);
    let data = random_bytes(1 << 20, 5);
    let [bad, good] = ["bad", "good"].map(|name| {
        let vm = hv.create_vm(name);
        let va = hv.create_vaccel(vm, 0);
        let mut g = hv.guest(va);
        let (src, dst, state) = (g.alloc_dma(1 << 20), g.alloc_dma(4096), g.alloc_dma(16 << 20));
        g.write_mem(src, &data);
        g.set_state_buffer(state);
        g.mmio_write(APP + hash_reg::SRC, src.raw());
        g.mmio_write(APP + hash_reg::DST, dst.raw());
        g.mmio_write(APP + hash_reg::LINES, data.len() as u64 / 64);
        va
    });
    hv.guest(bad).mmio_write(APP + Md5Kernel::REG_STATE_PAD, 1 << 40);
    for va in [bad, good] {
        hv.guest(va).mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    assert!(hv.run_until_done(good, 200_000_000), "co-tenant starved");
    let stats = hv.stats();
    assert!(stats.preemptions > 0, "no save ever happened: {stats:?}");
    let want = optimus_algo::md5::md5(&data);
    let digest: Vec<u8> = (0..2)
        .flat_map(|i| hv.guest(good).mmio_read(APP + hash_reg::DIGEST0 + 8 * i).to_le_bytes())
        .collect();
    assert_eq!(digest, want, "co-tenant digest wrong");
}
