//! Robustness and failure-injection tests: misbehaving accelerators and
//! guests, demand-profile validation, 4 KB-page configurations, and node
//! scheduling under live cross-device shares. Every job is a catalogue
//! program, edited where the test needs a misbehaving one.

use optimus::hypervisor::{HvStats, Optimus, OptimusConfig};
use optimus::node::{NodeConfig, OptimusNode};
use optimus::scheduler::SchedPolicy;
use optimus::vaccel::{VaccelId, VaccelRun};
use optimus_accel::hash::Md5Kernel;
use optimus_accel::hc_dma::HcDmaKernel;
use optimus_accel::registry::AccelKind;
use optimus_accel::stream::StreamShell;
use optimus_accel::{btc::BtcKernel, grn::GrnKernel, linked_list::LlKernel, membench::MbKernel, sssp::SsspKernel};
use optimus_bench::catalog::{self, Fill, Placed, Program, Spec, Value};
use optimus_fabric::accelerator::CtrlStatus;
use optimus_fabric::mmio::accel_reg;
use optimus_fabric::platform::DeviceId;
use optimus_mem::addr::{Gva, PageSize, PAGE_2M};
use optimus_sim::time::{gbps, ms_to_cycles, Cycle};

/// A new VM with a vaccel on `slot`, running `job`.
fn launch(hv: &mut Optimus, slot: usize, name: &str, job: &Program) -> (VaccelId, Placed) {
    let vm = hv.create_vm(name);
    let va = hv.create_vaccel(vm, slot);
    (va, catalog::apply(job, &mut hv.guest(va)))
}

/// Whether a finished job left exactly what its oracle says.
fn matches_oracle(hv: &mut Optimus, va: VaccelId, job: &Program, placed: &Placed) -> bool {
    let oracle = catalog::oracle(job).expect("a bounded job has an oracle");
    catalog::check(&oracle, placed, &mut hv.guest(va)).is_ok()
}

#[test]
fn forced_reset_recovers_a_stuck_accelerator() {
    // Saving the padded MD5 job's state takes far longer than
    // `preempt_timeout`: every preemption of it overruns, and only a forced
    // reset frees the slot for the co-tenant.
    let stats = padded_md5_beside_a_bounded_one(Some(ms_to_cycles(0.05)));
    assert!(stats.forced_resets > 0, "reset path never exercised");
    assert!(stats.alerts_preempt_overrun > 0, "no preemption overran: {stats:?}");
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
        catalog::apply(&catalog::program(kind, &Spec::window(window)), &mut hv.guest(va));
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
    // About one nonce in sixteen meets the bounded job's target.
    let job = catalog::program(AccelKind::Btc, &Spec::bounded(20_000, 0));
    let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Btc]));
    let (va, placed) = launch(&mut hv, 0, "miner", &job);
    assert!(hv.run_until_done(va, 2_000_000_000));
    let found = hv.guest(va).mmio_read(accel_reg::APP_BASE + BtcKernel::REG_FOUND);
    assert_ne!(found, u64::MAX, "no nonce found");
    assert!(matches_oracle(&mut hv, va, &job, &placed));
}

#[test]
fn grn_through_hypervisor_produces_unit_normals() {
    let job = catalog::program(AccelKind::Grn, &Spec::bounded(4000, 2024));
    let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Grn]));
    let (va, placed) = launch(&mut hv, 0, "gauss", &job);
    assert!(hv.run_until_done(va, 2_000_000_000));
    assert!(matches_oracle(&mut hv, va, &job, &placed));
    let mut raw = vec![0u8; 4000 * 64];
    hv.guest(va).read_mem(placed.0[0], &mut raw);
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
    let run = |page: PageSize| -> (u64, f64) {
        let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Mb; 8]));
        // 16 MB: inside 2M reach, far past 4K reach.
        let spec = Spec { working_set: 16 << 20, page, ..Spec::default() };
        launch(&mut hv, 0, "pg", &catalog::program(AccelKind::Mb, &spec));
        hv.run(100_000);
        hv.device_mut().open_windows();
        hv.run(300_000);
        hv.device_mut().close_windows();
        let bw = gbps(hv.device().port(0).window_bytes(), 300_000);
        let (_, _, misses, _) = hv.device().host().iommu().tlb().stats();
        (misses, bw)
    };
    let (misses_2m, bw_2m) = run(PageSize::Huge);
    let (misses_4k, bw_4k) = run(PageSize::Small);
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
        let mut job = catalog::program(AccelKind::Mb, &Spec { working_set: 1 << 21, ..Spec::bounded(ops, seed) });
        job.add_state(1 << 21);
        catalog::apply(&job, &mut hv.guest(va));
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
        let spec = Spec { working_set: 1 << 21, seed: slot as u64 + 1, ..Spec::default() };
        catalog::apply(&catalog::program(AccelKind::Mb, &spec), &mut hv.guest(va));
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

/// One AES tenant on slot 0 with its own VM: a bounded catalogue job
/// with a state buffer.
struct AesTenant {
    va: VaccelId,
    job: Program,
    placed: Placed,
}

impl AesTenant {
    /// A tenant on slot 0 with its job submitted.
    fn new(hv: &mut Optimus, name: &str, seed: u64) -> Self {
        let mut job = catalog::program(AccelKind::Aes, &Spec::bounded(2048, seed));
        job.add_state(PAGE_2M);
        let (va, placed) = launch(hv, 0, name, &job);
        Self { va, job, placed }
    }

    /// The state buffer.
    fn state(&self) -> Gva {
        self.placed.0[self.job.state.expect("a state buffer")]
    }

    /// Programs the job's registers again and starts it.
    fn submit(&self, hv: &mut Optimus) {
        let mut g = hv.guest(self.va);
        catalog::write_regs(&self.job, &self.placed, &mut g);
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }

    /// Whether the destination holds exactly the software ciphertext.
    fn output_is_exact(&self, hv: &mut Optimus) -> bool {
        matches_oracle(hv, self.va, &self.job, &self.placed)
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
            hv.guest(t.va).set_state_buffer(Gva::new(t.state().raw() + (1 << 40)))
        }),
        ("header whose frame overflows", |hv, t| {
            hv.guest(t.va).write_mem(t.state(), &u64::MAX.to_le_bytes())
        }),
        ("header naming a terabyte", |hv, t| {
            hv.guest(t.va).write_mem(t.state(), &(1u64 << 40).to_le_bytes())
        }),
        ("body too short for its kernel", |hv, t| {
            hv.guest(t.va).write_mem(t.state(), &8u64.to_le_bytes())
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
        hv.guest(bad.va).set_state_buffer(bad.state());
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
        let mut job = catalog::program(AccelKind::Md5, &Spec::default());
        job.add_state(PAGE_2M);
        catalog::apply(&job, &mut node.guest(h));
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

/// One terabyte past a buffer: outside its tenant's auditor window.
const OUT: u64 = 1 << 40;
/// 16 GB past a buffer: inside its tenant's 64 GB window, but past every
/// page the tenant pinned.
const UNMAPPED: u64 = 16 << 30;
/// The last line of the address space: the line after it, GVA 0, is out
/// of the window too.
const TOP: u64 = 0u64.wrapping_sub(64);

/// How a malformed job must end, judged by where its DMAs were aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ends {
    /// At the auditor window (`HvStats.discarded_dma`).
    Discarded,
    /// At the IOMMU (`faulted_dmas`).
    Faulted,
    /// Nowhere: the kernel refused the malformed input itself.
    Clean,
}

/// A CSR graph in `CsrGraph::to_dram_layout` form, malformed at will.
fn csr(vertices: u32, offsets: &[u32], targets: &[u32], weights: &[u32]) -> Fill {
    let words = [vertices, targets.len() as u32].into_iter().chain(offsets.iter().copied());
    let words = words.chain(targets.iter().copied()).chain(weights.iter().copied());
    Fill::Bytes(words.flat_map(u32::to_le_bytes).collect())
}

/// One edit that points a kernel outside its window, at pages it never
/// pinned, or at a graph that does not hang together, must end that
/// tenant's job as `Done` — not panic the simulator, allocate by a size
/// read from guest memory, or wait forever for a line that was
/// master-aborted — while the AES tenant on the device's other slot
/// finishes bit-exactly. A pointer at the last line of the address space
/// steps to GVA 0 for its next line instead of overflowing. Each row is a
/// catalogue job with one edit.
#[test]
fn wild_pointers_and_malformed_graphs_end_the_job_not_the_simulator() {
    type Edit = fn(&mut Program);
    use AccelKind::{Aes, Fir, Gau, Grs, Md5, Rsd, Sbl, Sha, Sw};
    use Ends::{Clean, Discarded, Faulted};
    const SRC: u64 = StreamShell::REG_SRC;
    let streams = [Aes, Md5, Sha, Fir, Rsd, Sw, Gau, Sbl, Grs].into_iter().flat_map(|kind| {
        [
            ("stream source out of the window", kind, Discarded, (|p| p.set(SRC, Value::At(0, OUT))) as Edit),
            ("stream source at the top line", kind, Discarded, |p| p.set(SRC, TOP)),
            ("stream source in the window, unmapped", kind, Faulted, |p| p.set(SRC, Value::At(0, UNMAPPED))),
        ]
    });
    let writers = [Aes, Fir, Rsd, Gau, Sbl, Grs]
        .map(|kind| ("stream destination at the top line", kind, Discarded, (|p| p.set(StreamShell::REG_DST, TOP)) as Edit));
    let vectors: [(&str, AccelKind, Ends, Edit); 19] = [
        ("descriptor out of the window", AccelKind::HcDma, Discarded, |p| {
            p.set(HcDmaKernel::REG_DESC, Value::At(1, OUT))
        }),
        ("run at the top line", AccelKind::HcDma, Discarded, |p| {
            p.buffers[1].fill = Fill::Words(vec![Value::Imm(TOP), Value::Imm(4)])
        }),
        ("a 2^40-line run after a good one", AccelKind::HcDma, Discarded, |p| {
            let runs = [Value::At(0, 0), Value::Imm(4), Value::At(0, OUT), Value::Imm(1 << 40)];
            p.buffers[1].fill = Fill::Words(runs.to_vec())
        }),
        ("a 2^40-line run in the window after a good one", AccelKind::HcDma, Faulted, |p| {
            let runs = [Value::At(0, 0), Value::Imm(4), Value::At(0, UNMAPPED), Value::Imm(1 << 40)];
            p.buffers[1].fill = Fill::Words(runs.to_vec())
        }),
        ("LinkedList start node out of the window", AccelKind::Ll, Discarded, |p| {
            p.set(LlKernel::REG_START, Value::At(0, OUT))
        }),
        ("LinkedList start node in the window, unmapped", AccelKind::Ll, Faulted, |p| {
            p.set(LlKernel::REG_START, Value::At(0, UNMAPPED))
        }),
        ("BTC header out of the window", AccelKind::Btc, Discarded, |p| {
            p.set(BtcKernel::REG_SRC, Value::At(0, OUT))
        }),
        ("BTC header at the top line", AccelKind::Btc, Discarded, |p| p.set(BtcKernel::REG_SRC, TOP)),
        ("BTC header in the window, unmapped", AccelKind::Btc, Faulted, |p| {
            p.set(BtcKernel::REG_SRC, Value::At(0, UNMAPPED))
        }),
        ("GRN destination at the top line", AccelKind::Grn, Discarded, |p| p.set(GrnKernel::REG_DST, TOP)),
        ("GRN destination in the window, unmapped", AccelKind::Grn, Faulted, |p| {
            p.set(GrnKernel::REG_DST, Value::At(0, UNMAPPED))
        }),
        ("MemBench region in the window, unmapped", AccelKind::Mb, Faulted, |p| {
            p.set(MbKernel::REG_REGION, Value::At(0, UNMAPPED))
        }),
        ("SSSP graph out of the window", AccelKind::Sssp, Discarded, |p| {
            p.set(SsspKernel::REG_GRAPH, Value::At(0, OUT))
        }),
        ("SSSP graph in the window, unmapped", AccelKind::Sssp, Faulted, |p| {
            p.set(SsspKernel::REG_GRAPH, Value::At(0, UNMAPPED))
        }),
        ("SSSP distance array out of the window", AccelKind::Sssp, Discarded, |p| {
            p.buffers[0].fill = csr(2, &[0, 1, 1], &[1], &[1]);
            p.set(SsspKernel::REG_DIST, Value::At(1, OUT));
        }),
        ("SSSP vertex count past on-chip RAM", AccelKind::Sssp, Clean, |p| {
            p.buffers[0].fill = csr(u32::MAX, &[], &[], &[])
        }),
        ("SSSP edge target past the distance array", AccelKind::Sssp, Clean, |p| {
            p.buffers[0].fill = csr(2, &[0, 1, 1], &[5], &[1])
        }),
        ("SSSP edge range ending before it starts", AccelKind::Sssp, Clean, |p| {
            p.buffers[0].fill = csr(2, &[1, 0, 1], &[1], &[1])
        }),
        ("SSSP source past the vertex count", AccelKind::Sssp, Clean, |p| {
            // Vertex 3's row offsets would be the words after the array.
            p.buffers[0].fill = csr(2, &[0, 1, 1], &[0], &[1]);
            p.set(SsspKernel::REG_SOURCE, 3);
        }),
    ];
    for (what, kind, ends, edit) in vectors.into_iter().chain(streams).chain(writers) {
        let what = format!("{kind:?}: {what}");
        let mut job = catalog::program(kind, &Spec { working_set: 1 << 20, ..Spec::bounded(64, 1) });
        edit(&mut job);
        let mut hv = Optimus::new(OptimusConfig::new(vec![AccelKind::Aes, kind]));
        let good = AesTenant::new(&mut hv, "good", 3);
        let (bad, _) = launch(&mut hv, 1, "bad", &job);
        assert!(hv.run_until_done(bad, 2_000_000), "{what}: the at-fault job never ended");
        assert!(hv.run_until_done(good.va, 20_000_000), "{what}: co-tenant starved");
        assert!(good.output_is_exact(&mut hv), "{what}: co-tenant output corrupted");
        assert_eq!(hv.stats().discarded_dma > 0, ends == Discarded, "{what}: discarded DMA");
        let faulted = hv.device().host().faulted_dmas();
        assert_eq!(faulted > 0, ends == Faulted, "{what}: faulted DMA");
    }
}

/// Runs an MD5 job whose `REG_STATE_PAD` is 2^40 time-sharing one slot
/// with an identical unpadded job, under `preempt_timeout` (the default if
/// `None`), until the unpadded one finishes; asserts it matches its oracle
/// and returns the hypervisor's stats.
fn padded_md5_beside_a_bounded_one(preempt_timeout: Option<Cycle>) -> HvStats {
    let mut cfg = OptimusConfig::new(vec![AccelKind::Md5]);
    cfg.time_slice = 8_000;
    if let Some(timeout) = preempt_timeout {
        cfg.preempt_timeout = timeout;
    }
    let mut hv = Optimus::new(cfg);
    let mut job = catalog::program(AccelKind::Md5, &Spec::bounded(16384, 5));
    job.add_state(16 << 20);
    let mut padded = job.clone();
    padded.set(Md5Kernel::REG_STATE_PAD, 1 << 40);
    // Set-up traps advance simulated time, so both jobs start only once
    // both are programmed.
    let [bad, good] = [("bad", &padded), ("good", &job)].map(|(name, job)| {
        let vm = hv.create_vm(name);
        let va = hv.create_vaccel(vm, 0);
        let mut g = hv.guest(va);
        let placed = catalog::alloc(job, &mut g);
        catalog::write_regs(job, &placed, &mut g);
        (va, placed)
    });
    for (va, _) in [&bad, &good] {
        hv.guest(*va).mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    assert!(hv.run_until_done(good.0, 200_000_000), "co-tenant starved");
    assert!(matches_oracle(&mut hv, good.0, &job, &good.1), "co-tenant digest wrong");
    hv.stats()
}

/// MD5's `REG_STATE_PAD` sizes the zero padding every save writes, and the
/// save buffer is built on the host: a guest writing 2^40 used to abort the
/// process at the first preemption ("memory allocation of 1099511627776
/// bytes failed"). The register clamps to on-chip RAM instead, and the
/// tenant time-sharing the slot finishes bit-exactly.
#[test]
fn a_terabyte_md5_state_pad_is_clamped_to_on_chip_ram() {
    let stats = padded_md5_beside_a_bounded_one(None);
    assert!(stats.preemptions > 0, "no save ever happened: {stats:?}");
}
