//! Bit-exactness golden for the compute-bound kernels.
//!
//! `optimus_algo` is the functional model behind the accelerators; its
//! host arithmetic may be rewritten for speed, and nothing simulated may
//! move when it is. This test pins that: one device carries the eight
//! kinds of the compute-bound mix, two tenants time-share every slot (so
//! each kernel is preempted mid-stream and its `serialize()` bytes land in
//! the tenant's state buffer), and after a fixed number of cycles every
//! tenant's registers, destination region and saved state — and the
//! hypervisor's counters — must equal the constants below.
//!
//! The constants were recorded at the commit *before* the table-driven
//! Reed–Solomon decoder, the wavefront Smith–Waterman and the separable
//! Gaussian landed. Re-record them only for a change that means to alter
//! simulated behaviour, and say so in that change.

use optimus::hypervisor::{HvStats, Optimus, OptimusConfig};
use optimus_accel::registry::AccelKind;
use optimus_accel::{aes::AesKernel, btc::BtcKernel, sw::SwKernel};
use optimus_bench::catalog::{self, Fill, Program, Spec};
use optimus_fabric::mmio::accel_reg;
use optimus_mem::addr::PageSize;
use optimus_sim::time::Cycle;
use optimus_workloads::streams::rs_codeword_stream;

const APP: u64 = accel_reg::APP_BASE;

/// The compute-bound mix, in slot order.
const KINDS: [AccelKind; 8] = [
    AccelKind::Aes,
    AccelKind::Sha,
    AccelKind::Md5,
    AccelKind::Fir,
    AccelKind::Rsd,
    AccelKind::Sw,
    AccelKind::Gau,
    AccelKind::Btc,
];

const RUN_CYCLES: Cycle = 60_000;
/// Short enough that every kernel is preempted mid-stream several times.
const TIME_SLICE: Cycle = 4_000;
/// Input lines of a slot's first tenant (most kinds finish inside the
/// run) and of its second (still mid-stream when the run ends).
const LINES: [u64; 2] = [1024, 8192];
/// Bytes of a state buffer that are hashed (every kernel's state is
/// smaller; the rest of the buffer stays zero).
const STATE_BYTES: usize = 4096;

/// What one tenant leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// FNV-1a of application registers `APP + 0, 8, .. 56`.
    regs: u64,
    /// FNV-1a of the destination region (all zero for SW and BTC, which
    /// report through registers only).
    dst: u64,
    /// FNV-1a of the first [`STATE_BYTES`] of the state buffer: the
    /// harness's save of `Kernel::serialize()` at the last preemption.
    state: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The catalogue job of tenant `which` (0 or 1) of a slot, edited per
/// tenant. SW and BTC report through registers only, but get a
/// destination too, so every tenant maps the same three pages.
fn job(kind: AccelKind, which: usize) -> Program {
    let lines = LINES[which];
    let mut p = catalog::program(kind, &Spec::bounded(lines, 0x6f1d + which as u64));
    match kind {
        AccelKind::Aes => p.set(AesKernel::REG_KEY1, 0x8899_aabb_ccdd_eeff ^ which as u64),
        // The first tenant's codewords are all correctable (12 errors of
        // 16); the second's draw 17 positions with replacement, so about
        // three in five are not and the failure path is pinned too.
        AccelKind::Rsd if which == 1 => {
            let stream = rs_codeword_stream(lines as usize / 4, 17, 0x6f1e).0;
            p.buffers[0].fill = Fill::Bytes(stream);
        }
        AccelKind::Sw => p.set(SwKernel::REG_REF_LINES, [4, 2][which]),
        AccelKind::Btc => {
            // About one nonce in 4096 meets the first tenant's target;
            // the second's is impossible, so it grinds to the end.
            p.set(BtcKernel::REG_TARGET, [0x000f_ffff, 0][which]);
            p.set(BtcKernel::REG_START_NONCE, 1000 * which as u64);
            p.set(BtcKernel::REG_COUNT, 1 << 20);
        }
        _ => {}
    }
    if p.buffers.len() == 1 {
        p.buffer(lines * 64, false, PageSize::Huge, Fill::Zero);
    }
    p.add_state(STATE_BYTES as u64);
    p
}

fn run_mix() -> (Vec<Golden>, HvStats) {
    let mut cfg = OptimusConfig::new(KINDS.to_vec());
    cfg.time_slice = TIME_SLICE;
    let mut hv = Optimus::new(cfg);
    let mut tenants = Vec::new();
    for which in 0..2 {
        for (slot, &kind) in KINDS.iter().enumerate() {
            let vm = hv.create_vm(&format!("{kind:?}{which}"));
            let va = hv.create_vaccel(vm, slot);
            let job = job(kind, which);
            let mut g = hv.guest(va);
            let placed = catalog::alloc(&job, &mut g);
            catalog::write_regs(&job, &placed, &mut g);
            let (dst, state) = (placed.0[1], placed.0[2]);
            tenants.push((va, dst, state, LINES[which]));
        }
    }
    // Set-up traps advance simulated time, so start every job only once
    // all of them are programmed.
    for &(va, ..) in &tenants {
        hv.guest(va)
            .mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    hv.run(RUN_CYCLES);
    let stats = hv.stats();
    let golden = tenants
        .into_iter()
        .map(|(va, dst, state, lines)| {
            let mut g = hv.guest(va);
            let regs: Vec<u8> = (0..8)
                .flat_map(|i| g.mmio_read(APP + 8 * i).to_le_bytes())
                .collect();
            let mut out = vec![0u8; (lines * 64) as usize];
            g.read_mem(dst, &mut out);
            let mut saved = vec![0u8; STATE_BYTES];
            g.read_mem(state, &mut saved);
            Golden {
                regs: fnv1a(&regs),
                dst: fnv1a(&out),
                state: fnv1a(&saved),
            }
        })
        .collect();
    (golden, stats)
}

#[test]
fn compute_mix_is_bit_identical_to_the_recorded_run() {
    let (golden, stats) = run_mix();
    // Printed on failure only: the table in the form the constants take.
    for (i, g) in golden.iter().enumerate() {
        println!(
            "{:?}/{}: Golden {{ regs: {:#018x}, dst: {:#018x}, state: {:#018x} }},",
            KINDS[i % 8],
            i / 8,
            g.regs,
            g.dst,
            g.state
        );
    }
    println!("{stats:?}");
    assert_eq!(golden, expected_tenants());
    assert_eq!(stats, expected_stats());
}

#[rustfmt::skip]
fn expected_tenants() -> Vec<Golden> {
    vec![
        // Aes/0
        Golden { regs: 0x424c5361dcb14459, dst: 0x1ceaf570ad53fd90, state: 0x7487741037654d7c },
        // Sha/0
        Golden { regs: 0x6c6fa97e8e8000ec, dst: 0x710ad7936ab08d0a, state: 0xed96a29aafedbf0d },
        // Md5/0
        Golden { regs: 0x3dcf585a3dab2781, dst: 0x509626c788e48a0d, state: 0x13148f0d6af7a0f7 },
        // Fir/0
        Golden { regs: 0x2655dcab3126da79, dst: 0x102be47f20bb4e8d, state: 0x8f1b4972216863ef },
        // Rsd/0
        Golden { regs: 0x4afca3c5cc40da1e, dst: 0x3935289b648d8cd7, state: 0xb77e58786f8a151b },
        // Sw/0
        Golden { regs: 0x7ef6f814595b417d, dst: 0xeb05052ea5b62325, state: 0xb04dbab1cefc8084 },
        // Gau/0
        Golden { regs: 0x2655dcab3126da79, dst: 0x1ec392decb916f50, state: 0x2db61872d62c993e },
        // Btc/0
        Golden { regs: 0x133f37d350b55b36, dst: 0xeb05052ea5b62325, state: 0xb627759a5575f7bd },
        // Aes/1
        Golden { regs: 0x0a017fa6cae261a4, dst: 0x102730efaada9d9f, state: 0x54b7a7e16bdeb23f },
        // Sha/1
        Golden { regs: 0x71621961afb7202d, dst: 0x3c0c6824f3926469, state: 0xbbcccb93ca5994a2 },
        // Md5/1
        Golden { regs: 0x9cdaf4035d686645, dst: 0xcc2ed9c3c8209fa5, state: 0x8c36227cbff776b9 },
        // Fir/1
        Golden { regs: 0xe866a10ccaa778c5, dst: 0x2dfb0e51d58fcdd5, state: 0x071b290af547f9db },
        // Rsd/1
        Golden { regs: 0xe866a10ccaa778c5, dst: 0xe8fbf63d009d77a6, state: 0x7f7bc86305631aff },
        // Sw/1
        Golden { regs: 0x9032206ff25d060a, dst: 0xfc31bff590c22325, state: 0x10f2dbbf3f330acd },
        // Gau/1
        Golden { regs: 0xe866a10ccaa778c5, dst: 0x0d5e16d49f3e133c, state: 0xe9b15e8c25c5d0ae },
        // Btc/1
        Golden { regs: 0xf9384a2a66100199, dst: 0xfc31bff590c22325, state: 0xd4fcd377d900a4d4 },
    ]
}

fn expected_stats() -> HvStats {
    HvStats {
        traps: 102,
        hypercalls: 48,
        pinned_pages: 48,
        context_switches: 48,
        preemptions: 34,
        alerts_starvation: 3,
        ..HvStats::default()
    }
}
