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
use optimus_accel::{
    aes::AesKernel, btc::BtcKernel, fir::FirKernel, hash::reg as hash_reg, image::ConvKernel,
    rsd::RsdKernel, sw::SwKernel,
};
use optimus_algo::bitcoin::BlockHeader;
use optimus_fabric::mmio::accel_reg;
use optimus_sim::time::Cycle;
use optimus_workloads::streams::{
    random_bytes, rs_codeword_stream, signal_samples, test_image_rows,
};

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

/// The input region of tenant `which` (0 or 1) of a slot.
fn input(kind: AccelKind, which: usize) -> Vec<u8> {
    let bytes = (LINES[which] * 64) as usize;
    let seed = 0x6f1d + which as u64;
    match kind {
        AccelKind::Fir => signal_samples(bytes / 2, seed),
        // The first tenant's codewords are all correctable (12 errors of
        // 16); the second's draw 17 positions with replacement, so about
        // three in five are not and the failure path is pinned too.
        AccelKind::Rsd => rs_codeword_stream(bytes / 256, [12, 17][which], seed).0,
        AccelKind::Sw => random_bytes(bytes, seed)
            .iter()
            .map(|b| b"ACGT"[(b & 3) as usize])
            .collect(),
        AccelKind::Gau => test_image_rows(bytes / 64, seed),
        AccelKind::Btc => BlockHeader::example().to_bytes().to_vec(),
        _ => random_bytes(bytes, seed),
    }
}

/// The application-register writes that program tenant `which`'s job.
fn job_regs(kind: AccelKind, which: usize, src: u64, dst: u64) -> Vec<(u64, u64)> {
    let lines = LINES[which];
    match kind {
        AccelKind::Aes => vec![
            (AesKernel::REG_SRC, src),
            (AesKernel::REG_DST, dst),
            (AesKernel::REG_LINES, lines),
            (AesKernel::REG_KEY0, 0x0011_2233_4455_6677),
            (AesKernel::REG_KEY1, 0x8899_aabb_ccdd_eeff ^ which as u64),
        ],
        AccelKind::Sha | AccelKind::Md5 => vec![
            (hash_reg::SRC, src),
            (hash_reg::DST, dst),
            (hash_reg::LINES, lines),
        ],
        AccelKind::Fir => vec![
            (FirKernel::REG_SRC, src),
            (FirKernel::REG_DST, dst),
            (FirKernel::REG_LINES, lines),
        ],
        AccelKind::Rsd => vec![
            (RsdKernel::REG_SRC, src),
            (RsdKernel::REG_DST, dst),
            (RsdKernel::REG_LINES, lines),
        ],
        AccelKind::Sw => vec![
            (SwKernel::REG_SRC, src),
            (SwKernel::REG_LINES, lines),
            (SwKernel::REG_REF_LINES, [4, 2][which]),
        ],
        AccelKind::Gau => vec![
            (ConvKernel::REG_SRC, src),
            (ConvKernel::REG_DST, dst),
            (ConvKernel::REG_LINES, lines),
        ],
        AccelKind::Btc => vec![
            (BtcKernel::REG_SRC, src),
            // About one nonce in 4096 meets the first tenant's target;
            // the second's is impossible, so it grinds to the end.
            (BtcKernel::REG_TARGET, [0x000f_ffff, 0][which]),
            (BtcKernel::REG_START_NONCE, 1000 * which as u64),
            (BtcKernel::REG_COUNT, 1 << 20),
        ],
        other => unreachable!("{other:?} is not in the compute mix"),
    }
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
            let data = input(kind, which);
            let mut g = hv.guest(va);
            let src = g.alloc_dma(data.len() as u64);
            let dst = g.alloc_dma(LINES[which] * 64);
            let state = g.alloc_dma(STATE_BYTES as u64);
            g.write_mem(src, &data);
            g.set_state_buffer(state);
            for (reg, value) in job_regs(kind, which, src.raw(), dst.raw()) {
                g.mmio_write(APP + reg, value);
            }
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
