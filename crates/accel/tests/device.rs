//! Real kernels on a whole `FpgaDevice`: register routing, DMA through the
//! auditors, tree and IOMMU, the VCU's offset, window and reset tables, and
//! the differential proof that event-horizon fast-forwarding is bit-exact
//! (replay property failures with `OPTIMUS_PROP_SEED=<printed seed>`).

use optimus_accel::aes::AesKernel;
use optimus_accel::hash::{reg as hash_reg, Md5Kernel};
use optimus_accel::registry::{build_accelerator, AccelKind};
use optimus_algo::aes::Aes128;
use optimus_cci::channel::SelectorPolicy;
use optimus_fabric::accelerator::{Accelerator, CtrlStatus};
use optimus_fabric::device::FpgaDevice;
use optimus_fabric::mmio::{self, accel_mmio_base, accel_reg, vcu_reg};
use optimus_mem::addr::{Hpa, Iova, PageSize};
use optimus_mem::page_table::PageFlags;
use optimus_sim::rng::Xoshiro256;
use optimus_testkit::gens;
use optimus_testkit::prop_assert_eq;
use optimus_testkit::runner::check;

const APP: u64 = accel_reg::APP_BASE;
const KEY: [u64; 2] = [0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908];

/// Identity-maps the first 256 MB of IO space.
fn identity_map(dev: &mut FpgaDevice) {
    let huge = PageSize::Huge.bytes();
    for i in 0..128u64 {
        let iommu = dev.host_mut().iommu_mut();
        iommu
            .map(
                Iova::new(i * huge),
                Hpa::new(i * huge),
                PageSize::Huge,
                PageFlags::rw(),
            )
            .unwrap();
    }
}

/// A monitored device of `kinds`, identity-mapped.
fn device(kinds: &[AccelKind]) -> FpgaDevice {
    let accels = kinds.iter().map(|&k| build_accelerator(k, 1)).collect();
    let mut dev = FpgaDevice::new_monitored(accels, 2, SelectorPolicy::Auto);
    identity_map(&mut dev);
    dev
}

/// Host memory at `hpa`, `len` bytes.
fn read(dev: &FpgaDevice, hpa: u64, len: usize) -> Vec<u8> {
    let lines = (hpa..hpa + len as u64).step_by(64);
    lines
        .flat_map(|a| dev.host().memory().read_line(Hpa::new(a)))
        .collect()
}

fn write(dev: &mut FpgaDevice, hpa: u64, bytes: &[u8]) {
    for (i, line) in bytes.chunks_exact(64).enumerate() {
        let at = Hpa::new(hpa + 64 * i as u64);
        dev.host_mut()
            .memory_mut()
            .write_line(at, line.try_into().unwrap());
    }
}

/// Starts AES on `slot` over `lines` lines from `src` into `dst`.
fn start_aes(dev: &mut FpgaDevice, slot: usize, src: u64, dst: u64, lines: u64) {
    let base = accel_mmio_base(slot);
    let regs = [
        (AesKernel::REG_SRC, src),
        (AesKernel::REG_DST, dst),
        (AesKernel::REG_LINES, lines),
        (AesKernel::REG_KEY0, KEY[0]),
        (AesKernel::REG_KEY1, KEY[1]),
    ];
    for (reg, value) in regs {
        dev.mmio_write(base + APP + reg, value);
    }
    dev.mmio_write(base + accel_reg::CTRL_CMD, accel_reg::CMD_START);
}

fn encrypted(plain: &[u8]) -> Vec<u8> {
    let key: Vec<u8> = KEY.iter().flat_map(|k| k.to_le_bytes()).collect();
    let mut out = plain.to_vec();
    Aes128::new(&key.try_into().unwrap()).encrypt_ecb(&mut out);
    out
}

fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    Xoshiro256::seed_from(seed).fill_bytes(&mut out);
    out
}

#[test]
fn accel_mmio_write_and_read() {
    let mut dev = device(&[AccelKind::Aes; 2]);
    let base = accel_mmio_base(1);
    dev.mmio_write(base + APP + AesKernel::REG_SRC, 0x1000);
    dev.run(200);
    assert_eq!(dev.mmio_read(base + APP + AesKernel::REG_SRC), 0x1000);
    // Accelerator 0 remains untouched.
    assert_eq!(
        dev.mmio_read(accel_mmio_base(0) + APP + AesKernel::REG_SRC),
        0
    );
}

#[test]
fn aes_encrypts_through_full_stack() {
    let mut dev = device(&[AccelKind::Aes; 2]);
    let plain = bytes(1, 8 * 64);
    write(&mut dev, 0x10000, &plain);
    start_aes(&mut dev, 0, 0x10000, 0x20000, 8);
    assert!(dev.run_until(100_000, |d| d.accel(0).is_done()));
    assert_eq!(read(&dev, 0x20000, plain.len()), encrypted(&plain));
}

#[test]
fn offset_table_shifts_dmas() {
    let mut dev = device(&[AccelKind::Aes; 2]);
    // Slice accel 0 by +2 MB: GVA 0 → IOVA 2 MB → HPA 2 MB.
    let huge = PageSize::Huge.bytes();
    dev.mmio_write(mmio::VCU_BASE + vcu_reg::OFFSET_TABLE, huge);
    dev.run(100);
    let plain = bytes(2, 64);
    write(&mut dev, huge, &plain);
    start_aes(&mut dev, 0, 0, 0x40000, 1);
    assert!(dev.run_until(100_000, |d| d.accel(0).is_done()));
    // Destination also shifted by the slice offset.
    assert_eq!(read(&dev, huge + 0x40000, 64), encrypted(&plain));
}

#[test]
fn out_of_window_dma_is_master_aborted_and_counted() {
    // Program accel 0's slice window, then point AES's source past its
    // end: the auditor must discard the reads (not let them escape into
    // the next slice), the device must retire them with a master-abort so
    // the port drains, and the job must end rather than wait forever.
    let mut dev = device(&[AccelKind::Aes; 2]);
    let win = PageSize::Huge.bytes() * 4; // 8 MB window at IOVA 0
    dev.mmio_write(mmio::VCU_BASE + vcu_reg::WINDOW_BASE_TABLE, 0);
    dev.mmio_write(mmio::VCU_BASE + vcu_reg::WINDOW_LEN_TABLE, win);
    dev.run(100);
    start_aes(&mut dev, 0, win, win - 0x1000, 4);
    assert!(
        dev.run_until(100_000, |d| d.accel(0).is_done()),
        "the aborted job never ended"
    );
    let (dma_discards, _) = dev.auditor(0).discard_counts();
    assert_eq!(dma_discards, 4, "every wild read discarded");
    assert!(
        dev.port(0).is_drained(),
        "aborted requests must retire, not dangle"
    );
    let integrity = optimus_fabric::platform::PlatformDevice::integrity(&dev);
    assert_eq!(integrity.discarded_dma, dma_discards);
    // Nothing was encrypted from data it never read.
    assert_eq!(read(&dev, win - 0x1000, 4 * 64), [0u8; 4 * 64]);
}

#[test]
fn reset_clears_accelerator_and_port() {
    let mut dev = device(&[AccelKind::Aes; 2]);
    let base = accel_mmio_base(0);
    start_aes(&mut dev, 0, 0x10000, 0x800000, 1000);
    dev.run(2000); // mid-flight
    dev.mmio_write(mmio::VCU_BASE + vcu_reg::RESET_TABLE, 1);
    dev.run(5000);
    assert_eq!(dev.mmio_read(base + APP + AesKernel::REG_LINES), 0);
    assert!(!dev.accel(0).is_done());
    // Late responses for pre-reset requests were discarded, not delivered.
    assert!(dev.port_mut(0).pop_response().is_none());
}

fn src(slot: usize) -> u64 {
    0x100_000 + slot as u64 * 0x40_000
}

fn dst(slot: usize) -> u64 {
    0x800_000 + slot as u64 * 0x40_000
}

/// The digest a hasher of `kind` leaves as its destination line.
fn digest(kind: AccelKind, data: &[u8]) -> Vec<u8> {
    let mut line = vec![0u8; 64];
    match kind {
        AccelKind::Md5 => line[..16].copy_from_slice(&optimus_algo::md5::md5(data)),
        _ => line.copy_from_slice(&optimus_algo::sha2::sha512(data)),
    }
    line
}

/// Where slot 0 saves its state when [`hash_fingerprint`] preempts it.
const STATE: u64 = 0x4_000_000;

/// Runs one hashing job per slot (`(kind, lines)`, source data drawn from
/// `seed`) on a fresh device in the given fast-forward mode, after `idle`
/// cycles of nothing. A non-zero `preempt_at` preempts slot 0 that many
/// cycles later, waits for `Saved` and resumes it; every MD5 pads its state
/// to 32 KiB, so the save and the restore span hundreds of lines. Returns
/// an exhaustive fingerprint — final cycle, drop/fault counters, per-port
/// stats, digest registers read back over MMIO — and the destination
/// lines, after checking each digest against `optimus_algo`. Bit-exact
/// fast-forwarding means the fingerprint is identical in both modes.
fn hash_fingerprint(
    monitored: bool,
    fastfwd: bool,
    jobs: &[(AccelKind, u64)],
    seed: u64,
    idle: u64,
    preempt_at: u64,
) -> (Vec<u64>, Vec<u8>) {
    let accels: Vec<Box<dyn Accelerator>> = jobs
        .iter()
        .map(|&(kind, _)| build_accelerator(kind, seed))
        .collect();
    let mut dev = if monitored {
        FpgaDevice::new_monitored(accels, 2, SelectorPolicy::Auto)
    } else {
        assert_eq!(jobs.len(), 1);
        FpgaDevice::new_passthrough(accels.into_iter().next().unwrap(), SelectorPolicy::Auto)
    };
    dev.set_fast_forward(fastfwd);
    identity_map(&mut dev);
    let data: Vec<Vec<u8>> = jobs
        .iter()
        .enumerate()
        .map(|(a, &(_, n))| bytes(seed ^ a as u64, n as usize * 64))
        .collect();
    for (a, &(kind, n)) in jobs.iter().enumerate() {
        write(&mut dev, src(a), &data[a]);
        let base = accel_mmio_base(a);
        let pad = if kind == AccelKind::Md5 { 32 << 10 } else { 0 };
        for (reg, value) in [
            (hash_reg::SRC, src(a)),
            (hash_reg::DST, dst(a)),
            (hash_reg::LINES, n),
            (Md5Kernel::REG_STATE_PAD, pad),
        ] {
            dev.mmio_write(base + APP + reg, value);
        }
        dev.mmio_write(base + accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    dev.run(idle);
    if preempt_at > 0 {
        let base = accel_mmio_base(0);
        dev.run(preempt_at);
        dev.mmio_write(base + accel_reg::CTRL_STATE_ADDR, STATE);
        dev.mmio_write(base + accel_reg::CTRL_CMD, accel_reg::CMD_PREEMPT);
        assert!(dev.run_until(400_000, |d| d.accel(0).status() == CtrlStatus::Saved));
        dev.mmio_write(base + accel_reg::CTRL_CMD, accel_reg::CMD_RESUME);
    }
    let finished = dev.run_until(400_000, |d| {
        (0..d.num_accels()).all(|i| d.accel(i).is_done())
    });
    let mut fp = vec![
        dev.now(),
        finished as u64,
        dev.dropped_packets(),
        dev.host().faulted_dmas(),
        dev.host().total_dma_bytes(),
    ];
    for i in 0..dev.num_accels() {
        let (read, written) = dev.port(i).byte_counts();
        fp.extend_from_slice(&[
            read,
            written,
            dev.port(i).stale_discarded(),
            dev.accel(i).is_done() as u64,
        ]);
    }
    // Blocking MMIO reads exercise the mailbox path in both modes too.
    for a in 0..jobs.len() {
        fp.push(dev.mmio_read(accel_mmio_base(a) + APP + hash_reg::DIGEST0));
    }
    fp.push(dev.now());
    let mut mem = Vec::new();
    for (a, &(kind, _)) in jobs.iter().enumerate() {
        let line = read(&dev, dst(a), 64);
        assert_eq!(line, digest(kind, &data[a]), "slot {a} ({kind:?}) digest");
        mem.extend_from_slice(&line);
    }
    (fp, mem)
}

fn hasher() -> gens::Gen<AccelKind> {
    gens::choose(vec![AccelKind::Md5, AccelKind::Sha])
}

/// No preemption (0, which failures shrink to) half the time, else one
/// up to 600 cycles into the jobs.
fn preempt_at() -> gens::Gen<u64> {
    let at = gens::u64_in(0..1200).map(|v| v.saturating_sub(600));
    at.with_shrink(|&v| if v > 0 { vec![0, v / 2] } else { Vec::new() })
}

/// Differential equivalence (monitored fabric): fast-forwarding produces
/// the exact same final cycle, stats, register values, and memory image as
/// per-cycle stepping, for arbitrary job shapes, with or without a
/// mid-job preemption. MD5 and SHA-512 are the stream kernels with their
/// own quiescence hints, and the harness hints while it saves and
/// restores, so every arm skips.
#[test]
fn fast_forward_is_bit_exact_monitored() {
    let gen = gens::zip4(
        gens::zip2(hasher(), gens::u64_in(1..40)),
        gens::zip2(hasher(), gens::u64_in(1..40)),
        gens::zip2(gens::u64_in(0..256), gens::u64_in(0..4000)),
        preempt_at(),
    );
    check(
        "fast_forward_is_bit_exact_monitored",
        &gen,
        |&(a, b, (seed, idle), at)| {
            let fast = hash_fingerprint(true, true, &[a, b], seed, idle, at);
            let slow = hash_fingerprint(true, false, &[a, b], seed, idle, at);
            prop_assert_eq!(&fast.0, &slow.0, "stat fingerprints diverge");
            prop_assert_eq!(&fast.1, &slow.1, "memory images diverge");
            Ok(())
        },
    );
}

/// Differential equivalence for the pass-through (direct assignment)
/// fabric, which has no tree and uses the injection-interval gate.
#[test]
fn fast_forward_is_bit_exact_passthrough() {
    let gen = gens::zip4(
        gens::zip2(hasher(), gens::u64_in(1..64)),
        gens::u64_in(0..256),
        gens::u64_in(0..4000),
        preempt_at(),
    );
    check(
        "fast_forward_is_bit_exact_passthrough",
        &gen,
        |&(job, seed, idle, at)| {
            let fast = hash_fingerprint(false, true, &[job], seed, idle, at);
            let slow = hash_fingerprint(false, false, &[job], seed, idle, at);
            prop_assert_eq!(&fast.0, &slow.0, "stat fingerprints diverge");
            prop_assert_eq!(&fast.1, &slow.1, "memory images diverge");
            Ok(())
        },
    );
}
