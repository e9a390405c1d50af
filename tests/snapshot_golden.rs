//! Golden for the `HvSnapshot` wire format, and robustness of everything
//! that consumes a snapshot: truncated, corrupted and internally
//! inconsistent snapshots are typed errors, never panics.
//!
//! One deterministic, fully populated hypervisor — two tenants
//! time-sharing slot 0 (one of them `SavedInMemory` when the run stops),
//! an owner on slot 1 with a 4 KB-granular region and a span its
//! co-resident peer holds in `Retrieved`, and one retained isolation alert
//! (the owner's job is evicted with no state buffer) — is frozen and its
//! wire bytes hashed; then the saved tenant and the share's owner hop onto
//! a second hypervisor through `detach_tenant` → `attach_tenant` and both
//! hypervisors are frozen and hashed again.
//!
//! The constants were recorded at the commit *before* `hypervisor.rs` was
//! split along state ownership and the `*Snap` mirror records were
//! replaced by the model records behind the `Wire` trait: the refactor
//! moved no byte. Re-record them only together with a `SNAPSHOT_VERSION`
//! bump.

use optimus::hypervisor::{Backing, Optimus, OptimusConfig, ShareState};
use optimus::snapshot::{HvSnapshot, SnapshotError};
use optimus::vaccel::{VaccelId, VaccelRun};
use optimus_accel::hash::reg;
use optimus_accel::registry::AccelKind;
use optimus_fabric::device::FpgaDevice;
use optimus_fabric::mmio::accel_reg;
use optimus_fabric::platform::PlatformDevice;
use optimus_mem::addr::{Hpa, PAGE_2M};
use optimus_sim::hashing::FastHasher;
use optimus_sim::time::ms_to_cycles;
use std::hash::Hasher;

const APP: u64 = accel_reg::APP_BASE;

fn config() -> OptimusConfig {
    let mut cfg = OptimusConfig::new(vec![AccelKind::Md5, AccelKind::Md5]);
    cfg.time_slice = ms_to_cycles(0.1);
    cfg
}

/// Programs and starts a 1 MiB MD5 job on `va`; `state_buffer` decides
/// whether the tenant can be saved (without one its eviction is refused).
fn start_md5(hv: &mut Optimus, va: VaccelId, salt: u8, state_buffer: bool) {
    let data: Vec<u8> = (0..1_048_576u32).map(|i| (i as u8) ^ salt).collect();
    let mut g = hv.guest(va);
    let src = g.alloc_dma(data.len() as u64);
    let dst = g.alloc_dma(4096);
    g.write_mem(src, &data);
    if state_buffer {
        let state = g.alloc_dma(4096);
        g.set_state_buffer(state);
    }
    g.mmio_write(APP + reg::SRC, src.raw());
    g.mmio_write(APP + reg::DST, dst.raw());
    g.mmio_write(APP + reg::LINES, (data.len() / 64) as u64);
    g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
}

/// Four tenants — `[t0, t1]` on slot 0, `[owner, peer]` on slot 1 — and
/// the handle of a span the owner shares and the peer has retrieved. The
/// owner also holds a 4 KB-granular region (512 small IOPT entries).
fn tenants() -> (Optimus, u64, [VaccelId; 4]) {
    let mut hv = Optimus::new(config());
    let vas = ["t0", "t1", "owner", "peer"].map(|name| {
        let vm = hv.create_vm(name);
        hv.create_vaccel(vm, if name.starts_with('t') { 0 } else { 1 })
    });
    let handle = {
        let mut g = hv.guest(vas[2]);
        g.alloc_dma_4k(PAGE_2M, Backing::Normal);
        let span = g.alloc_dma(2 * PAGE_2M);
        g.write_mem(span, &[0x5A; 4096]);
        g.mem_share(span, 2 * PAGE_2M, "peer", false).expect("share")
    };
    hv.guest(vas[3]).mem_retrieve(handle).expect("retrieve");
    (hv, handle, vas)
}

/// [`tenants`] with a job each, stopped mid-slice.
fn populated() -> (Optimus, u64, [VaccelId; 4]) {
    let (mut hv, handle, vas) = tenants();
    let [t0, t1, owner, peer] = vas;
    start_md5(&mut hv, t0, 0x00, true);
    start_md5(&mut hv, t1, 0x77, true);
    // Slot 1: the owner's job has no state buffer, so the slice boundary
    // that hands the slot to the peer refuses the save and raises the
    // one alert.
    start_md5(&mut hv, owner, 0x33, false);
    start_md5(&mut hv, peer, 0x44, true);
    hv.run(ms_to_cycles(0.25));
    (hv, handle, vas)
}

fn hash(bytes: &[u8]) -> u64 {
    let mut h = FastHasher::default();
    h.write(bytes);
    h.write_usize(bytes.len());
    h.finish()
}

/// Moves `va` from `src` to `dst`, frames included.
fn hop(src: &mut Optimus, dst: &mut Optimus, va: VaccelId) -> VaccelId {
    let tenant = src.detach_tenant(va).expect("detach");
    let (new, copies) = dst.attach_tenant(tenant).expect("attach");
    for (s, d) in copies {
        dst.device_mut().host_mut().memory_mut().adopt_span(
            src.device().host().memory(),
            Hpa::new(s),
            Hpa::new(d),
            PAGE_2M,
        );
    }
    new
}

#[test]
fn snapshot_wire_bytes_match_the_recorded_golden() {
    let (hv, handle, _) = populated();
    assert_eq!(hv.share_state(handle), Some(ShareState::Retrieved));
    let (snap, _device) = hv.freeze();
    // The scenario is what the header says it is.
    let saved = snap.vaccels.iter().filter(|v| v.slot == 0 && v.run == VaccelRun::SavedInMemory);
    assert_eq!(saved.count(), 1, "one of the slot-0 pair is saved in memory");
    assert_eq!(snap.watchdog.alerts.len(), 1, "one retained alert");
    assert_eq!(snap.iopt.iter().filter(|e| e.small).count(), 512);
    assert_eq!(snap.shares.len(), 1);
    let bytes = snap.to_bytes();
    assert_eq!(HvSnapshot::from_bytes(&bytes).as_ref(), Ok(&snap));
    println!("populated: ({}, {:#018x})", bytes.len(), hash(&bytes));
    assert_eq!((bytes.len(), hash(&bytes)), GOLDEN_POPULATED);
}

#[test]
fn snapshot_wire_bytes_after_a_tenant_hop_match_the_recorded_golden() {
    let (mut a, handle, [t0, t1, owner, _]) = populated();
    let mut b = Optimus::new(config());
    let saved = [t0, t1]
        .into_iter()
        .find(|&va| a.vaccel_run(va) == Some(VaccelRun::SavedInMemory))
        .expect("one of the slot-0 pair is saved");
    hop(&mut a, &mut b, saved);
    // The owner leaves its co-resident retriever behind: the record
    // travels (frames rewritten), the source keeps a foreign retrieval.
    hop(&mut a, &mut b, owner);
    assert_eq!(a.share_state(handle), None);
    assert_eq!(b.share_state(handle), Some(ShareState::Retrieved));
    let got = [a, b].map(|hv| {
        let bytes = hv.freeze().0.to_bytes();
        (bytes.len(), hash(&bytes))
    });
    println!("hop: {got:#x?}");
    assert_eq!(got, GOLDEN_HOP);
}

#[test]
fn every_truncation_of_a_real_snapshot_is_rejected() {
    let bytes = populated().0.freeze().0.to_bytes();
    for cut in 0..bytes.len() {
        let err = HvSnapshot::from_bytes(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
            "cut at {cut}: {err:?}"
        );
    }
}

/// A snapshot that decodes but whose records do not hang together must be
/// refused by `thaw` with a typed error. Before `HvSnapshot::validate`
/// each of these either panicked inside `thaw` (`expect`s on the VM
/// lookups and page-table maps, the allocator's cursor assert), or thawed
/// fine and index-panicked — or crawled one cycle per loop iteration — in
/// the next `run`.
#[test]
fn thaw_refuses_snapshots_whose_cross_references_are_broken() {
    type Break = fn(&mut HvSnapshot);
    let cases: [(&str, Break); 13] = [
        ("alloc_cursor", |s| s.alloc_cursor = 5),
        ("alloc_cursor", |s| s.alloc_cursor += 4096),
        ("vm pages", |s| s.vms[2].pages[1].0 = s.vms[2].pages[0].0),
        ("vm pages", |s| s.vms[2].pages[0].1 += 64),
        ("vaccel slot", |s| s.vaccels[0].slot = 2),
        ("vaccel vm", |s| s.vms.retain(|vm| vm.name != "t1")),
        ("retrieval vm", |s| s.vms.retain(|vm| vm.name != "peer")),
        ("slot current", |s| s.slots[0].current = Some(99)),
        ("slot current", |s| s.slots[1].current = Some(0)),
        ("slot members", |s| s.slots.swap(0, 1)),
        ("slot members", |s| s.slots[1].members[0].weight = 0),
        ("watchdog last_forwarded", |s| s.watchdog.last_forwarded.truncate(1)),
        ("watchdog window", |s| s.watchdog.cfg.window = 0),
    ];
    for (field, break_it) in cases {
        let (mut snap, device) = tenants().0.freeze();
        break_it(&mut snap);
        // "retrieval vm" also orphans the peer's vaccel, which is checked
        // first; either way the snapshot is refused before anything is built.
        match Optimus::thaw(&snap, device) {
            Err(SnapshotError::BadValue(got)) if got == field || field == "retrieval vm" => {}
            other => panic!("{field}: thaw returned {:?}", other.map(|_| "a hypervisor")),
        }
    }
    // A device with a different slot count is a mismatch, not a bad value.
    let (mut snap, device) = tenants().0.freeze();
    snap.slots.pop();
    assert!(matches!(Optimus::thaw(&snap, device), Err(SnapshotError::DeviceMismatch)));
}

/// The watchdog diffs the device's counters against the snapshot's
/// baselines at every tick, so a baseline ahead of its counter must be
/// refused by `thaw` — it used to thaw and underflow at the first tick.
#[test]
fn thaw_refuses_watchdog_baselines_ahead_of_the_device() {
    type Skew = fn(&mut HvSnapshot, &FpgaDevice);
    let cases: [(&str, Skew); 3] = [
        ("port grants", |s, d| s.watchdog.last_forwarded[0] = d.port_forwarded(0) + 1_000_000),
        ("IOTLB lookups", |s, d| {
            let (hits, spec, misses, _) = d.host().iommu().tlb().stats();
            s.watchdog.last_iotlb.0 = hits + spec + misses + 1;
        }),
        ("IOTLB conflicts", |s, d| s.watchdog.last_iotlb.1 = d.host().iommu().tlb().stats().3 + 1),
    ];
    for (what, skew) in cases {
        let (mut snap, device) = populated().0.freeze();
        skew(&mut snap, &device);
        match Optimus::thaw(&snap, device) {
            Err(SnapshotError::BadValue("watchdog baselines")) => {}
            other => panic!("{what}: thaw returned {:?}", other.map(|_| "a hypervisor")),
        }
    }
    // Baselines level with the counters thaw and tick as usual.
    let (mut snap, device) = populated().0.freeze();
    snap.watchdog.last_forwarded[0] = device.port_forwarded(0);
    let mut hv = Optimus::thaw(&snap, device).expect("level baselines thaw");
    hv.run(ms_to_cycles(1.0));
}

/// Flipping any one byte of a real snapshot yields a decode error, a
/// validation error, or a snapshot that passes validation — never a panic
/// and never an allocation sized by the corrupt length.
#[test]
fn every_single_byte_corruption_of_a_real_snapshot_is_survived() {
    let bytes = populated().0.freeze().0.to_bytes();
    let (mut rejected, mut accepted) = (0u32, 0u32);
    let mut bad = bytes.clone();
    for pos in 0..bytes.len() {
        bad[pos] ^= [0x01, 0x80, 0xFF][pos % 3];
        match HvSnapshot::from_bytes(&bad).and_then(|snap| snap.validate(2)) {
            Ok(()) => accepted += 1,
            Err(_) => rejected += 1,
        }
        bad[pos] = bytes[pos];
    }
    // Both outcomes occur: counters and addresses are free-form, while
    // discriminants, lengths and cross-references are not.
    assert!(rejected > 0 && accepted > 0, "{rejected} rejected, {accepted} accepted");
}

/// `(wire length, hash)` of the populated hypervisor's snapshot.
const GOLDEN_POPULATED: (usize, u64) = (10927, 0x9bdb_c329_0689_2144);
/// The same for the source and the target after the two hops.
const GOLDEN_HOP: [(usize, u64); 2] =
    [(1146, 0xf888_72a3_4e2d_435f), (10300, 0x2ee4_d365_72d9_de9b)];
