//! Cross-device migration property: for every accelerator kind in the
//! registry, a job preempted mid-flight (Fig. 8 drain + state save into
//! its own guest memory), detached from its source device, and resumed
//! on a *different* device instance must finish with bit-for-bit the
//! same results — every buffer, the oracle's result registers and SSSP's
//! progress counters — as the same job run uninterrupted, and both must
//! match the catalogue's oracle. The saved state travels with the tenant's guest pages, so
//! migration is exactly the paper's save→restore round trip with a device
//! boundary in the middle.
//!
//! MemBench runs in write mode, so its region's bytes are a result; no
//! `optimus_algo` model says what they must be, so for MemBench only the
//! replay comparison covers them (the oracle covers its completion count).

use optimus::node::{NodeConfig, NodeVaccel, OptimusNode};
use optimus_accel::registry::AccelKind;
use optimus_accel::sssp::SsspKernel;
use optimus_bench::catalog::{self, Program, Spec};
use optimus_fabric::mmio::accel_reg;
use optimus_fabric::platform::DeviceId;
use optimus_sim::time::ms_to_cycles;

/// A *bounded* job of `kind`, sized to outlast the pre-migration run but
/// finish afterwards. Every job gets a state buffer: detaching preempts
/// via the Fig. 8 drain+save path, and the saved state must land in guest
/// memory to migrate with the tenant.
fn job(kind: AccelKind) -> Program {
    let units = match kind {
        AccelKind::Sw => 1 << 14,
        AccelKind::Sssp => 4096,
        AccelKind::Btc => 100_000,
        AccelKind::Mb => 200_000,
        AccelKind::Ll => 3000,
        _ => 1 << 16,
    };
    let spec = Spec { working_set: 1 << 20, mb_mode: 1, ..Spec::bounded(units, 0xa35) };
    let mut p = catalog::program(kind, &spec);
    if kind == AccelKind::Btc {
        p.set(optimus_accel::btc::BtcKernel::REG_TARGET, 0); // impossible: grinds to the end
    }
    p.add_state(1 << 21);
    p
}

/// Result registers no oracle models but a save→restore must carry:
/// SSSP's round and relaxation counters. Bellman-Ford is idempotent, so a
/// migrated SSSP job that lost its progress and started over would still
/// end with the oracle's distances; only these counters would show it.
fn progress_regs(kind: AccelKind) -> &'static [u64] {
    match kind {
        AccelKind::Sssp => &[SsspKernel::REG_ROUNDS, SsspKernel::REG_RELAXATIONS],
        _ => &[],
    }
}

/// Every buffer but the state buffer, the oracle's result registers and
/// the [`progress_regs`], after the job completed.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    buffers: Vec<Vec<u8>>,
    regs: Vec<u64>,
}

/// Runs one bounded job of `kind` to completion on a two-device node,
/// optionally migrating it mid-flight from device 0 to device 1.
fn run_scenario(kind: AccelKind, migrate: bool) -> Outcome {
    let mut cfg = NodeConfig::new(vec![kind], 2);
    cfg.threads = Some(1);
    let mut node = OptimusNode::new(cfg).expect("node boots");
    let a = node.create_tenant_on(DeviceId(0), "prop");
    let job = job(kind);
    let placed = catalog::apply(&job, &mut node.guest(a));
    node.run(ms_to_cycles(0.1));
    let h: NodeVaccel = if migrate {
        assert!(
            !node.vaccel_completed(a),
            "{kind:?}: job finished before the migration point"
        );
        let b = node.migrate(a, DeviceId(1)).expect("migration succeeds");
        assert_eq!(node.device(DeviceId(0)).num_vaccels(), 0);
        b
    } else {
        a
    };
    assert!(node.run_until_done(h, 500_000_000), "{kind:?}: job never completed");
    assert_eq!(node.device(h.device).device().host().faulted_dmas(), 0);
    let oracle = catalog::oracle(&job).expect("a bounded job has an oracle");
    let mut g = node.guest(h);
    assert_eq!(catalog::check(&oracle, &placed, &mut g), Ok(()), "{kind:?}, migrated: {migrate}");
    let results = job.buffers.iter().zip(&placed.0).enumerate();
    Outcome {
        buffers: results
            .filter(|&(i, _)| Some(i) != job.state)
            .map(|(_, (b, &gva))| {
                let mut buf = vec![0u8; b.bytes as usize];
                g.read_mem(gva, &mut buf);
                buf
            })
            .collect(),
        regs: oracle
            .regs
            .iter()
            .map(|&(r, _)| r)
            .chain(progress_regs(kind).iter().copied())
            .map(|r| g.mmio_read(accel_reg::APP_BASE + r))
            .collect(),
    }
}

fn check(kind: AccelKind) {
    let migrated = run_scenario(kind, true);
    let straight = run_scenario(kind, false);
    assert!(
        migrated == straight,
        "{kind:?}: migrated results diverge from the uninterrupted run \
         (regs {:?} vs {:?})",
        migrated.regs,
        straight.regs
    );
}

macro_rules! migrate_kind {
    ($($name:ident => $kind:ident),* $(,)?) => {
        $(#[test]
        fn $name() {
            check(AccelKind::$kind);
        })*
    };
}

migrate_kind! {
    migrate_preserves_aes => Aes,
    migrate_preserves_md5 => Md5,
    migrate_preserves_sha => Sha,
    migrate_preserves_fir => Fir,
    migrate_preserves_grn => Grn,
    migrate_preserves_rsd => Rsd,
    migrate_preserves_sw => Sw,
    migrate_preserves_gau => Gau,
    migrate_preserves_grs => Grs,
    migrate_preserves_sbl => Sbl,
    migrate_preserves_sssp => Sssp,
    migrate_preserves_btc => Btc,
    migrate_preserves_mb => Mb,
    migrate_preserves_ll => Ll,
}

/// The macro list above must cover the registry exactly.
#[test]
fn every_registry_kind_is_covered() {
    assert_eq!(AccelKind::ALL.len(), 14);
}
