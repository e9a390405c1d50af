//! Every kind's bounded catalogue job, run through `Optimus`, matches its
//! `optimus_algo` oracle, and the oracle can fail: one flipped bit makes
//! `check` refuse, and no output region's oracle equals that buffer's
//! initial contents, so a kernel that wrote nothing would fail too.
//!
//! ci.sh runs this suite a second time with `OPTIMUS_NO_FASTFWD=1`, so
//! every kind's `next_event` hint is checked against an oracle both
//! fast-forwarded and stepped per cycle.

use optimus::hypervisor::{Optimus, OptimusConfig};
use optimus_accel::registry::AccelKind;
use optimus_bench::catalog::{self, Fill, Spec, Value};
use optimus_testkit::gens;
use optimus_testkit::{prop_assert, prop_assert_eq};

/// A small bounded job of `kind`, `scale` times the base size.
fn small(kind: AccelKind, scale: u64) -> catalog::Program {
    let units = match kind {
        AccelKind::Sssp => 1024,
        AccelKind::Btc => 20_000,
        AccelKind::Mb | AccelKind::Wild => 2000,
        AccelKind::Ll => 500,
        _ => 1024,
    };
    catalog::program(kind, &Spec { working_set: 1 << 20, ..Spec::bounded(units * scale, 0x0c47) })
}

#[test]
fn every_kind_matches_its_oracle_and_a_flipped_bit_is_refused() {
    for kind in AccelKind::ALL.into_iter().chain([AccelKind::Wild, AccelKind::HcDma]) {
        let job = small(kind, 1);
        let oracle = catalog::oracle(&job).expect("a bounded job has an oracle");
        for (buf, want) in &oracle.regions {
            let mut initial = match &job.buffers[*buf].fill {
                Fill::Bytes(bytes) => bytes.clone(),
                _ => Vec::new(),
            };
            initial.resize(want.len(), 0);
            assert_ne!(&initial, want, "{kind:?}: buffer {buf}'s oracle is its initial contents");
        }
        let mut hv = Optimus::new(OptimusConfig::new(vec![kind]));
        let vm = hv.create_vm("oracle");
        let va = hv.create_vaccel(vm, 0);
        let placed = catalog::apply(&job, &mut hv.guest(va));
        assert!(hv.run_until_done(va, 200_000_000), "{kind:?}: job never ended");
        let mut g = hv.guest(va);
        assert_eq!(catalog::check(&oracle, &placed, &mut g), Ok(()), "{kind:?}");
        let mut wrong = oracle.clone();
        match (wrong.regions.first_mut(), wrong.regs.first_mut()) {
            (Some((_, bytes)), _) => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 1;
            }
            (None, Some((_, Value::Imm(v) | Value::At(_, v)))) => *v ^= 1 << 6,
            (None, None) => panic!("{kind:?}: the oracle checks nothing"),
        }
        assert!(catalog::check(&wrong, &placed, &mut g).is_err(), "{kind:?}: a flipped bit passed");
    }
}

/// Cycles each tenant of an eight-slot run may take to finish. The
/// slowest passing case among replay seeds 1..=100 ends at cycle 1.72 M;
/// 20 M is ≈ 11× that. Some draws never finish: an SSSP job four times
/// the base size on the time-shared slot, with a 3.6–5.6 k-cycle slice,
/// re-gathers its whole round after every restore and never reaches the
/// relaxation (replay seeds 19, 21, 47, 54 and 85). With this budget
/// such a draw fails in seconds and the runner names its seed, instead of
/// stepping 400 M cycles.
const TENANT_BUDGET: u64 = 20_000_000;

/// What one eight-slot run leaves behind: the final cycle, the
/// hypervisor's counters, each port's byte counts, and each tenant's
/// oracle verdict.
#[derive(Debug, PartialEq)]
struct Outcome {
    now: u64,
    stats: optimus::hypervisor::HvStats,
    ports: Vec<(u64, u64)>,
    verdicts: Vec<Result<(), catalog::Mismatch>>,
}

/// One `Optimus` with a slot per entry of `kinds`, one tenant per slot
/// plus a second one on slot `shared`, all run to completion. The two
/// tenants of the shared slot start first, with jobs four times the size,
/// so they outlast their slices; the other tenants follow at staggered
/// intervals of 1–3 × `stagger` cycles.
fn eight_slots(kinds: &[AccelKind], shared: usize, stagger: u64, slice: u64, fastfwd: bool) -> Outcome {
    let mut cfg = OptimusConfig::new(kinds.to_vec());
    cfg.time_slice = slice;
    let mut hv = Optimus::new(cfg);
    hv.device_mut().set_fast_forward(fastfwd);
    let others = (0..kinds.len()).filter(|&s| s != shared);
    let mut tenants = Vec::new();
    for (i, slot) in [shared, shared].into_iter().chain(others).enumerate() {
        let mut job = small(kinds[slot], if slot == shared { 4 } else { 1 });
        job.add_state(1 << 21);
        let oracle = catalog::oracle(&job).expect("a bounded job has an oracle");
        let vm = hv.create_vm("tenant");
        let va = hv.create_vaccel(vm, slot);
        let placed = catalog::apply(&job, &mut hv.guest(va));
        tenants.push((va, oracle, placed));
        hv.run(stagger * (1 + i as u64 % 3));
    }
    for (i, (va, ..)) in tenants.iter().enumerate() {
        assert!(hv.run_until_done(*va, TENANT_BUDGET), "tenant {i}'s job never ended");
    }
    let verdicts = tenants
        .iter()
        .map(|(va, oracle, placed)| catalog::check(oracle, placed, &mut hv.guest(*va)))
        .collect();
    let dev = hv.device();
    Outcome {
        now: dev.now(),
        stats: hv.stats(),
        ports: (0..kinds.len()).map(|i| dev.port(i).byte_counts()).collect(),
        verdicts,
    }
}

/// Fast-forward against per-cycle stepping with eight busy and quiescent
/// slots side by side: the case the device's per-slot wake cache changes.
/// LinkedList and MemBench are always present; the other six kinds are
/// drawn from the catalogue, and one slot time-shares two tenants on a
/// short slice, so drain, save and restore run beside streaming
/// neighbours.
#[test]
fn eight_slots_fast_forward_matches_per_cycle() {
    let mut cfg = optimus_testkit::runner::Config::from_env();
    // Each case runs two eight-slot machines to completion; clamp the
    // default case count (OPTIMUS_PROP_CASES still lowers it).
    cfg.cases = cfg.cases.min(4);
    let preemptions = std::cell::Cell::new(0);
    let pool: Vec<AccelKind> =
        AccelKind::ALL.into_iter().chain([AccelKind::Wild, AccelKind::HcDma]).collect();
    let gen = gens::zip4(
        gens::vec_of(gens::choose(pool), 6..7),
        gens::usize_in(0..8),
        gens::u64_in(0..2_000),
        gens::u64_in(3_000..8_000),
    );
    optimus_testkit::runner::check_with(
        &cfg,
        "eight_slots_fast_forward_matches_per_cycle",
        &gen,
        |(drawn, shared, stagger, slice)| {
            let always = [AccelKind::Ll, AccelKind::Mb];
            let kinds: Vec<AccelKind> = always.into_iter().chain(drawn.iter().copied()).collect();
            if kinds.len() != 8 {
                return Ok(()); // a shrunk draw
            }
            let fast = eight_slots(&kinds, *shared, *stagger, *slice, true);
            let slow = eight_slots(&kinds, *shared, *stagger, *slice, false);
            prop_assert_eq!(&fast, &slow, "fast-forward diverges from per-cycle stepping");
            for (i, verdict) in fast.verdicts.iter().enumerate() {
                prop_assert!(verdict.is_ok(), "tenant {i}: {verdict:?}");
            }
            preemptions.set(preemptions.get() + fast.stats.preemptions);
            Ok(())
        },
    );
    // Not every draw outlasts a slice, but the run as a whole must have
    // saved and restored beside its neighbours. (A replay runs one case,
    // which need not preempt.)
    if cfg.replay_seed.is_none() {
        assert!(preemptions.get() > 0, "no case preempted the shared slot");
    }
}
