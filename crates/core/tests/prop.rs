//! Property-based tests of the hypervisor's address math and schedulers,
//! on the in-tree `optimus-testkit` harness (replay failures with
//! `OPTIMUS_PROP_SEED=<printed seed>`).

use optimus::hypervisor::{Optimus, OptimusConfig};
use optimus::scheduler::{SchedPolicy, SliceScheduler};
use optimus::slicing::SlicingConfig;
use optimus_accel::hash::reg as hash_reg;
use optimus_accel::linked_list::LlKernel;
use optimus_accel::membench::MbKernel;
use optimus_accel::registry::AccelKind;
use optimus_fabric::mmio::accel_reg;
use optimus_mem::addr::Gva;
use optimus_testkit::gens;
use optimus_testkit::runner::check;
use optimus_testkit::{prop_assert, prop_assert_eq, prop_assert_ne};

/// Slicing GVA→IOVA→GVA round-trips for any slice and DMA base, and
/// distinct slices never produce the same IOVA for the same in-slice
/// offset.
#[test]
fn slicing_round_trips_and_isolates() {
    let gen = gens::zip4(
        gens::u64_in(0..8),
        gens::u64_in(0..8),
        // 2 MB-aligned DMA base below 1<<46 (quotient of the alignment).
        gens::u64_in(0..1 << 25).map(|q| q << 21),
        gens::u64_in(0..64 << 30),
    );
    check(
        "slicing_round_trips_and_isolates",
        &gen,
        |&(slice_a, slice_b, dma_base, offset)| {
            let cfg = SlicingConfig::default();
            let base = Gva::new(dma_base);
            let gva = Gva::new(dma_base + offset);
            let iova = cfg.gva_to_iova(slice_a, base, gva);
            // Round trip.
            let back = iova.raw().wrapping_sub(cfg.offset_for(slice_a, base));
            prop_assert_eq!(back, gva.raw());
            // Containment in the slice window.
            prop_assert!(iova.raw() >= cfg.slice_base(slice_a).raw());
            prop_assert!(iova.raw() < cfg.slice_base(slice_a).raw() + cfg.slice_bytes);
            // Isolation: different slices, same in-slice offset, different IOVA.
            if slice_a != slice_b {
                let other = cfg.gva_to_iova(slice_b, base, gva);
                prop_assert_ne!(iova.raw(), other.raw());
            }
            Ok(())
        },
    );
}

/// Runs two time-sliced jobs of `kind` through the full hypervisor stack
/// (traps, hypercalls, install/preempt, mux tree, IOMMU) in the given
/// fast-forward mode and returns an exhaustive fingerprint of everything
/// the measured figures derive from.
fn hypervisor_fingerprint(ff: bool, kind_sel: u8, work: u64, slice: u64, seed: u64) -> Vec<u64> {
    let kind = match kind_sel % 3 {
        0 => AccelKind::Ll,
        1 => AccelKind::Mb,
        _ => AccelKind::Md5,
    };
    let mut cfg = OptimusConfig::new(vec![kind]);
    cfg.time_slice = slice;
    let mut hv = Optimus::new(cfg);
    hv.device_mut().set_fast_forward(ff);
    let vms = [hv.create_vm("a"), hv.create_vm("b")];
    let vas = [hv.create_vaccel(vms[0], 0), hv.create_vaccel(vms[1], 0)];
    for (i, &va) in vas.iter().enumerate() {
        // Per-guest job size, deterministically derived but distinct.
        let work = work / (i as u64 + 1);
        let mut g = hv.guest(va);
        let state = g.alloc_dma(1 << 21);
        g.set_state_buffer(state);
        match kind {
            AccelKind::Ll => {
                let nodes = 64u64;
                let region = g.alloc_dma(nodes * 64);
                let mut blob = vec![0u8; (nodes * 64) as usize];
                for n in 0..nodes {
                    let next = region.raw() + ((n * 7 + 1) % nodes) * 64;
                    blob[(n * 64) as usize..(n * 64 + 8) as usize]
                        .copy_from_slice(&next.to_le_bytes());
                }
                g.write_mem(region, &blob);
                g.mmio_write(accel_reg::APP_BASE + LlKernel::REG_START, region.raw());
                g.mmio_write(accel_reg::APP_BASE + LlKernel::REG_STEPS, 20 + work % 60);
            }
            AccelKind::Mb => {
                let region = g.alloc_dma(1 << 21);
                g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_REGION, region.raw());
                g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_BYTES, 1 << 16);
                g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_OPS, 100 + work % 300);
                g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_SEED, seed ^ i as u64);
            }
            _ => {
                let lines = 16 + work % 48;
                let region = g.alloc_dma(1 << 21);
                let data: Vec<u8> = (0..lines * 64)
                    .map(|b| (b as u8).wrapping_mul(31).wrapping_add(seed as u8))
                    .collect();
                g.write_mem(region, &data);
                g.mmio_write(accel_reg::APP_BASE + hash_reg::SRC, region.raw());
                g.mmio_write(accel_reg::APP_BASE + hash_reg::DST, region.raw() + lines * 64);
                g.mmio_write(accel_reg::APP_BASE + hash_reg::LINES, lines);
            }
        }
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    let done = [
        hv.run_until_done(vas[0], 4_000_000),
        hv.run_until_done(vas[1], 4_000_000),
    ];
    let stats = hv.stats();
    let mut fp = vec![
        hv.device().now(),
        done[0] as u64,
        done[1] as u64,
        stats.traps,
        stats.hypercalls,
        stats.pinned_pages,
        stats.context_switches,
        stats.preemptions,
        stats.forced_resets,
        hv.device().dropped_packets(),
        hv.device().host().faulted_dmas(),
        hv.device().host().total_dma_bytes(),
        hv.device().port(0).stale_discarded(),
    ];
    let (read, written) = hv.device().port(0).byte_counts();
    fp.push(read);
    fp.push(written);
    // Guest-visible progress registers (the measured-figure inputs).
    let progress_reg = match kind {
        AccelKind::Ll => LlKernel::REG_DONE_STEPS,
        AccelKind::Mb => MbKernel::REG_COMPLETED,
        _ => hash_reg::DIGEST0,
    };
    for &va in &vas {
        fp.push(hv.guest(va).mmio_read(accel_reg::APP_BASE + progress_reg));
    }
    fp.push(hv.device().now());
    fp
}

/// Differential equivalence at the hypervisor level: fast-forwarding
/// yields bit-identical cycle counts, trap/preemption statistics, port
/// byte counts, and guest-visible results for random time-sliced
/// workloads on each of LinkedList, MemBench, and MD5.
#[test]
fn fast_forward_is_bit_exact_under_the_hypervisor() {
    let gen = gens::zip4(
        gens::u8_in(0..3),
        gens::u64_in(0..1000),
        gens::u64_in(3_000..12_000),
        gens::u64_any(),
    );
    check(
        "fast_forward_is_bit_exact_under_the_hypervisor",
        &gen,
        |&(kind_sel, work, slice, seed)| {
            let fast = hypervisor_fingerprint(true, kind_sel, work, slice, seed);
            let slow = hypervisor_fingerprint(false, kind_sel, work, slice, seed);
            prop_assert_eq!(&fast, &slow, "fingerprints diverge");
            Ok(())
        },
    );
}

/// One recording plane as the invisibility property sees it.
struct PlaneRow {
    name: &'static str,
    /// The plane's per-thread gate.
    set_enabled: fn(bool),
    /// Discards what the plane recorded on this thread.
    reset: fn(),
    /// Non-vacuity probe: did the run just finished record anything?
    recorded: fn() -> bool,
}

/// The planes whose recording is toggled around [`hypervisor_fingerprint`].
/// (The spec plane's differential lives in `spec_prop`: it needs the
/// WildDma adversary to be non-vacuous, and checks containment as well.)
fn plane_rows() -> [PlaneRow; 3] {
    use optimus_sim::{journal, metrics, trace};
    [
        PlaneRow {
            name: "trace",
            set_enabled: trace::set_enabled,
            reset: trace::reset,
            recorded: || trace::event_count() > 0,
        },
        PlaneRow {
            name: "metrics",
            set_enabled: metrics::set_enabled,
            reset: metrics::reset,
            recorded: || {
                metrics::counter_total(metrics::HV_MMIO_TRAPS) > 0
                    && metrics::counter_total(metrics::HV_CONTEXT_SWITCHES) > 0
                    && metrics::hist_total_count(metrics::MEM_PAGE_WALK_CYCLES) > 0
            },
        },
        PlaneRow {
            name: "journal",
            set_enabled: journal::set_enabled,
            reset: journal::reset,
            recorded: || journal::job_count() >= 2,
        },
    ]
}

/// Differential equivalence of the recording planes: the same random
/// time-sliced workload yields bit-identical fingerprints with every
/// plane off, with each plane on alone, and with all of them on —
/// recording is read-only with respect to simulation state (job ids are
/// minted whether or not the journal records) — while each enabled plane
/// actually records (the property is not vacuous) and each disabled one
/// records nothing.
#[test]
fn recording_planes_are_invisible_to_the_simulation() {
    let gen = gens::zip4(
        gens::u8_in(0..3),
        gens::u64_in(0..1000),
        gens::u64_in(3_000..12_000),
        gens::u64_any(),
    );
    let rows = plane_rows();
    // Which rows are on in each arm: none (the reference), each alone, all.
    let n = rows.len();
    let mut arms = vec![vec![false; n]];
    arms.extend((0..n).map(|i| (0..n).map(|j| j == i).collect()));
    arms.push(vec![true; n]);
    let names: Vec<&str> = rows.iter().map(|row| row.name).collect();
    check(
        "recording_planes_are_invisible_to_the_simulation",
        &gen,
        |&(kind_sel, work, slice, seed)| {
            let mut reference = None;
            for arm in &arms {
                for (row, &on) in rows.iter().zip(arm) {
                    (row.set_enabled)(on);
                    (row.reset)();
                }
                let fp = hypervisor_fingerprint(true, kind_sel, work, slice, seed);
                let recorded: Vec<bool> = rows.iter().map(|row| (row.recorded)()).collect();
                for row in &rows {
                    (row.set_enabled)(false);
                    (row.reset)();
                }
                prop_assert_eq!(&recorded, arm, "which of {:?} recorded", names);
                let reference = reference.get_or_insert_with(|| fp.clone());
                prop_assert_eq!(&fp, &*reference, "arm {:?} perturbed the simulation", arm);
            }
            Ok(())
        },
    );
}

/// A metered time-sliced run populates at least one counter and one
/// histogram in every instrumented layer, and the Prometheus exposition
/// of that state is well-formed (every series unique, counters integral).
#[test]
fn metrics_cover_all_layers_and_expose_cleanly() {
    use optimus_sim::metrics;
    metrics::set_enabled(true);
    metrics::reset();
    let _ = hypervisor_fingerprint(true, 1, 500, 6_000, 42);
    let text = metrics::prometheus_text();
    let series = metrics::snapshot();
    metrics::reset();
    for layer in ["hv", "mem", "cci", "fabric"] {
        let mut has_counter = false;
        let mut has_hist = false;
        for s in &series {
            if s.def.layer != layer {
                continue;
            }
            match &s.value {
                metrics::SeriesValue::Counter(v) => has_counter |= *v > 0,
                metrics::SeriesValue::Hist(h) => has_hist |= h.count > 0,
                metrics::SeriesValue::Gauge(_) => {}
            }
        }
        assert!(has_counter, "layer {layer} exported no live counter");
        assert!(has_hist, "layer {layer} exported no live histogram");
    }
    // Exposition sanity: one HELP/TYPE pair per live metric, no
    // duplicate sample lines.
    let mut seen = std::collections::HashSet::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let key = line.rsplit_once(' ').expect("sample has a value").0;
        assert!(seen.insert(key.to_string()), "duplicate series: {key}");
    }
    assert!(text.contains("# TYPE optimus_hv_mmio_traps_total counter"));
}

/// A traced time-sliced run produces events from every instrumented
/// layer, and the exported Chrome trace is cycle-monotone in file order.
#[test]
fn trace_covers_all_layers_with_monotone_cycles() {
    use optimus_sim::trace;
    trace::set_enabled(true);
    trace::reset();
    let _ = hypervisor_fingerprint(true, 2, 500, 6_000, 42);
    let json = trace::chrome_trace_json();
    let traps = optimus_sim::metrics::counter_total(optimus_sim::metrics::HV_MMIO_TRAPS);
    trace::set_enabled(false);
    trace::reset();
    for needle in [
        "mmio_trap",
        "hypercall",
        "iotlb_miss",
        "page_walk",
        "mux_grant",
        "preempt.",
    ] {
        assert!(json.contains(needle), "trace missing {needle} events");
    }
    assert!(traps > 0, "metrics plane counted no MMIO traps");
    let mut last = 0u64;
    for part in json.split("\"cycle\":").skip(1) {
        let end = part
            .find(|c: char| !c.is_ascii_digit())
            .expect("cycle arg terminates");
        let cycle: u64 = part[..end].parse().expect("cycle arg is an integer");
        assert!(cycle >= last, "cycle stamps regressed: {cycle} < {last}");
        last = cycle;
    }
    assert!(last > 0, "no cycle stamps in exported trace");
}

/// Round-robin occupancy never deviates more than one slice from fair.
#[test]
fn round_robin_is_within_one_slice() {
    let gen = gens::zip2(gens::usize_in(1..10), gens::usize_in(1..200));
    check(
        "round_robin_is_within_one_slice",
        &gen,
        |&(members, slices)| {
            let mut s = SliceScheduler::new(SchedPolicy::RoundRobin, 100);
            for k in 0..members as u64 {
                s.add(k, 1, 0);
            }
            for _ in 0..slices {
                s.next_slice();
            }
            let occ = s.occupancy();
            let max = occ.iter().map(|&(_, c)| c).max().unwrap();
            let min = occ.iter().map(|&(_, c)| c).min().unwrap();
            prop_assert!(max - min <= 100);
            Ok(())
        },
    );
}

/// Weighted occupancy converges to the weight ratios.
#[test]
fn weighted_shares_converge() {
    let gen = gens::vec_of(gens::u32_in(1..8), 2..6);
    check("weighted_shares_converge", &gen, |weights: &Vec<u32>| {
        let mut s = SliceScheduler::new(SchedPolicy::Weighted, 10);
        for (k, &w) in weights.iter().enumerate() {
            s.add(k as u64, w, 0);
        }
        for _ in 0..weights.len() * 50 {
            s.next_slice();
        }
        let occ = s.occupancy();
        let total: u64 = occ.iter().map(|&(_, c)| c).sum();
        let wsum: u32 = weights.iter().sum();
        for (k, &w) in weights.iter().enumerate() {
            let actual = occ[k].1 as f64 / total as f64;
            let expect = w as f64 / wsum as f64;
            prop_assert!(
                (actual - expect).abs() < 0.05,
                "member {k}: {actual} vs {expect}"
            );
        }
        Ok(())
    });
}
