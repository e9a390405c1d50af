//! The three spatially multiplexed workloads: one device, one tenant per
//! slot, every tenant running for the whole timed section.
//!
//! * `ll_chase` — latency-bound above IOTLB reach;
//! * `mb_rw` — bandwidth-bound inside IOTLB reach;
//! * `compute_mix` — compute-bound, memory nearly idle.
//!
//! With one tenant per slot no slice boundary ever preempts, so the
//! hypervisor's host cost cannot move these timed sections.

use super::{Outcome, Params, Phase, Workload};
use crate::gen::{seed_for, stream};
use crate::kernels::{self, short_name, JobSpec, Launched, APP, COMPUTE_KINDS};
use crate::spans::Spans;
use crate::stack::{SimStats, Stack, Window};
use optimus::hypervisor::{Optimus, OptimusConfig, TrapCost};
use optimus::vaccel::VaccelId;
use optimus_accel::linked_list::LlKernel;
use optimus_accel::membench::MbKernel;
use optimus_accel::registry::AccelKind;
use optimus_cci::channel::SelectorPolicy;
use optimus_mem::addr::{Gva, PageSize};
use optimus_sim::rng::Xoshiro256;
use optimus_sim::time::Cycle;

/// Timed chunks per pass.
const CHUNKS: usize = 256;
/// Written lines sampled per MemBench tenant for the read-back check.
const MB_SAMPLES: usize = 32;
/// Lines of the bounded job each compute slot is checked with.
const VERIFY_LINES: u64 = 256;
/// Cycles of each paper-companion window.
const COMPANION_WINDOW: Cycle = 200_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    LlChase,
    MbRw,
    ComputeMix,
}

/// A spatial workload, built and warmed up.
pub struct Spatial {
    kind: Kind,
    stack: Stack,
    tenants: Vec<(VaccelId, Launched)>,
    chunk_cycles: Cycle,
    seed: u64,
    corrupt: bool,
}

/// The job tenant `slot` of a spatial workload runs: unbounded, or long
/// enough to outlast `window` cycles.
pub fn spec_for(kind: AccelKind, seed: u64, slot: usize, window: Cycle) -> JobSpec {
    let seed = seed_for(seed, stream::TENANT, slot as u64);
    // Streaming regions outlast the window at twice the kind's nominal
    // demand (plus margin), so no kernel finishes inside it.
    let secs = window as f64 * 2.5e-9;
    let bytes = ((kind.meta().demand * 12.8 + 0.5) * 1e9 * secs * 2.0) as u64;
    let lines = bytes.next_power_of_two().max(8 << 20) / 64;
    match kind {
        AccelKind::Ll => JobSpec {
            kind,
            work: 0,
            working_set: 1 << 30,
            mb_mode: 0,
            seed,
        },
        AccelKind::Mb => JobSpec {
            kind,
            work: 0,
            working_set: 64 << 20,
            mb_mode: 2,
            seed,
        },
        AccelKind::Btc => JobSpec {
            kind,
            work: 0,
            working_set: 0,
            mb_mode: 0,
            seed,
        },
        _ => JobSpec {
            kind,
            work: lines,
            working_set: 0,
            mb_mode: 0,
            seed,
        },
    }
}

impl Spatial {
    pub fn ll_chase(p: &Params, sp: &mut Spans) -> Self {
        Self::build(
            Kind::LlChase,
            vec![AccelKind::Ll; 8],
            SelectorPolicy::UpiOnly,
            200_000,
            p,
            sp,
        )
    }

    pub fn mb_rw(p: &Params, sp: &mut Spans) -> Self {
        Self::build(
            Kind::MbRw,
            vec![AccelKind::Mb; 8],
            SelectorPolicy::Auto,
            1_000_000,
            p,
            sp,
        )
    }

    pub fn compute_mix(p: &Params, sp: &mut Spans) -> Self {
        Self::build(
            Kind::ComputeMix,
            COMPUTE_KINDS.to_vec(),
            SelectorPolicy::Auto,
            100_000,
            p,
            sp,
        )
    }

    fn build(
        kind: Kind,
        slots: Vec<AccelKind>,
        policy: SelectorPolicy,
        warmup: Cycle,
        p: &Params,
        sp: &mut Spans,
    ) -> Self {
        let mut cfg = OptimusConfig::new(slots.clone());
        cfg.channel_policy = policy;
        cfg.seed = seed_for(p.seed, stream::DEVICE, 0);
        let mut hv = Optimus::new(cfg);
        let mut tenants = Vec::new();
        for (slot, &k) in slots.iter().enumerate() {
            let s = sp.begin("setup.create_vm");
            let vm = hv.create_vm(&format!("vm{slot}"));
            sp.end(s);
            let s = sp.begin("setup.create_vaccel");
            let va = hv.create_vaccel(vm, slot);
            sp.end(s);
            let spec = spec_for(k, p.seed, slot, p.budget + warmup);
            // MemBench keeps its bytes: the read-back check needs them.
            let keep = k == AccelKind::Mb;
            let job = kernels::launch(&mut hv.guest(va), &spec, PageSize::Huge, keep, true, sp);
            tenants.push((va, job));
        }
        let s = sp.begin("setup.warmup");
        hv.run(warmup);
        sp.end(s);
        Self {
            kind,
            stack: Stack::single_device(hv),
            tenants,
            chunk_cycles: (p.budget / CHUNKS as u64).max(1),
            seed: p.seed,
            corrupt: p.corrupt,
        }
    }

    /// Reads an application register of `slot` without a trap (both
    /// registers of a pair must be read in the same cycle).
    fn peek(&mut self, slot: usize, reg: u64) -> u64 {
        self.stack
            .single()
            .device_mut()
            .accel_mut(slot)
            .mmio_read(APP + reg)
    }

    fn verify_ll(&mut self, out: &mut Outcome) {
        for slot in 0..self.tenants.len() {
            let job = self.tenants[slot].1;
            let hops = self.peek(slot, LlKernel::REG_DONE_STEPS);
            let cursor = self.peek(slot, LlKernel::REG_CURRENT);
            let mut want =
                kernels::ll_cursor(job.src.raw(), job.spec.ll_nodes(), job.spec.seed, hops);
            if self.corrupt && slot == 0 {
                want ^= 64;
            }
            out.check(cursor == want && hops > 0, || {
                format!("ll tenant {slot}: cursor {cursor:#x} after {hops} hops, replay {want:#x}")
            });
            out.fingerprint_words.extend([hops, cursor]);
        }
    }

    fn verify_mb(&mut self, out: &mut Outcome) {
        for slot in 0..self.tenants.len() {
            let (va, job) = self.tenants[slot];
            let completed = self.peek(slot, MbKernel::REG_COMPLETED);
            let hv = self.stack.single();
            let port = hv.device().port(slot);
            let (r, w) = port.byte_counts();
            let queued = port.queued_responses() as u64;
            let mut want = (completed + queued) * 64;
            if self.corrupt && slot == 0 {
                want ^= 64;
            }
            out.check(r + w == want, || {
                format!(
                    "mb tenant {slot}: {} bytes for {completed}+{queued} lines",
                    r + w
                )
            });
            // Read sampled lines back; a written line carries the index of
            // the (odd) operation that wrote it.
            let lines = job.spec.working_set / 64;
            let mut rng = Xoshiro256::seed_from(seed_for(self.seed, stream::SAMPLE, slot as u64));
            let mut sampled: Vec<(u64, u64)> = Vec::new();
            for _ in 0..MB_SAMPLES {
                let line = rng.gen_range(0..lines);
                let mut buf = [0u8; 8];
                hv.guest(va)
                    .read_mem(Gva::new(job.src.raw() + line * 64), &mut buf);
                let op = u64::from_le_bytes(buf);
                if op != 0 {
                    sampled.push((op, line));
                }
            }
            sampled.sort_unstable();
            // Replay the kernel's address stream up to the latest sampled
            // operation and compare where each one landed.
            let mut replay = Xoshiro256::seed_from(job.spec.seed);
            let mut next_op = 0u64;
            for &(op, line) in &sampled {
                let mut addr = 0;
                while next_op <= op {
                    addr = replay.gen_range(0..lines);
                    next_op += 1;
                }
                out.check(op % 2 == 1 && addr == line, || {
                    format!("mb tenant {slot}: line {line} holds op {op}, which wrote line {addr}")
                });
            }
            out.fingerprint_words
                .extend([completed, sampled.len() as u64]);
        }
    }

    /// Each compute slot runs one bounded job on a fresh stack of the same
    /// configuration and is compared with `optimus_algo`. (The timed
    /// tenants run unbounded jobs whose outputs are scratch; restarting a
    /// kernel with DMAs in flight would race its own stale responses.)
    fn verify_compute(&mut self, out: &mut Outcome, sp: &mut Spans) {
        let mut cfg = OptimusConfig::new(COMPUTE_KINDS.to_vec());
        cfg.seed = seed_for(self.seed, stream::DEVICE, 0);
        let mut hv = Optimus::new(cfg);
        let mut jobs = Vec::new();
        for (slot, &k) in COMPUTE_KINDS.iter().enumerate() {
            let vm = hv.create_vm(&format!("verify{slot}"));
            let va = hv.create_vaccel(vm, slot);
            let spec = JobSpec::bounded(
                k,
                VERIFY_LINES,
                seed_for(self.seed, stream::VERIFY, slot as u64),
            );
            let job = kernels::launch(&mut hv.guest(va), &spec, PageSize::Huge, true, true, sp);
            jobs.push((va, job));
        }
        for (slot, (va, job)) in jobs.iter().enumerate() {
            let done = hv.run_until_done(*va, 50_000_000);
            let ok = done && kernels::check(&mut hv.guest(*va), job, self.corrupt && slot == 0);
            out.check(ok, || {
                format!(
                    "compute slot {slot} ({}): bounded job wrong",
                    short_name(job.spec.kind)
                )
            });
        }
        let s = hv.stats();
        out.check(
            s.dropped_packets + s.discarded_dma + s.discarded_mmio == 0,
            || "verify stack dropped or discarded traffic".to_string(),
        );
    }

    /// Fig. 4 companion: the same kernel, one job, on OPTIMUS and on the
    /// pass-through baseline under the paper's configuration. Returns the
    /// measured OPTIMUS/pass-through percentage.
    fn companion(&self) -> Option<(f64, f64)> {
        let (kind, policy, paper) = match self.kind {
            Kind::LlChase => (AccelKind::Ll, SelectorPolicy::UpiOnly, 124.2),
            Kind::MbRw => (AccelKind::Mb, SelectorPolicy::Auto, 90.1),
            Kind::ComputeMix => return None,
        };
        let spec = JobSpec {
            kind,
            work: 0,
            working_set: 64 << 20,
            mb_mode: 0,
            seed: seed_for(self.seed, stream::VERIFY, 0),
        };
        let measure = |mut hv: Optimus| -> (f64, f64) {
            let vm = hv.create_vm("companion");
            let va = hv.create_vaccel(vm, 0);
            let mut quiet = Spans::new(false);
            kernels::launch(
                &mut hv.guest(va),
                &spec,
                PageSize::Huge,
                false,
                true,
                &mut quiet,
            );
            let mut stack = Stack::single_device(hv);
            stack.run(80_000);
            let w = Window::open(&mut stack);
            stack.run(COMPANION_WINDOW);
            let sim = w.close(&mut stack);
            (sim.dma_lat.mean_cycles(), sim.total_bytes() as f64)
        };
        let mut cfg = OptimusConfig::new(vec![kind; 8]);
        cfg.channel_policy = policy;
        let (opt_lat, opt_bytes) = measure(Optimus::new(cfg));
        let (pt_lat, pt_bytes) = measure(Optimus::new_passthrough(
            kind,
            policy,
            TrapCost::Virtualized,
        ));
        let measured = match self.kind {
            Kind::LlChase => opt_lat / pt_lat * 100.0,
            _ => opt_bytes / pt_bytes * 100.0,
        };
        Some((measured, paper))
    }
}

impl Workload for Spatial {
    fn stack(&mut self) -> &mut Stack {
        &mut self.stack
    }

    fn phases(&self) -> Vec<Phase> {
        vec![Phase {
            name: "steady",
            chunks: CHUNKS,
        }]
    }

    fn chunk(&mut self, _phase: usize, _index: usize, sp: &mut Spans) {
        let s = sp.begin("hv.run");
        self.stack.run(self.chunk_cycles);
        sp.end(s);
    }

    fn verify(&mut self, sim: &SimStats, sp: &mut Spans) -> Outcome {
        let mut out = Outcome::default();
        // Progress: bytes moved over the window, normalized by the kind's
        // nominal demand. The miner moves no bytes and is left out.
        let mut lines: Vec<(&'static str, u64)> = Vec::new();
        for (slot, (_, job)) in self.tenants.iter().enumerate() {
            let (r, w) = sim.port_bytes[0][slot];
            let name = short_name(job.spec.kind);
            match lines.iter_mut().find(|(n, _)| *n == name) {
                Some(e) => e.1 += (r + w) / 64,
                None => lines.push((name, (r + w) / 64)),
            }
            if job.spec.kind != AccelKind::Btc {
                out.progress
                    .push((r + w) as f64 / job.spec.kind.meta().demand);
            }
        }
        out.lines_by_kind = lines;
        match self.kind {
            Kind::LlChase => self.verify_ll(&mut out),
            Kind::MbRw => self.verify_mb(&mut out),
            Kind::ComputeMix => self.verify_compute(&mut out, sp),
        }
        if let Some((measured, paper)) = self.companion() {
            out.paper_err_pct = Some((measured - paper).abs() / paper * 100.0);
            out.fingerprint_words.push(measured.to_bits());
        }
        out
    }
}
