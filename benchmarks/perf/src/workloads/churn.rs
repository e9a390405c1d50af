//! `tenant_churn`: sixteen closed-loop clients time-share four slots.
//!
//! Each client submits a bounded job (seeded bimodal size), polls
//! `CTRL_STATUS` through the trapped MMIO path every 20 000 cycles (16
//! clients at 800 cycles a trap leave the scheduler no cycle at the
//! issue's 10 000), reads the result back when the job is done, and
//! resubmits. Four clients share each slot under a 40 000-cycle slice, so
//! short jobs queue behind preempted long ones. The only workload whose
//! host time is the hypervisor's: traps, scheduler, install/preempt/
//! restore, watchdog and the job journal.
//!
//! Closed loop, 16 clients: a slower system receives less load.

use super::{executing_cycles, job_stats, Outcome, Params, Phase, Workload};
use crate::gen::{job_sizes, seed_for, stream};
use crate::kernels::{self, short_name, JobSpec, Launched, APP};
use crate::spans::Spans;
use crate::stack::{SimStats, Stack};
use optimus::hypervisor::{Optimus, OptimusConfig};
use optimus::vaccel::VaccelId;
use optimus_accel::aes::AesKernel;
use optimus_accel::hash::reg as hash_reg;
use optimus_accel::membench::MbKernel;
use optimus_accel::registry::AccelKind;
use optimus_fabric::accelerator::CtrlStatus;
use optimus_fabric::mmio::accel_reg;
use optimus_mem::addr::{Gva, PageSize};
use optimus_sim::journal;
use optimus_sim::time::Cycle;

const SLOTS: [AccelKind; 4] = [
    AccelKind::Sha,
    AccelKind::Md5,
    AccelKind::Aes,
    AccelKind::Mb,
];
const CLIENTS: usize = 16;
const TIME_SLICE: Cycle = 40_000;
const POLL_EVERY: Cycle = 20_000;
const EPOCHS: usize = 256;
/// Fewest jobs a section must complete: one per this many cycles (the
/// issue's 2 000 jobs in 120 M cycles).
const CYCLES_PER_JOB_AT_MOST: u64 = 60_000;
/// Largest job, in lines: every client's source region holds this many.
const MAX_LINES: u64 = *crate::gen::LONG_LINES.end();
/// Job sizes drawn per client (the list wraps if a client outruns it).
const SIZES_PER_CLIENT: usize = 4_096;
const WARMUP: Cycle = 400_000;

/// What a client read back when a job completed.
#[derive(Debug, Clone)]
enum Readback {
    /// The digest line a hash kernel wrote.
    Digest(Vec<u8>),
    /// First and last output line of an AES job.
    Edges([u8; 64], [u8; 64]),
    /// MemBench's completed-operations register.
    Ops(u64),
}

#[derive(Debug, Clone)]
struct Completion {
    lines: u64,
    at: Cycle,
    readback: Readback,
}

struct Client {
    va: VaccelId,
    job: Launched,
    sizes: Vec<u64>,
    submitted: usize,
    in_flight: Option<u64>,
    next_poll: Cycle,
    done: Vec<Completion>,
}

pub struct Churn {
    stack: Stack,
    clients: Vec<Client>,
    epoch_cycles: Cycle,
    /// Device cycle the timed section started at.
    origin: Cycle,
    corrupt: bool,
}

/// The register a resubmission rewrites: the job's size.
fn size_reg(kind: AccelKind) -> u64 {
    match kind {
        AccelKind::Sha | AccelKind::Md5 => hash_reg::LINES,
        AccelKind::Aes => AesKernel::REG_LINES,
        AccelKind::Mb => MbKernel::REG_OPS,
        other => panic!("no churn client runs {other:?}"),
    }
}

impl Churn {
    pub fn build(p: &Params, sp: &mut Spans) -> Self {
        let mut cfg = OptimusConfig::new(SLOTS.to_vec());
        cfg.time_slice = TIME_SLICE;
        cfg.seed = seed_for(p.seed, stream::DEVICE, 0);
        let mut hv = Optimus::new(cfg);
        let mut clients = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            let slot = c % SLOTS.len();
            let s = sp.begin("setup.create_vm");
            let vm = hv.create_vm(&format!("client{c}"));
            sp.end(s);
            let s = sp.begin("setup.create_vaccel");
            let va = hv.create_vaccel(vm, slot);
            sp.end(s);
            let s = sp.begin("setup.gen_inputs");
            let sizes = job_sizes(p.seed, c as u64, SIZES_PER_CLIENT);
            sp.end(s);
            let mut g = hv.guest(va);
            let s = sp.begin("setup.alloc_dma");
            let state = g.alloc_dma(1 << 21);
            g.set_state_buffer(state);
            sp.end(s);
            // Regions sized for the largest job; the first job's size is
            // programmed like every later one, by `submit`.
            let spec = JobSpec::bounded(
                SLOTS[slot],
                MAX_LINES,
                seed_for(p.seed, stream::TENANT, c as u64),
            );
            let job = kernels::launch(&mut g, &spec, PageSize::Huge, true, false, sp);
            clients.push(Client {
                va,
                job,
                sizes,
                submitted: 0,
                in_flight: None,
                // Staggered first polls: the clients never move in step.
                next_poll: c as u64 * (POLL_EVERY / CLIENTS as u64),
                done: Vec::new(),
            });
        }
        let mut me = Self {
            stack: Stack::single_device(hv),
            clients,
            epoch_cycles: (p.budget / EPOCHS as u64).max(1),
            origin: 0,
            corrupt: p.corrupt,
        };
        let s = sp.begin("setup.warmup");
        let mut quiet = Spans::new(false);
        let until = me.stack.single().now() + WARMUP;
        me.run_until(until, &mut quiet);
        sp.end(s);
        me.origin = me.stack.single().now();
        me
    }

    /// Serves client polls in simulated-time order until `end`.
    fn run_until(&mut self, end: Cycle, sp: &mut Spans) {
        loop {
            let now = self.stack.single().now();
            let (ci, due) = self
                .clients
                .iter()
                .enumerate()
                .map(|(i, c)| (i, c.next_poll))
                .min_by_key(|&(i, t)| (t, i))
                .expect("clients exist");
            if due >= end {
                if now < end {
                    let s = sp.begin("hv.run");
                    self.stack.single().run(end - now);
                    sp.end(s);
                }
                return;
            }
            if due > now {
                let s = sp.begin("hv.run");
                self.stack.single().run(due - now);
                sp.end(s);
            }
            self.poll(ci, sp);
        }
    }

    /// One client turn: poll, and on completion read back and resubmit.
    fn poll(&mut self, ci: usize, sp: &mut Spans) {
        let hv = self.stack.single();
        let c = &mut self.clients[ci];
        let mut g = hv.guest(c.va);
        let s = sp.begin("guest.mmio_read");
        let status = CtrlStatus::from_u64(g.mmio_read(accel_reg::CTRL_STATUS));
        sp.end(s);
        let finished = c.in_flight.filter(|_| status == CtrlStatus::Done);
        if let Some(lines) = finished {
            let readback = match c.job.spec.kind {
                AccelKind::Sha | AccelKind::Md5 => {
                    let mut line = vec![0u8; 64];
                    g.read_mem(c.job.dst, &mut line);
                    Readback::Digest(line)
                }
                AccelKind::Aes => {
                    let (mut first, mut last) = ([0u8; 64], [0u8; 64]);
                    g.read_mem(c.job.dst, &mut first);
                    g.read_mem(Gva::new(c.job.dst.raw() + (lines - 1) * 64), &mut last);
                    Readback::Edges(first, last)
                }
                _ => {
                    let s = sp.begin("guest.mmio_read");
                    let ops = g.mmio_read(APP + MbKernel::REG_COMPLETED);
                    sp.end(s);
                    Readback::Ops(ops)
                }
            };
            c.done.push(Completion {
                lines,
                at: 0,
                readback,
            });
            c.in_flight = None;
        }
        if c.in_flight.is_none() {
            let lines = c.sizes[c.submitted % c.sizes.len()];
            let s = sp.begin("guest.mmio_write");
            g.mmio_write(APP + size_reg(c.job.spec.kind), lines);
            g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
            sp.end(s);
            c.submitted += 1;
            c.in_flight = Some(lines);
        }
        let now = hv.now();
        if finished.is_some() {
            c.done.last_mut().expect("pushed above").at = now;
        }
        c.next_poll = now + POLL_EVERY;
    }

    /// Compares every completion of client `ci` with the host replay.
    fn check_client(&self, ci: usize, out: &mut Outcome) {
        let c = &self.clients[ci];
        let kind = c.job.spec.kind;
        let tile = c.job.spec.tile();
        let line_of = |i: u64| -> &[u8] {
            let at = (i % kernels::TILE_LINES) as usize * 64;
            &tile[at..at + 64]
        };
        // Hash jobs digest prefixes of one repeating input: walk it once
        // and finalize a clone at every size a job used.
        let mut digests: std::collections::BTreeMap<u64, Vec<u8>> = Default::default();
        if matches!(kind, AccelKind::Sha | AccelKind::Md5) {
            let mut sizes: Vec<u64> = c.done.iter().map(|d| d.lines).collect();
            sizes.sort_unstable();
            sizes.dedup();
            let mut sha = optimus_algo::sha2::Sha512::new();
            let mut md5 = optimus_algo::md5::Md5::new();
            let mut fed = 0u64;
            for size in sizes {
                while fed < size {
                    if kind == AccelKind::Sha {
                        sha.update(line_of(fed));
                    } else {
                        md5.update(line_of(fed));
                    }
                    fed += 1;
                }
                let digest = if kind == AccelKind::Sha {
                    sha.clone().finalize().to_vec()
                } else {
                    md5.clone().finalize().to_vec()
                };
                digests.insert(size, digest);
            }
        }
        let cipher = (kind == AccelKind::Aes).then(|| {
            let regs = c.job.spec.regs(0, 0);
            let reg = |r: u64| {
                regs.iter()
                    .find(|(o, _)| *o == r)
                    .expect("AES key register")
                    .1
            };
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&reg(AesKernel::REG_KEY0).to_le_bytes());
            key[8..].copy_from_slice(&reg(AesKernel::REG_KEY1).to_le_bytes());
            optimus_algo::aes::Aes128::new(&key)
        });
        for (j, d) in c.done.iter().enumerate() {
            let corrupt = self.corrupt && ci == 0 && j == 0;
            let ok = match &d.readback {
                Readback::Digest(line) => {
                    let mut want = digests[&d.lines].clone();
                    if corrupt {
                        want[0] ^= 1;
                    }
                    line[..want.len()] == want[..]
                }
                Readback::Edges(first, last) => {
                    let cipher = cipher.as_ref().expect("AES client");
                    let enc = |i: u64| {
                        let mut l = line_of(i).to_vec();
                        cipher.encrypt_ecb(&mut l);
                        l
                    };
                    let mut want = enc(0);
                    if corrupt {
                        want[0] ^= 1;
                    }
                    first[..] == want[..] && last[..] == enc(d.lines - 1)[..]
                }
                Readback::Ops(ops) => *ops == d.lines ^ corrupt as u64,
            };
            out.check(ok, || {
                format!(
                    "client {ci} ({}) job {j} of {} lines: wrong result",
                    short_name(kind),
                    d.lines
                )
            });
        }
    }
}

impl Workload for Churn {
    fn stack(&mut self) -> &mut Stack {
        &mut self.stack
    }

    fn phases(&self) -> Vec<Phase> {
        vec![Phase {
            name: "churn",
            chunks: EPOCHS,
        }]
    }

    fn chunk(&mut self, _phase: usize, index: usize, sp: &mut Spans) {
        let end = self.origin + (index as u64 + 1) * self.epoch_cycles;
        self.run_until(end, sp);
    }

    fn verify(&mut self, sim: &SimStats, _sp: &mut Spans) -> Outcome {
        let mut out = Outcome::default();
        for ci in 0..self.clients.len() {
            self.check_client(ci, &mut out);
        }
        // Journal conservation, from the journal's own per-tenant summary.
        let slo = journal::tenant_summaries();
        let submitted: u64 = slo.iter().map(|t| t.submitted).sum();
        let accounted: u64 = slo
            .iter()
            .map(|t| t.completed + t.evicted + t.in_flight)
            .sum();
        let evicted: u64 = slo.iter().map(|t| t.evicted).sum();
        let mine: u64 = self.clients.iter().map(|c| c.submitted as u64).sum();
        out.check(submitted == accounted && submitted == mine, || {
            format!("journal: {submitted} submitted, {accounted} accounted, {mine} by the clients")
        });
        out.check(evicted == 0, || format!("{evicted} jobs evicted"));
        let total = self.stack.hv_stats();
        out.check(total.forced_resets == 0, || {
            format!("{} forced resets", total.forced_resets)
        });

        out.jobs = job_stats(&sim.clocks.0);
        let since = sim.clocks.0[0];
        let completed: u64 = self
            .clients
            .iter()
            .map(|c| c.done.iter().filter(|d| d.at >= since).count() as u64)
            .sum();
        let cycles = sim.device_cycles();
        // Less one job per client: a short section can catch every client
        // in the middle of a long job.
        let floor = (cycles / CYCLES_PER_JOB_AT_MOST).saturating_sub(CLIENTS as u64);
        out.check(completed >= floor, || {
            format!("only {completed} jobs completed in {cycles} cycles, fewer than {floor}")
        });
        // Progress is device time: four clients share one port, so bytes
        // cannot be told apart, and completed lines come in whole jobs (an
        // AES client finishes two to four a pass).
        let held = executing_cycles(since, sim.clocks.1[0]);
        for c in &self.clients {
            out.progress
                .push(held.get(&c.va.0).copied().unwrap_or(0) as f64);
            out.fingerprint_words.push(c.done.len() as u64);
            out.fingerprint_words
                .push(c.done.last().map_or(0, |d| d.at));
        }
        out.lines_by_kind = SLOTS
            .iter()
            .enumerate()
            .map(|(slot, &k)| {
                let (r, w) = sim.port_bytes[0][slot];
                (short_name(k), (r + w) / 64)
            })
            .collect();
        out
    }
}
