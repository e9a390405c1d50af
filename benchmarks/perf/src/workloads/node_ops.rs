//! `node_ops`: a four-device node through its three regimes.
//!
//! * **A, free-running** — no shares are live, so every device runs its
//!   whole chunk in one dispatch on the worker threads.
//! * **B, lock-step** — one same-device GAU→SHA zero-copy pipeline plus
//!   one live cross-device share; the cross-device mirror forces horizon
//!   chunking with a sync per chunk.
//! * **C, control plane** — alternately `migrate` one tenant to the next
//!   device and `live_update` one device, 40 of each, evenly spaced.
//!
//! The only workload through `core::node`, `core::snapshot`, the share
//! handle table and worker-thread dispatch.
//!
//! Two choices keep the regimes what their names say. The time slice is
//! longer than the whole run, so no slice deadline falls inside it: a
//! deadline that lands exactly on the end of a lock-step chunk is never
//! serviced (`Optimus::run` leaves before its boundary check) and pins
//! the node at one-cycle chunks for as long as a cross-device share
//! lives, which would make phase B measure that accident instead of
//! lock-step. And the SHA and GAU tenants migrate around a ring with one
//! hole (device 0's pipeline tenants are idle in phase C), so every
//! migrated tenant finds its slot free and resumes at once.

use super::{job_stats, CtlStats, Outcome, Params, Phase, Workload};
use crate::gen::{seed_for, stream};
use crate::kernels::{self, short_name, JobSpec, APP};
use crate::spans::Spans;
use crate::stack::{SimStats, Stack};
use optimus::node::{NodeConfig, NodeVaccel, OptimusNode, Placement};
use optimus_accel::hash::reg as hash_reg;
use optimus_accel::image::ConvKernel;
use optimus_accel::registry::AccelKind;
use optimus_fabric::mmio::accel_reg;
use optimus_fabric::platform::DeviceId;
use optimus_mem::addr::{Gva, PageSize, PAGE_2M};
use optimus_sim::journal::{self, Phase as JobPhase};
use optimus_sim::time::Cycle;
use optimus_workloads::streams::random_bytes;
use std::time::Instant;

const DEVICES: usize = 4;
const SLOTS: [AccelKind; 4] = [
    AccelKind::Mb,
    AccelKind::Sha,
    AccelKind::Gau,
    AccelKind::Sha,
];
const TENANTS: usize = 12;
/// 100 ms: longer than any run, see the module docs.
const TIME_SLICE: Cycle = 40_000_000;
const CHUNKS_A: usize = 64;
const CHUNKS_B: usize = 64;
/// Control-plane operations in phase C: 40 migrations and 40 live-updates.
const CTL_OPS: usize = 80;
const WARMUP: Cycle = 100_000;
/// Rows per pipeline frame (64 B each).
const FRAME_LINES: u64 = 2_048;
/// Most steps phase B's close waits for the round in flight.
const DRAIN_STEPS: usize = 10_000;
/// Tenant indices of the pipeline (both on device 0) and of the
/// cross-device share (devices 1 and 2).
const PRODUCER: usize = 8;
const CONSUMER: usize = 4;
const SHARE_OWNER: usize = 1;
const SHARE_PEER: usize = 2;
/// Migration order in phase C. The SHA tenants 5, 6, 7 start on devices
/// 1, 2, 3 with the hole on device 0, so moving the highest device's
/// tenant first always lands in the hole; likewise GAU tenants 9, 10, 11.
const MIGRATION_RING: [usize; 6] = [7, 11, 6, 10, 5, 9];

enum Pipe {
    Idle,
    Producing,
    Consuming,
}

pub struct NodeOps {
    stack: Stack,
    tenants: Vec<NodeVaccel>,
    /// Tenants that run unbounded jobs for the whole timed section.
    background: Vec<usize>,
    phase_cycles: Cycle,
    seed: u64,
    corrupt: bool,
    // Pipeline state.
    input: Gva,
    out_span: Gva,
    digest_dst: Gva,
    sha_src: Gva,
    pipe: Pipe,
    /// Set when phase B closes: the pipeline finishes its round and stops.
    closing: bool,
    round: u64,
    digests: Vec<Vec<u8>>,
    // Cross-device share.
    shared_span: Gva,
    mirror: Gva,
    handles: (u64, u64),
    share_ok: Vec<(&'static str, bool)>,
    ctl: CtlStats,
    ctl_ok: Vec<bool>,
}

fn tenant_name(t: usize) -> String {
    format!("tenant{t}")
}

/// The pipeline's input frame for `round`.
fn frame(seed: u64, round: u64) -> Vec<u8> {
    random_bytes(
        (FRAME_LINES * 64) as usize,
        seed_for(seed, stream::INPUT, round),
    )
}

impl NodeOps {
    pub fn build(p: &Params, sp: &mut Spans) -> Self {
        let mut cfg = NodeConfig::new(SLOTS.to_vec(), DEVICES);
        cfg.placement = Placement::LeastLoaded;
        cfg.time_slice = TIME_SLICE;
        cfg.threads = Some(p.threads);
        cfg.seed = seed_for(p.seed, stream::DEVICE, 0);
        let mut node = OptimusNode::new(cfg).expect("node boots");
        // LeastLoaded fills devices round-robin and each device's slots in
        // order: tenant t lands on device t % 4, slot t / 4 (Mb, Sha, Gau).
        let s = sp.begin("setup.create_vm");
        let tenants: Vec<NodeVaccel> = (0..TENANTS)
            .map(|t| node.create_tenant(&tenant_name(t)))
            .collect();
        sp.end(s);
        let window = p.budget + WARMUP;
        let mut background = Vec::new();
        for (t, &h) in tenants.iter().enumerate() {
            let mut g = node.guest(h);
            let s = sp.begin("setup.alloc_dma");
            let state = g.alloc_dma(1 << 21);
            g.set_state_buffer(state);
            sp.end(s);
            if t == PRODUCER || t == CONSUMER {
                continue;
            }
            // The spatial workloads' job for this kind, MemBench read-only.
            let spec = JobSpec {
                mb_mode: 0,
                ..super::spatial::spec_for(SLOTS[t / DEVICES], p.seed, t, window)
            };
            kernels::launch(&mut g, &spec, PageSize::Huge, false, true, sp);
            background.push(t);
        }
        let s = sp.begin("setup.alloc_dma");
        let (input, out_span) = {
            let mut g = node.guest(tenants[PRODUCER]);
            (g.alloc_dma(PAGE_2M), g.alloc_dma(PAGE_2M))
        };
        let digest_dst = node.guest(tenants[CONSUMER]).alloc_dma(4096);
        let shared_span = node.guest(tenants[SHARE_OWNER]).alloc_dma(PAGE_2M);
        sp.end(s);
        let s = sp.begin("setup.warmup");
        node.run(WARMUP);
        sp.end(s);
        Self {
            stack: Stack::Node(node),
            tenants,
            background,
            phase_cycles: (p.budget / 3).max(CTL_OPS as u64),
            seed: p.seed,
            corrupt: p.corrupt,
            input,
            out_span,
            digest_dst,
            sha_src: Gva::new(0),
            pipe: Pipe::Idle,
            closing: false,
            round: 0,
            digests: Vec::new(),
            shared_span,
            mirror: Gva::new(0),
            handles: (0, 0),
            share_ok: Vec::new(),
            ctl: CtlStats::default(),
            ctl_ok: Vec::new(),
        }
    }

    fn run(&mut self, cycles: Cycle, sp: &mut Spans) {
        let s = sp.begin("node.run");
        self.stack.run(cycles);
        sp.end(s);
    }

    /// Phase B opens: share the pipeline span on device 0 and a span
    /// across devices 1 → 2.
    fn open_shares(&mut self, sp: &mut Spans) {
        let (producer, consumer) = (self.tenants[PRODUCER], self.tenants[CONSUMER]);
        let (owner, peer) = (self.tenants[SHARE_OWNER], self.tenants[SHARE_PEER]);
        let pattern = random_bytes(4096, seed_for(self.seed, stream::VERIFY, 1));
        let node = self.stack.node();
        node.guest(owner).write_mem(self.shared_span, &pattern);
        let s = sp.begin("share.mem_share");
        let pipe =
            node.guest(producer)
                .mem_share(self.out_span, PAGE_2M, &tenant_name(CONSUMER), false);
        let cross =
            node.guest(owner)
                .mem_share(self.shared_span, PAGE_2M, &tenant_name(SHARE_PEER), false);
        sp.end(s);
        self.share_ok
            .push(("mem_share", pipe.is_ok() && cross.is_ok()));
        self.handles = (pipe.unwrap_or(0), cross.unwrap_or(0));
        let s = sp.begin("share.retrieve");
        let src = node.retrieve_shared(self.handles.0, consumer);
        let mirror = node.retrieve_shared(self.handles.1, peer);
        sp.end(s);
        self.share_ok
            .push(("retrieve", src.is_ok() && mirror.is_ok()));
        self.sha_src = src.unwrap_or(Gva::new(0));
        self.mirror = mirror.unwrap_or(Gva::new(0));
    }

    /// Phase B closes: the pipeline round in flight runs to its end (a
    /// span cannot be torn down under a consumer still reading it), the
    /// peer must see the owner's bytes through its mirror, and both shares
    /// are torn down so phase C runs free.
    fn close_shares(&mut self, sp: &mut Spans) {
        self.closing = true;
        let step = (self.phase_cycles / CHUNKS_B as u64).max(1_000);
        for _ in 0..DRAIN_STEPS {
            if matches!(self.pipe, Pipe::Idle) {
                break;
            }
            self.run(step, sp);
            self.pump_pipeline(sp);
        }
        let (producer, consumer) = (self.tenants[PRODUCER], self.tenants[CONSUMER]);
        let (owner, peer) = (self.tenants[SHARE_OWNER], self.tenants[SHARE_PEER]);
        let mut want = random_bytes(4096, seed_for(self.seed, stream::VERIFY, 1));
        if self.corrupt {
            want[0] ^= 1;
        }
        let node = self.stack.node();
        let mut got = vec![0u8; 4096];
        node.guest(peer).read_mem(self.mirror, &mut got);
        self.share_ok
            .push(("mirror holds the owner's bytes", got == want));
        let s = sp.begin("share.relinquish");
        let a = node.relinquish_shared(self.handles.0, consumer);
        let b = node.relinquish_shared(self.handles.1, peer);
        sp.end(s);
        self.share_ok.push(("relinquish", a.is_ok() && b.is_ok()));
        let s = sp.begin("share.reclaim");
        let a = node.reclaim_shared(self.handles.0, producer);
        let b = node.reclaim_shared(self.handles.1, owner);
        sp.end(s);
        self.share_ok.push(("reclaim", a.is_ok() && b.is_ok()));
    }

    /// Advances the GAU→SHA pipeline by at most one stage.
    fn pump_pipeline(&mut self, sp: &mut Spans) {
        let (producer, consumer) = (self.tenants[PRODUCER], self.tenants[CONSUMER]);
        let node = self.stack.node();
        match self.pipe {
            Pipe::Idle if self.closing => {}
            Pipe::Idle => {
                node.guest(producer)
                    .write_mem(self.input, &frame(self.seed, self.round));
                let s = sp.begin("guest.mmio_write");
                let mut g = node.guest(producer);
                g.mmio_write(APP + ConvKernel::REG_SRC, self.input.raw());
                g.mmio_write(APP + ConvKernel::REG_DST, self.out_span.raw());
                g.mmio_write(APP + ConvKernel::REG_LINES, FRAME_LINES);
                g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
                sp.end(s);
                self.pipe = Pipe::Producing;
            }
            Pipe::Producing => {
                if node.vaccel_completed(producer) {
                    let s = sp.begin("guest.mmio_write");
                    let mut g = node.guest(consumer);
                    g.mmio_write(APP + hash_reg::SRC, self.sha_src.raw());
                    g.mmio_write(APP + hash_reg::DST, self.digest_dst.raw());
                    g.mmio_write(APP + hash_reg::LINES, FRAME_LINES);
                    g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
                    sp.end(s);
                    self.pipe = Pipe::Consuming;
                }
            }
            Pipe::Consuming => {
                if node.vaccel_completed(consumer) {
                    let mut digest = vec![0u8; 64];
                    node.guest(consumer).read_mem(self.digest_dst, &mut digest);
                    self.digests.push(digest);
                    self.round += 1;
                    self.pipe = Pipe::Idle;
                }
            }
        }
    }

    /// One control-plane operation: even `k` migrates the next tenant of
    /// the ring to the device after its own, odd `k` live-updates a device.
    fn ctl_op(&mut self, k: usize, sp: &mut Spans) {
        let node = self.stack.node();
        if k.is_multiple_of(2) {
            let t = MIGRATION_RING[(k / 2) % MIGRATION_RING.len()];
            let h = self.tenants[t];
            let to = DeviceId((h.device.0 + 1) % DEVICES as u32);
            let s = sp.begin("node.migrate");
            let clock = Instant::now();
            let moved = node.migrate(h, to);
            self.ctl
                .migrate_ms
                .push(clock.elapsed().as_secs_f64() * 1e3);
            sp.end(s);
            self.ctl_ok.push(moved.is_ok());
            if let Ok(new) = moved {
                self.tenants[t] = new;
            }
        } else {
            let d = DeviceId(((k / 2) % DEVICES) as u32);
            let s = sp.begin("node.live_update");
            let clock = Instant::now();
            node.live_update(d);
            self.ctl
                .live_update_ms
                .push(clock.elapsed().as_secs_f64() * 1e3);
            sp.end(s);
        }
    }
}

/// Cycles each migrated job spent off-device: from the preemption that
/// detached it (or the migration stamp, for a job that was queued) to
/// its next resident phase on the destination.
fn migration_downtimes() -> Vec<u64> {
    let mut out = Vec::new();
    for rec in journal::export() {
        let mut left: Option<u64> = None;
        let mut migrating = false;
        for &(phase, ts) in &rec.phases {
            match phase {
                JobPhase::Preempted => left = Some(ts),
                JobPhase::Migrated => {
                    migrating = true;
                    left.get_or_insert(ts);
                }
                JobPhase::Restored | JobPhase::Installed | JobPhase::Executing => {
                    if migrating {
                        out.push(ts.saturating_sub(left.unwrap_or(ts)));
                    }
                    migrating = false;
                    left = None;
                }
                _ => {}
            }
        }
    }
    out
}

impl Workload for NodeOps {
    fn stack(&mut self) -> &mut Stack {
        &mut self.stack
    }

    fn phases(&self) -> Vec<Phase> {
        vec![
            Phase {
                name: "freerun",
                chunks: CHUNKS_A,
            },
            Phase {
                name: "lockstep",
                chunks: CHUNKS_B,
            },
            Phase {
                name: "ctl",
                chunks: CTL_OPS,
            },
        ]
    }

    fn chunk(&mut self, phase: usize, index: usize, sp: &mut Spans) {
        match phase {
            0 => self.run(self.phase_cycles / CHUNKS_A as u64, sp),
            1 => {
                if index == 0 {
                    self.open_shares(sp);
                }
                self.pump_pipeline(sp);
                self.run(self.phase_cycles / CHUNKS_B as u64, sp);
                if index == CHUNKS_B - 1 {
                    self.close_shares(sp);
                }
            }
            _ => {
                self.run(self.phase_cycles / CTL_OPS as u64, sp);
                self.ctl_op(index, sp);
            }
        }
    }

    /// Phase C's timings, with each migrated job's time off-device.
    fn ctl(&mut self, _sp: &mut Spans) -> CtlStats {
        self.ctl.downtime_cycles = migration_downtimes();
        self.ctl.clone()
    }

    fn verify(&mut self, sim: &SimStats, _sp: &mut Spans) -> Outcome {
        let mut out = Outcome::default();
        for &(what, ok) in &self.share_ok {
            out.check(ok, || format!("share call failed: {what}"));
        }
        for (k, &ok) in self.ctl_ok.iter().enumerate() {
            out.check(ok, || format!("migration {k} failed"));
        }
        out.check(self.ctl.live_update_ms.len() == CTL_OPS / 2, || {
            format!("{} live-updates ran", self.ctl.live_update_ms.len())
        });
        for (round, digest) in self.digests.iter().enumerate() {
            let filtered = kernels::gaussian_rows(&frame(self.seed, round as u64));
            let want = optimus_algo::sha2::sha512(&filtered);
            out.check(digest[..] == want[..], || {
                format!("pipeline round {round}: wrong digest")
            });
        }
        out.check(!self.digests.is_empty(), || {
            "no pipeline round completed".to_string()
        });
        // Conservation, from the journal's own per-tenant summary.
        let slo = journal::tenant_summaries();
        let submitted: u64 = slo.iter().map(|t| t.submitted).sum();
        let accounted: u64 = slo
            .iter()
            .map(|t| t.completed + t.evicted + t.in_flight)
            .sum();
        out.check(submitted == accounted, || {
            format!("journal: {submitted} submitted, {accounted} accounted")
        });

        out.jobs = job_stats(&sim.clocks.0);
        // Progress of the background tenants' home ports (tenant t started
        // on device t % 4, slot t / 4), normalized by nominal demand.
        let mut lines: Vec<(&'static str, u64)> = Vec::new();
        for d in 0..DEVICES {
            for (slot, &kind) in SLOTS.iter().enumerate() {
                let (r, w) = sim.port_bytes[d][slot];
                let name = short_name(kind);
                match lines.iter_mut().find(|(n, _)| *n == name) {
                    Some(e) => e.1 += (r + w) / 64,
                    None => lines.push((name, (r + w) / 64)),
                }
                if self.background.contains(&(slot * DEVICES + d)) {
                    out.progress.push((r + w) as f64 / kind.meta().demand);
                }
            }
        }
        out.lines_by_kind = lines;
        out.fingerprint_words.push(self.digests.len() as u64);
        for d in &self.digests {
            out.fingerprint_words
                .push(u64::from_le_bytes(d[..8].try_into().expect("8 bytes")));
        }
        for h in &self.tenants {
            out.fingerprint_words
                .extend([h.device.0 as u64, h.va.0 as u64]);
        }
        out
    }
}
