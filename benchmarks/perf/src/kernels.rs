//! Job plans for every accelerator kind the ledger drives, the host-side
//! replay that says what each job must produce, and the zero-latency
//! memory that services a bare kernel's port.
//!
//! One [`JobSpec`] describes a job independently of the depth it runs at
//! (bare kernel, `FpgaDevice`, `Optimus`, `OptimusNode`), so the stack
//! peel runs *the same jobs* at every depth and the difference between
//! two depths is the cost of the layer between them.

use crate::spans::Spans;
use optimus::hypervisor::{Backing, GuestCtx};
use optimus_accel::registry::AccelKind;
use optimus_accel::{
    aes::AesKernel, btc::BtcKernel, fir::FirKernel, hash::reg as hash_reg, image::ConvKernel,
    image::ROW_PIXELS, linked_list::LlKernel, membench::MbKernel, rsd::RsdKernel, sw::SwKernel,
};
use optimus_algo::bitcoin::BlockHeader;
use optimus_algo::image::{gaussian_blur, Image};
use optimus_algo::smith_waterman::{score_only, Scoring};
use optimus_fabric::accelerator::AccelPort;
use optimus_fabric::mmio::accel_reg;
use optimus_mem::addr::{Gva, Hpa, PageSize};
use optimus_mem::host::LineFiller;
use optimus_sim::perm::FeistelPermutation;
use optimus_sim::rng::derive_seed;
use optimus_sim::time::Cycle;
use optimus_workloads::linked_list::linked_list_line_filler;
use optimus_workloads::streams::{random_bytes, rs_codeword_stream};
use std::sync::Arc;

/// Base of the application registers inside a vaccel's BAR page.
pub const APP: u64 = accel_reg::APP_BASE;

/// Lines in the seeded input tile a streaming job's source region repeats.
pub const TILE_LINES: u64 = 256;
/// Codewords in one Reed–Solomon tile (four lines each).
const TILE_CODEWORDS: usize = (TILE_LINES / 4) as usize;
/// Symbol errors injected per Reed–Solomon codeword (capacity is 16).
const RS_ERRORS: usize = 4;
/// Easy proof-of-work target for bounded Bitcoin jobs: about one nonce in
/// sixteen meets it, so a bounded job ends on a found nonce.
const BTC_EASY_TARGET: u32 = 0x0FFF_FFFF;

/// The kinds of the compute-bound mix, in slot order.
pub const COMPUTE_KINDS: [AccelKind; 8] = [
    AccelKind::Aes,
    AccelKind::Sha,
    AccelKind::Md5,
    AccelKind::Fir,
    AccelKind::Rsd,
    AccelKind::Sw,
    AccelKind::Gau,
    AccelKind::Btc,
];

/// Lower-case short name of a kind, as used in metric names.
pub fn short_name(kind: AccelKind) -> &'static str {
    match kind {
        AccelKind::Aes => "aes",
        AccelKind::Sha => "sha",
        AccelKind::Md5 => "md5",
        AccelKind::Fir => "fir",
        AccelKind::Rsd => "rsd",
        AccelKind::Sw => "sw",
        AccelKind::Gau => "gau",
        AccelKind::Btc => "btc",
        AccelKind::Mb => "mb",
        AccelKind::Ll => "ll",
        _ => "other",
    }
}

/// One job, independent of where it runs.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    pub kind: AccelKind,
    /// Input lines for streaming kinds; operations for MemBench, hops for
    /// LinkedList and nonces for the miner. 0 = unbounded (MemBench,
    /// LinkedList) or an impossible target (miner).
    pub work: u64,
    /// Working-set bytes (MemBench, LinkedList); ignored elsewhere.
    pub working_set: u64,
    /// MemBench mode (0 read, 1 write, 2 mixed).
    pub mb_mode: u64,
    /// Seed of the job's input and of any kernel-side randomness.
    pub seed: u64,
}

impl JobSpec {
    /// A streaming job over `lines` input lines (or a bounded job of
    /// `lines` units of work for the non-streaming kinds).
    pub fn bounded(kind: AccelKind, lines: u64, seed: u64) -> Self {
        Self {
            kind,
            work: lines,
            working_set: 2 << 20,
            mb_mode: 0,
            seed,
        }
    }

    /// Whether the kind streams a source region line by line.
    pub fn is_stream(&self) -> bool {
        !matches!(self.kind, AccelKind::Mb | AccelKind::Ll | AccelKind::Btc)
    }

    /// Bytes of the source (or only) region.
    pub fn src_bytes(&self) -> u64 {
        match self.kind {
            AccelKind::Mb | AccelKind::Ll => self.working_set,
            AccelKind::Btc => 4096,
            _ => self.work * 64,
        }
    }

    /// Bytes of the destination region (0 = none).
    pub fn dst_bytes(&self) -> u64 {
        match self.kind {
            AccelKind::Aes | AccelKind::Fir | AccelKind::Rsd | AccelKind::Gau => self.work * 64,
            AccelKind::Sha | AccelKind::Md5 => 4096,
            _ => 0,
        }
    }

    /// AES key halves derived from the job seed.
    fn aes_key(&self) -> (u64, u64) {
        (derive_seed(self.seed, 0xae5), derive_seed(self.seed, 0xae6))
    }

    /// The application-register writes that program this job at the given
    /// source and destination addresses (offsets relative to `APP`).
    pub fn regs(&self, src: u64, dst: u64) -> Vec<(u64, u64)> {
        match self.kind {
            AccelKind::Aes => {
                let (k0, k1) = self.aes_key();
                vec![
                    (AesKernel::REG_SRC, src),
                    (AesKernel::REG_DST, dst),
                    (AesKernel::REG_LINES, self.work),
                    (AesKernel::REG_KEY0, k0),
                    (AesKernel::REG_KEY1, k1),
                ]
            }
            AccelKind::Sha | AccelKind::Md5 => {
                vec![
                    (hash_reg::SRC, src),
                    (hash_reg::DST, dst),
                    (hash_reg::LINES, self.work),
                ]
            }
            AccelKind::Fir => vec![
                (FirKernel::REG_SRC, src),
                (FirKernel::REG_DST, dst),
                (FirKernel::REG_LINES, self.work),
            ],
            AccelKind::Rsd => vec![
                (RsdKernel::REG_SRC, src),
                (RsdKernel::REG_DST, dst),
                (RsdKernel::REG_LINES, self.work / 4 * 4),
            ],
            AccelKind::Sw => vec![
                (SwKernel::REG_SRC, src),
                (SwKernel::REG_LINES, self.work),
                (SwKernel::REG_REF_LINES, SW_REF_LINES),
            ],
            AccelKind::Gau => vec![
                (ConvKernel::REG_SRC, src),
                (ConvKernel::REG_DST, dst),
                (ConvKernel::REG_LINES, self.work),
            ],
            AccelKind::Btc => {
                let (target, count) = if self.work == 0 {
                    (0, u32::MAX as u64) // impossible target: grinds forever
                } else {
                    (BTC_EASY_TARGET as u64, self.work)
                };
                vec![
                    (BtcKernel::REG_SRC, src),
                    (BtcKernel::REG_TARGET, target),
                    (BtcKernel::REG_START_NONCE, self.seed & 0xFFFF),
                    (BtcKernel::REG_COUNT, count),
                ]
            }
            AccelKind::Mb => vec![
                (MbKernel::REG_REGION, src),
                (MbKernel::REG_BYTES, self.working_set),
                (MbKernel::REG_MODE, self.mb_mode),
                (MbKernel::REG_OPS, self.work),
                (MbKernel::REG_SEED, self.seed),
            ],
            AccelKind::Ll => vec![(LlKernel::REG_START, src), (LlKernel::REG_STEPS, self.work)],
            other => panic!("the ledger does not drive {other:?}"),
        }
    }

    /// The seeded input tile a streaming job's source region repeats:
    /// valid Reed–Solomon codewords with a few symbol errors for RSD,
    /// random bytes for everything else.
    pub fn tile(&self) -> Vec<u8> {
        match self.kind {
            AccelKind::Rsd => rs_codeword_stream(TILE_CODEWORDS, RS_ERRORS, self.seed).0,
            _ => random_bytes((TILE_LINES * 64) as usize, self.seed),
        }
    }

    /// The full input of a bounded streaming job: the tile, repeated.
    pub fn input(&self) -> Vec<u8> {
        let tile = self.tile();
        let len = (self.work * 64) as usize;
        tile.iter().copied().cycle().take(len).collect()
    }

    /// LinkedList nodes in the working set.
    pub fn ll_nodes(&self) -> u64 {
        (self.working_set / 64).max(64)
    }
}

/// Reference lines a Smith–Waterman job preloads.
const SW_REF_LINES: u64 = 2;

/// A line filler that repeats `tile` across a region based at `base_hpa`.
pub fn tile_filler(tile: Arc<Vec<u8>>, base_hpa: u64) -> LineFiller {
    let lines = (tile.len() / 64) as u64;
    Arc::new(move |hpa: Hpa, line: &mut [u8; 64]| {
        let idx = ((hpa.raw() - base_hpa) / 64 % lines) as usize;
        line.copy_from_slice(&tile[idx * 64..idx * 64 + 64]);
    })
}

/// Where a launched job's regions landed in the guest.
#[derive(Debug, Clone, Copy)]
pub struct Launched {
    pub spec: JobSpec,
    pub src: Gva,
    pub dst: Gva,
}

/// Allocates the job's regions in the guest, programs its registers and
/// (if `start`) posts `CMD_START`. Sources are lazily synthesized (tile
/// or linked list) so gigabyte regions cost no host memory; destinations
/// keep their bytes when `keep_output` is set and are scratch otherwise.
pub fn launch(
    g: &mut GuestCtx,
    spec: &JobSpec,
    page: PageSize,
    keep_output: bool,
    start: bool,
    sp: &mut Spans,
) -> Launched {
    let s = sp.begin("setup.gen_inputs");
    let tile = spec.is_stream().then(|| Arc::new(spec.tile()));
    sp.end(s);
    let s = sp.begin("setup.alloc_dma");
    let src = match spec.kind {
        AccelKind::Ll => {
            let (nodes, seed) = (spec.ll_nodes(), spec.seed);
            g.alloc_dma_lazy_lines_sized(nodes * 64, page, |gva, hpa| {
                linked_list_line_filler(gva, hpa, nodes, seed)
            })
        }
        AccelKind::Mb => {
            let backing = if keep_output {
                Backing::Normal
            } else {
                Backing::Scratch
            };
            alloc(g, spec.src_bytes(), backing, page)
        }
        AccelKind::Btc => {
            let gva = alloc(g, 4096, Backing::Normal, page);
            g.write_mem(gva, &BlockHeader::example().to_bytes());
            gva
        }
        _ => {
            let tile = tile.expect("streaming kinds have a tile");
            g.alloc_dma_lazy_lines_sized(spec.src_bytes().max(64), page, |_, hpa| {
                tile_filler(tile, hpa.raw())
            })
        }
    };
    let dst = match spec.dst_bytes() {
        0 => Gva::new(0),
        bytes => {
            let keep = keep_output || matches!(spec.kind, AccelKind::Sha | AccelKind::Md5);
            let backing = if keep {
                Backing::Normal
            } else {
                Backing::Scratch
            };
            alloc(g, bytes, backing, page)
        }
    };
    sp.end(s);
    let s = sp.begin("setup.launch");
    for (reg, value) in spec.regs(src.raw(), dst.raw()) {
        g.mmio_write(APP + reg, value);
    }
    if start {
        g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    }
    sp.end(s);
    Launched {
        spec: *spec,
        src,
        dst,
    }
}

fn alloc(g: &mut GuestCtx, bytes: u64, backing: Backing, page: PageSize) -> Gva {
    match page {
        PageSize::Huge => g.alloc_dma_with(bytes, backing),
        PageSize::Small => g.alloc_dma_4k(bytes, backing),
    }
}

/// What a bounded job must leave behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Expected prefix of the destination region (empty = not checked).
    pub dst: Vec<u8>,
    /// Expected application registers after completion.
    pub regs: Vec<(u64, u64)>,
}

impl Expected {
    /// Flips one bit of the expectation: the self-check that proves a
    /// wrong result would be caught.
    pub fn corrupt(&mut self) {
        match (self.dst.first_mut(), self.regs.first_mut()) {
            (Some(b), _) => *b ^= 1,
            (None, Some(r)) => r.1 ^= 1,
            (None, None) => {}
        }
    }
}

/// Host-side replay of a bounded job against `optimus_algo`.
pub fn expected(spec: &JobSpec, src: u64) -> Expected {
    let input = if spec.is_stream() {
        spec.input()
    } else {
        Vec::new()
    };
    match spec.kind {
        AccelKind::Aes => {
            let (k0, k1) = spec.aes_key();
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&k0.to_le_bytes());
            key[8..].copy_from_slice(&k1.to_le_bytes());
            let mut out = input;
            optimus_algo::aes::Aes128::new(&key).encrypt_ecb(&mut out);
            Expected {
                dst: out,
                regs: vec![],
            }
        }
        AccelKind::Sha => Expected {
            dst: optimus_algo::sha2::sha512(&input).to_vec(),
            regs: vec![],
        },
        AccelKind::Md5 => Expected {
            dst: optimus_algo::md5::md5(&input).to_vec(),
            regs: vec![],
        },
        AccelKind::Fir => {
            let samples: Vec<i16> = input
                .chunks_exact(2)
                .map(|c| i16::from_le_bytes([c[0], c[1]]))
                .collect();
            let out = optimus_algo::fir::FirFilter::low_pass(31, 0.25).filter(&samples);
            Expected {
                dst: out.iter().flat_map(|s| s.to_le_bytes()).collect(),
                regs: vec![],
            }
        }
        AccelKind::Rsd => {
            let (_, messages) = rs_codeword_stream(TILE_CODEWORDS, RS_ERRORS, spec.seed);
            let codewords = spec.work / 4;
            let mut out = Vec::with_capacity((codewords * 256) as usize);
            for cw in 0..codewords as usize {
                out.extend_from_slice(&messages[cw % TILE_CODEWORDS]);
                out.resize((cw + 1) * 256, 0);
            }
            Expected {
                dst: out,
                regs: vec![
                    (RsdKernel::REG_DECODED, codewords),
                    (RsdKernel::REG_FAILURES, 0),
                ],
            }
        }
        AccelKind::Sw => {
            let ref_len = (SW_REF_LINES * 64) as usize;
            let (reference, queries) = input.split_at(ref_len.min(input.len()));
            let (mut best, mut best_block) = (0u64, 0u64);
            for (block, q) in queries.chunks_exact(64).enumerate() {
                let score = score_only(q, reference, &Scoring::default()) as u64;
                if score > best {
                    best = score;
                    best_block = block as u64;
                }
            }
            Expected {
                dst: vec![],
                regs: vec![
                    (SwKernel::REG_BEST, best),
                    (SwKernel::REG_BEST_BLOCK, best_block),
                ],
            }
        }
        AccelKind::Gau => Expected {
            dst: gaussian_rows(&input),
            regs: vec![],
        },
        AccelKind::Btc => {
            let start = (spec.seed & 0xFFFF) as u32;
            let found = optimus_algo::bitcoin::mine_range(
                &BlockHeader::example(),
                BTC_EASY_TARGET.to_be_bytes(),
                start,
                spec.work as u32,
            );
            Expected {
                dst: vec![],
                regs: vec![(BtcKernel::REG_FOUND, found.map_or(u64::MAX, u64::from))],
            }
        }
        AccelKind::Mb => Expected {
            dst: vec![],
            regs: vec![(MbKernel::REG_COMPLETED, spec.work)],
        },
        AccelKind::Ll => Expected {
            dst: vec![],
            regs: vec![
                (LlKernel::REG_DONE_STEPS, spec.work),
                (
                    LlKernel::REG_CURRENT,
                    ll_cursor(src, spec.ll_nodes(), spec.seed, spec.work),
                ),
            ],
        },
        other => panic!("the ledger does not drive {other:?}"),
    }
}

/// The GVA a LinkedList walk from node 0 stands on after `hops` hops:
/// the list is one Hamiltonian cycle in Feistel order, so the replay is
/// two permutation evaluations whatever the hop count.
pub fn ll_cursor(region: u64, nodes: u64, seed: u64, hops: u64) -> u64 {
    let perm = FeistelPermutation::new(nodes, seed);
    let pos = perm.invert(0);
    region + perm.apply((pos + hops % nodes) % nodes) * 64
}

/// The GAU kernel's output for a frame of 64-pixel rows: a 3×3 Gaussian
/// with the top and bottom rows clamped to the frame.
pub fn gaussian_rows(input: &[u8]) -> Vec<u8> {
    let rows = input.len() / ROW_PIXELS;
    let row = |r: usize| &input[r * ROW_PIXELS..(r + 1) * ROW_PIXELS];
    let mut out = Vec::with_capacity(input.len());
    for r in 0..rows {
        let mut data = Vec::with_capacity(3 * ROW_PIXELS);
        data.extend_from_slice(row(r.saturating_sub(1)));
        data.extend_from_slice(row(r));
        data.extend_from_slice(row((r + 1).min(rows - 1)));
        let blurred = gaussian_blur(&Image::new(ROW_PIXELS, 3, 1, data));
        out.extend_from_slice(&blurred.data()[ROW_PIXELS..2 * ROW_PIXELS]);
    }
    out
}

/// Reads back a completed bounded job through the guest and compares it
/// with the host-side replay. Register reads go through the trapped MMIO
/// path, like a guest driver's would.
pub fn check(g: &mut GuestCtx, job: &Launched, corrupt: bool) -> bool {
    let mut want = expected(&job.spec, job.src.raw());
    if corrupt {
        want.corrupt();
    }
    let mut ok = true;
    if !want.dst.is_empty() {
        let mut got = vec![0u8; want.dst.len()];
        g.read_mem(job.dst, &mut got);
        ok &= got == want.dst;
    }
    for (reg, value) in want.regs {
        ok &= g.mmio_read(APP + reg) == value;
    }
    ok
}

/// Answers the oldest pending request of `port` in the cycle it was
/// issued: a read is served by `read` (address → line), a write is
/// acknowledged and dropped. Returns whether there was one.
pub fn serve_one(port: &mut AccelPort, now: Cycle, read: &dyn Fn(u64) -> [u8; 64]) -> bool {
    let Some(req) = port.take_pending() else {
        return false;
    };
    let data = match req.write {
        Some(_) => None,
        None => Some(Box::new(read(req.gva.raw()))),
    };
    port.deliver(req.tag, data, now);
    true
}

/// Zero-latency memory for a bare kernel: every pending request of the
/// port is answered in the cycle it was issued.
pub fn service_ideal(port: &mut AccelPort, now: Cycle, read: &dyn Fn(u64) -> [u8; 64]) {
    while serve_one(port, now, read) {}
}

/// The read function of an ideal memory holding this job's source.
pub fn ideal_source(spec: &JobSpec, src: u64) -> Box<dyn Fn(u64) -> [u8; 64]> {
    match spec.kind {
        AccelKind::Ll => {
            let fill =
                linked_list_line_filler(Gva::new(src), Hpa::new(src), spec.ll_nodes(), spec.seed);
            Box::new(move |addr| {
                let mut line = [0u8; 64];
                fill(Hpa::new(addr), &mut line);
                line
            })
        }
        AccelKind::Btc => {
            let header = BlockHeader::example().to_bytes();
            Box::new(move |addr| {
                let mut line = [0u8; 64];
                let off = (addr - src) as usize;
                if off < header.len() {
                    let take = (header.len() - off).min(64);
                    line[..take].copy_from_slice(&header[off..off + take]);
                }
                line
            })
        }
        AccelKind::Mb => Box::new(|_| [0u8; 64]),
        _ => {
            let fill = tile_filler(Arc::new(spec.tile()), src);
            Box::new(move |addr| {
                let mut line = [0u8; 64];
                if addr >= src {
                    fill(Hpa::new(addr), &mut line);
                }
                line
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_accel::registry::build_accelerator;
    use optimus_fabric::accelerator::Accelerator;

    /// A line a kernel wrote: offset into its destination, payload.
    type Written = (u64, [u8; 64]);

    /// Runs a bounded job on a bare kernel against the ideal memory and
    /// returns the kernel plus everything it wrote.
    fn run_bare(spec: &JobSpec) -> (Box<dyn Accelerator>, Vec<Written>) {
        let (src, dst) = (0x1000_0000u64, 0x2000_0000u64);
        let mut acc = build_accelerator(spec.kind, spec.seed);
        let mut port = AccelPort::new();
        for (reg, value) in spec.regs(src, dst) {
            acc.mmio_write(APP + reg, value);
        }
        acc.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        let read = ideal_source(spec, src);
        let mut writes = Vec::new();
        for now in 0..2_000_000u64 {
            acc.step(now, &mut port);
            while let Some(req) = port.take_pending() {
                match req.write {
                    Some(data) => {
                        writes.push((req.gva.raw() - dst, *data));
                        port.deliver(req.tag, None, now);
                    }
                    None => {
                        port.deliver(req.tag, Some(Box::new(read(req.gva.raw()))), now);
                    }
                }
            }
            if acc.is_done() {
                break;
            }
        }
        assert!(acc.is_done(), "{:?} never finished", spec.kind);
        (acc, writes)
    }

    #[test]
    fn host_replay_matches_every_bare_kernel() {
        for kind in COMPUTE_KINDS
            .into_iter()
            .chain([AccelKind::Mb, AccelKind::Ll])
        {
            let mut spec = JobSpec::bounded(kind, 64, 11);
            spec.working_set = 1 << 16;
            let (mut acc, writes) = run_bare(&spec);
            let want = expected(&spec, 0x1000_0000);
            let mut got = vec![0u8; want.dst.len()];
            for (off, line) in writes {
                let off = off as usize;
                if off < got.len() {
                    let take = (got.len() - off).min(64);
                    got[off..off + take].copy_from_slice(&line[..take]);
                }
            }
            assert_eq!(got, want.dst, "{kind:?} output");
            for (reg, value) in want.regs {
                assert_eq!(acc.mmio_read(APP + reg), value, "{kind:?} reg {reg}");
            }
        }
    }

    #[test]
    fn ll_cursor_follows_the_list() {
        let (region, nodes, seed) = (0x4000u64, 512u64, 9u64);
        let fill = linked_list_line_filler(Gva::new(region), Hpa::new(region), nodes, seed);
        let mut cur = region;
        for hops in 0..(2 * nodes + 3) {
            assert_eq!(
                ll_cursor(region, nodes, seed, hops),
                cur,
                "after {hops} hops"
            );
            let mut line = [0u8; 64];
            fill(Hpa::new(cur), &mut line);
            cur = u64::from_le_bytes(line[..8].try_into().unwrap());
        }
    }
}
