//! The job catalogue: how to program every accelerator kind, and what a
//! bounded job of it must leave behind.
//!
//! A [`Program`] is plain data: the buffers a guest allocates, in order,
//! and the application-register writes that point the kernel at them.
//! [`program`] builds a kind's canonical job; a consumer edits the data
//! for its variation (a register, a buffer's contents), runs it through a
//! [`GuestCtx`] with [`apply`] (or [`alloc`] and [`write_regs`], to start
//! it later), and [`check`]s the outcome against [`oracle`],
//! which replays the job against `optimus_algo` from the program's own
//! input buffers.
//!
//! Windowed programs ([`Work::Window`]) size their inputs to outlast a
//! measurement window. The inputs stay zero-filled, because content does
//! not change a kernel's data rate and the compute still runs. MemBench
//! and LinkedList run unbounded, BTC grinds an impossible target, and
//! there is no oracle. Bounded programs ([`Work::Bounded`]) carry seeded
//! inputs and finish.

use optimus::hypervisor::{Backing, GuestCtx};
use optimus_accel::registry::AccelKind;
use optimus_accel::{
    aes::AesKernel, btc::BtcKernel, grn::GrnKernel, hash, hc_dma::HcDmaKernel, linked_list::LlKernel, membench::MbKernel, rsd::RsdKernel,
    sssp::SsspKernel, stream::StreamShell, sw::SwKernel, wild::WildKernel,
};
use optimus_algo::bitcoin::{mine_range, BlockHeader};
use optimus_algo::graph::{sssp, CsrGraph, INF};
use optimus_algo::image::{gaussian_blur, grayscale, sobel, Image};
use optimus_fabric::mmio::accel_reg;
use optimus_mem::addr::{Gva, PageSize};
use optimus_sim::perm::FeistelPermutation;
use optimus_sim::time::Cycle;
use optimus_workloads::graphs::random_graph;
use optimus_workloads::linked_list::linked_list_line_filler;
use optimus_workloads::streams::{random_bytes, rs_codeword_stream, signal_samples, test_image_rows};

const APP: u64 = accel_reg::APP_BASE;
/// Symbol errors per Reed–Solomon codeword of a bounded input (capacity 16).
const RS_ERRORS: usize = 12;

/// How much work a job does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// Enough to outlast a measurement window of this many cycles.
    Window(Cycle),
    /// A job that ends after this many units: input lines for the
    /// streaming kinds (and lines produced for GRN or moved for HCDMA),
    /// operations for MemBench and WildDma, hops for LinkedList, nonces
    /// for BTC, and edges for SSSP.
    Bounded(u64),
}

/// What varies between the jobs of one kind.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// How much work the job does.
    pub work: Work,
    /// MemBench, WildDma and LinkedList working-set bytes.
    pub working_set: u64,
    /// MemBench mode (0 read / 1 write / 2 mixed).
    pub mb_mode: u64,
    /// IO page granularity of the buffers.
    pub page: PageSize,
    /// Seed of the inputs and of any kernel-side randomness.
    pub seed: u64,
}

impl Default for Spec {
    fn default() -> Self {
        Self {
            work: Work::Window(1_000_000),
            working_set: 64 << 20,
            mb_mode: 0,
            page: PageSize::Huge,
            seed: 7,
        }
    }
}

impl Spec {
    /// A windowed job outlasting `window` cycles.
    pub fn window(window: Cycle) -> Self {
        Self { work: Work::Window(window), ..Self::default() }
    }

    /// A bounded job of `units` units, seeded with `seed`.
    pub fn bounded(units: u64, seed: u64) -> Self {
        Self { work: Work::Bounded(units), seed, ..Self::default() }
    }
}

/// A register value or a buffer word: an immediate, or where buffer
/// `.0` was placed plus the wrapping offset `.1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A plain number.
    Imm(u64),
    /// A buffer's GVA plus a wrapping offset.
    At(usize, u64),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Imm(v)
    }
}

/// A buffer's initial contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fill {
    /// Zeros (or nothing, for scratch backing).
    Zero,
    /// These leading bytes, zeros after.
    Bytes(Vec<u8>),
    /// Little-endian words resolved at placement: a descriptor naming
    /// other buffers.
    Words(Vec<Value>),
    /// The lazily synthesized linked list of `bytes / 64` nodes with this
    /// seed (`optimus_workloads::linked_list`).
    List(u64),
}

/// One guest buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Buffer {
    /// Bytes allocated (rounded up to 2 MB pages by the guest).
    pub bytes: u64,
    /// Scratch backing (writes counted, then discarded) instead of normal.
    pub scratch: bool,
    /// IO page granularity.
    pub page: PageSize,
    /// Initial contents.
    pub fill: Fill,
}

/// A job of one kind, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The accelerator kind it programs.
    pub kind: AccelKind,
    /// Buffers, allocated in order.
    pub buffers: Vec<Buffer>,
    /// Application-register writes (offsets from `APP_BASE`), in order.
    pub regs: Vec<(u64, Value)>,
    /// The buffer set as the preemption state buffer before the
    /// registers are written.
    pub state: Option<usize>,
    /// Whether the job ends (and so has an oracle).
    pub bounded: bool,
}

impl Program {
    fn new(kind: AccelKind, bounded: bool) -> Self {
        Self { kind, buffers: Vec::new(), regs: Vec::new(), state: None, bounded }
    }

    /// Appends a buffer and returns its index.
    pub fn buffer(&mut self, bytes: u64, scratch: bool, page: PageSize, fill: Fill) -> usize {
        self.buffers.push(Buffer { bytes, scratch, page, fill });
        self.buffers.len() - 1
    }

    /// Sets `reg` to `value`: in place if the program writes it already,
    /// else as a last write.
    pub fn set(&mut self, reg: u64, value: impl Into<Value>) {
        let value = value.into();
        match self.regs.iter_mut().find(|(r, _)| *r == reg) {
            Some(slot) => slot.1 = value,
            None => self.regs.push((reg, value)),
        }
    }

    /// What the program writes to `reg`.
    fn get(&self, reg: u64) -> Option<Value> {
        self.regs.iter().find(|(r, _)| *r == reg).map(|&(_, v)| v)
    }

    /// Appends a zeroed `bytes`-byte state buffer and makes it the
    /// preemption state buffer; returns its index.
    pub fn add_state(&mut self, bytes: u64) -> usize {
        let at = self.buffer(bytes, false, PageSize::Huge, Fill::Zero);
        self.state = Some(at);
        at
    }

    /// The immediate written to `reg`: 0 if none, `None` if a pointer.
    fn imm(&self, reg: u64) -> Option<u64> {
        match self.get(reg) {
            None => Some(0),
            Some(Value::Imm(v)) => Some(v),
            Some(Value::At(..)) => None,
        }
    }

    /// The buffer `reg` points at the start of.
    fn target(&self, reg: u64) -> Option<usize> {
        match self.get(reg)? {
            Value::At(buf, 0) => Some(buf),
            _ => None,
        }
    }

    /// The first `len` bytes `reg` points at, if they are explicit.
    fn input(&self, reg: u64, len: u64) -> Option<Vec<u8>> {
        let buf = &self.buffers[self.target(reg)?];
        let mut bytes = match &buf.fill {
            Fill::Zero => Vec::new(),
            Fill::Bytes(b) => b.clone(),
            Fill::Words(_) | Fill::List(_) => return None,
        };
        (len <= buf.bytes).then(|| {
            bytes.resize(len as usize, 0);
            bytes
        })
    }
}

/// Where a program's buffers landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placed(pub Vec<Gva>);

impl Placed {
    /// The number `v` stands for in this placement.
    fn resolve(&self, v: Value) -> u64 {
        match v {
            Value::Imm(x) => x,
            Value::At(buf, off) => self.0[buf].raw().wrapping_add(off),
        }
    }
}

/// Bytes a windowed streaming job's input needs to outlast `window`.
fn window_bytes(kind: AccelKind, window: Cycle) -> u64 {
    let gbps = kind.meta().demand * 12.8 + 0.5;
    let secs = window as f64 * 2.5e-9;
    let bytes = (gbps * 1e9 * secs * 2.0) as u64;
    bytes.next_power_of_two().max(8 << 20)
}

/// The canonical job of `kind` under `spec`.
pub fn program(kind: AccelKind, spec: &Spec) -> Program {
    use AccelKind::*;
    let (bounded, n) = match spec.work {
        Work::Bounded(n) => (true, n),
        Work::Window(w) => (false, window_bytes(kind, w) / 64),
    };
    let (page, seed) = (spec.page, spec.seed);
    // Windowed outputs are scratch; bounded ones keep their bytes.
    let scratch = !bounded;
    let mut p = Program::new(kind, bounded);
    match kind {
        Aes | Md5 | Sha | Fir | Rsd | Sw | Gau | Sbl | Grs => {
            let bytes = n as usize * 64;
            let src = match kind {
                _ if !bounded => Fill::Zero,
                Fir => Fill::Bytes(signal_samples(bytes / 2, seed)),
                Rsd => Fill::Bytes(rs_codeword_stream(bytes / 256, RS_ERRORS, seed).0),
                Sw => {
                    let residues = random_bytes(bytes, seed).into_iter();
                    Fill::Bytes(residues.map(|b| b"ACGT"[(b & 3) as usize]).collect())
                }
                Gau | Sbl => Fill::Bytes(test_image_rows(bytes / 64, seed)),
                _ => Fill::Bytes(random_bytes(bytes, seed)),
            };
            let src = p.buffer(n * 64, false, page, src);
            p.set(StreamShell::REG_SRC, Value::At(src, 0));
            let dst = match kind {
                Sw => None,
                Md5 | Sha => Some(p.buffer(4096, false, page, Fill::Zero)),
                Grs if bounded => Some(p.buffer((n * 16).div_ceil(64) * 64, false, page, Fill::Zero)),
                Grs => Some(p.buffer(n * 16 + 4096, true, page, Fill::Zero)),
                _ => Some(p.buffer(n * 64, scratch, page, Fill::Zero)),
            };
            if let Some(dst) = dst {
                p.set(StreamShell::REG_DST, Value::At(dst, 0));
            }
            p.set(StreamShell::REG_LINES, if kind == Rsd { n / 4 * 4 } else { n });
            match kind {
                Aes if bounded => {
                    p.set(AesKernel::REG_KEY0, 0x0011_2233_4455_6677);
                    p.set(AesKernel::REG_KEY1, 0x8899_aabb_ccdd_eeff);
                }
                Aes => p.set(AesKernel::REG_KEY0, 0x1122_3344_5566_7788),
                Sw => p.set(SwKernel::REG_REF_LINES, 2),
                _ => {}
            }
        }
        Grn => {
            let dst = p.buffer(n * 64, scratch, page, Fill::Zero);
            p.set(GrnKernel::REG_DST, Value::At(dst, 0));
            p.set(GrnKernel::REG_LINES, n);
            p.set(GrnKernel::REG_SEED, seed);
        }
        Sssp => {
            // A window's graph outlasts it at ≈ 0.5 µs per edge.
            let edges = match spec.work {
                Work::Bounded(edges) => edges as usize,
                Work::Window(w) => ((w as f64 * 2.5 / 500.0) as usize * 4).max(50_000),
            };
            return sssp_program(&random_graph(edges / 8, edges, seed), page, bounded);
        }
        Btc => {
            let header = BlockHeader::example().to_bytes().to_vec();
            let src = p.buffer(4096, false, page, Fill::Bytes(header));
            p.set(BtcKernel::REG_SRC, Value::At(src, 0));
            if bounded {
                // About one nonce in sixteen meets the target.
                p.set(BtcKernel::REG_TARGET, 0x0FFF_FFFF);
                p.set(BtcKernel::REG_START_NONCE, 0);
                p.set(BtcKernel::REG_COUNT, n);
            } else {
                p.set(BtcKernel::REG_TARGET, 0); // impossible
                p.set(BtcKernel::REG_COUNT, u32::MAX as u64);
            }
        }
        Mb => {
            let bytes = spec.working_set.max(1 << 20);
            let region = p.buffer(bytes, scratch, page, Fill::Zero);
            p.set(MbKernel::REG_REGION, Value::At(region, 0));
            p.set(MbKernel::REG_BYTES, bytes);
            p.set(MbKernel::REG_MODE, spec.mb_mode);
            p.set(MbKernel::REG_OPS, if bounded { n } else { 0 }); // 0: unbounded
            p.set(MbKernel::REG_SEED, seed);
        }
        Wild => {
            let bytes = spec.working_set.max(1 << 20);
            let region = p.buffer(bytes, scratch, page, Fill::Zero);
            p.set(WildKernel::REG_REGION, Value::At(region, 0));
            p.set(WildKernel::REG_BYTES, bytes);
            p.set(WildKernel::REG_OPS, if bounded { n } else { u64::MAX });
            // The wild probes aim one slice stride past the legit region:
            // with slicing on they leave this tenant's auditor window and
            // must master-abort.
            p.set(WildKernel::REG_WILD_BASE, Value::At(region, 64 << 30));
            p.set(WildKernel::REG_WILD_BYTES, 1 << 20);
            p.set(WildKernel::REG_WILD_EVERY, 4);
            p.set(WildKernel::REG_SEED, seed);
        }
        Ll => {
            let nodes = (spec.working_set / 64).max(64);
            let list = p.buffer(nodes * 64, false, page, Fill::List(seed));
            p.set(LlKernel::REG_START, Value::At(list, 0));
            p.set(LlKernel::REG_STEPS, if bounded { n } else { 0 }); // 0: unbounded
        }
        HcDma => {
            let data = match bounded {
                true => Fill::Bytes(random_bytes(n as usize * 64, seed)),
                false => Fill::Zero,
            };
            let data = p.buffer(n * 64, false, page, data);
            let run = vec![Value::At(data, 0), Value::Imm(n)];
            let desc = p.buffer(64, false, page, Fill::Words(run));
            p.set(HcDmaKernel::REG_DESC, Value::At(desc, 0));
        }
    }
    p
}

/// An SSSP job from vertex 0 over `graph`, with the distance array
/// initialised the way the guest library does (0 at the source, `INF`
/// elsewhere). Bounded programs have an oracle.
pub fn sssp_program(graph: &CsrGraph, page: PageSize, bounded: bool) -> Program {
    let mut p = Program::new(AccelKind::Sssp, bounded);
    let blob = graph.to_dram_layout();
    let blob = p.buffer(blob.len() as u64, false, page, Fill::Bytes(blob));
    let n = graph.vertices();
    let init = (0..n).flat_map(|v| if v == 0 { 0u32 } else { INF }.to_le_bytes()).collect();
    let dist = p.buffer((n as u64 * 4).div_ceil(64) * 64 + 64, false, page, Fill::Bytes(init));
    p.set(SsspKernel::REG_GRAPH, Value::At(blob, 0));
    p.set(SsspKernel::REG_DIST, Value::At(dist, 0));
    p.set(SsspKernel::REG_SOURCE, 0);
    p
}

/// Allocates and fills every buffer in order and sets the state buffer;
/// writes no register.
pub fn alloc(p: &Program, g: &mut GuestCtx) -> Placed {
    let gvas = p.buffers.iter().map(|b| match b.fill {
        Fill::List(seed) => {
            let nodes = b.bytes / 64;
            g.alloc_dma_lazy_lines_sized(b.bytes, b.page, |gva, hpa| {
                linked_list_line_filler(gva, hpa, nodes, seed)
            })
        }
        _ => {
            let backing = if b.scratch { Backing::Scratch } else { Backing::Normal };
            match b.page {
                PageSize::Huge => g.alloc_dma_with(b.bytes, backing),
                PageSize::Small => g.alloc_dma_4k(b.bytes, backing),
            }
        }
    });
    let placed = Placed(gvas.collect());
    for (b, &gva) in p.buffers.iter().zip(&placed.0) {
        match &b.fill {
            Fill::Bytes(bytes) => g.write_mem(gva, bytes),
            Fill::Words(words) => {
                let bytes: Vec<u8> = words.iter().flat_map(|&w| placed.resolve(w).to_le_bytes()).collect();
                g.write_mem(gva, &bytes);
            }
            Fill::Zero | Fill::List(_) => {}
        }
    }
    if let Some(state) = p.state {
        g.set_state_buffer(placed.0[state]);
    }
    placed
}

/// Writes the program's registers, in order, for its placed buffers.
pub fn write_regs(p: &Program, placed: &Placed, g: &mut GuestCtx) {
    for &(reg, value) in &p.regs {
        g.mmio_write(APP + reg, placed.resolve(value));
    }
}

/// [`alloc`]s the program, writes its registers and posts `CMD_START`.
pub fn apply(p: &Program, g: &mut GuestCtx) -> Placed {
    let placed = alloc(p, g);
    write_regs(p, &placed, g);
    g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    placed
}

/// What a bounded job must leave behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Oracle {
    /// Leading bytes of output buffers: (buffer index, bytes).
    pub regions: Vec<(usize, Vec<u8>)>,
    /// Result registers (offsets from `APP_BASE`) and their values.
    pub regs: Vec<(u64, Value)>,
}

/// How a finished job differs from its oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// Buffer `buf` first differs at byte `at`.
    Region { buf: usize, at: usize, want: u8, got: u8 },
    /// Result register `reg` reads `got`.
    Reg { reg: u64, want: u64, got: u64 },
}

/// Replays a bounded program against `optimus_algo`. `None` for a
/// windowed program, or one whose pointers no longer name its own
/// explicit inputs.
pub fn oracle(p: &Program) -> Option<Oracle> {
    use AccelKind::*;
    if !p.bounded {
        return None;
    }
    let lines_reg = if p.kind == Grn { GrnKernel::REG_LINES } else { StreamShell::REG_LINES };
    let lines = p.imm(lines_reg).unwrap_or(0);
    let src = || p.input(StreamShell::REG_SRC, lines * 64);
    let dst = || p.target(StreamShell::REG_DST);
    let mut o = Oracle { regions: Vec::new(), regs: Vec::new() };
    let mut out = |buf: usize, bytes: Vec<u8>| o.regions.push((buf, bytes));
    match p.kind {
        Aes => {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&p.imm(AesKernel::REG_KEY0)?.to_le_bytes());
            key[8..].copy_from_slice(&p.imm(AesKernel::REG_KEY1)?.to_le_bytes());
            let mut data = src()?;
            optimus_algo::aes::Aes128::new(&key).encrypt_ecb(&mut data);
            out(dst()?, data);
        }
        Md5 | Sha => {
            let data = src()?;
            let mut line = match p.kind {
                Md5 => optimus_algo::md5::md5(&data).to_vec(),
                _ => optimus_algo::sha2::sha512(&data).to_vec(),
            };
            // The digest is mirrored in the result registers, 8 bytes each.
            for (i, word) in line.chunks_exact(8).enumerate() {
                let word = u64::from_le_bytes(word.try_into().unwrap());
                o.regs.push((hash::reg::DIGEST0 + 8 * i as u64, Value::Imm(word)));
            }
            line.resize(64, 0);
            out(dst()?, line);
        }
        Fir => {
            let samples: Vec<i16> =
                src()?.chunks_exact(2).map(|c| i16::from_le_bytes([c[0], c[1]])).collect();
            let filtered = optimus_algo::fir::FirFilter::low_pass(31, 0.25).filter(&samples);
            out(dst()?, filtered.iter().flat_map(|s| s.to_le_bytes()).collect());
        }
        Grn => {
            let mut gen = optimus_algo::gaussian::CltGaussian::new(p.imm(GrnKernel::REG_SEED)?);
            let mut bytes = vec![0u8; lines as usize * 64];
            for line in bytes.chunks_exact_mut(64) {
                gen.fill_line(line.try_into().unwrap());
            }
            out(p.target(GrnKernel::REG_DST)?, bytes);
        }
        Rsd => {
            let codec = optimus_algo::reed_solomon::ReedSolomon::new(32);
            let mut data = p.input(StreamShell::REG_SRC, lines / 4 * 256)?;
            let mut failures = 0;
            for cw in data.chunks_exact_mut(256) {
                match codec.correct(&mut cw[..255]) {
                    Ok(_) => cw[223..].fill(0),
                    Err(_) => {
                        failures += 1;
                        cw.fill(0);
                    }
                }
            }
            out(dst()?, data);
            o.regs.push((RsdKernel::REG_DECODED, Value::Imm(lines / 4)));
            o.regs.push((RsdKernel::REG_FAILURES, Value::Imm(failures)));
        }
        Sw => {
            let ref_lines = p.imm(SwKernel::REG_REF_LINES)?.clamp(1, optimus_accel::sw::MAX_REF_LINES);
            let ref_len = ref_lines * 64;
            let data = src()?;
            let (reference, queries) = data.split_at((ref_len as usize).min(data.len()));
            let scoring = optimus_algo::smith_waterman::Scoring::default();
            let (mut best, mut best_block) = (0u64, 0u64);
            for (block, q) in queries.chunks_exact(64).enumerate() {
                let score = optimus_algo::smith_waterman::score_only(q, reference, &scoring) as u64;
                if score > best {
                    (best, best_block) = (score, block as u64);
                }
            }
            o.regs.push((SwKernel::REG_BEST, Value::Imm(best)));
            o.regs.push((SwKernel::REG_BEST_BLOCK, Value::Imm(best_block)));
        }
        Gau | Sbl => {
            let image = Image::new(64, lines as usize, 1, src()?);
            let filtered = if p.kind == Gau { gaussian_blur(&image) } else { sobel(&image) };
            out(dst()?, filtered.data().to_vec());
        }
        Grs => {
            // Sixteen RGBA pixels a line; the alpha byte is ignored.
            let rgb = src()?.chunks_exact(4).flat_map(|px| [px[0], px[1], px[2]]).collect();
            let mut luma = grayscale(&Image::new(16, lines as usize, 3, rgb)).data().to_vec();
            luma.resize(luma.len().div_ceil(64) * 64, 0);
            out(dst()?, luma);
        }
        Sssp => {
            let graph = p.buffers.get(p.target(SsspKernel::REG_GRAPH)?)?;
            let Fill::Bytes(blob) = &graph.fill else { return None };
            let dist = sssp(&CsrGraph::from_dram_layout(blob), p.imm(SsspKernel::REG_SOURCE)? as u32);
            out(p.target(SsspKernel::REG_DIST)?, dist.iter().flat_map(|d| d.to_le_bytes()).collect());
        }
        Btc => {
            let bytes: [u8; 80] = p.input(BtcKernel::REG_SRC, 80)?.try_into().ok()?;
            let (start, count) = (p.imm(BtcKernel::REG_START_NONCE)?, p.imm(BtcKernel::REG_COUNT)?);
            let target = (p.imm(BtcKernel::REG_TARGET)? as u32).to_be_bytes();
            let found = mine_range(&BlockHeader::from_bytes(&bytes), target, start as u32, count as u32);
            let attempts = found.map_or(count, |f| f.wrapping_sub(start as u32) as u64 + 1);
            o.regs.push((BtcKernel::REG_FOUND, Value::Imm(found.map_or(u64::MAX, u64::from))));
            o.regs.push((BtcKernel::REG_ATTEMPTS, Value::Imm(attempts)));
        }
        Mb => o.regs.push((MbKernel::REG_COMPLETED, Value::Imm(p.imm(MbKernel::REG_OPS)?))),
        Ll => {
            let list = p.target(LlKernel::REG_START)?;
            let Fill::List(seed) = p.buffers[list].fill else { return None };
            let (nodes, hops) = (p.buffers[list].bytes / 64, p.imm(LlKernel::REG_STEPS)?);
            // The list is one cycle in Feistel order: the walk's end is two
            // permutation evaluations whatever the hop count.
            let perm = FeistelPermutation::new(nodes, seed);
            let end = perm.apply((perm.invert(0) + hops % nodes) % nodes);
            o.regs.push((LlKernel::REG_DONE_STEPS, Value::Imm(hops)));
            o.regs.push((LlKernel::REG_CURRENT, Value::At(list, end * 64)));
        }
        Wild => {
            o.regs.push((WildKernel::REG_COMPLETED, Value::Imm(p.imm(WildKernel::REG_OPS)?)));
            o.regs.push((WildKernel::REG_WILD_LEAKED, Value::Imm(0)));
            o.regs.push((WildKernel::REG_LEGIT_ABORTED, Value::Imm(0)));
        }
        HcDma => {
            let desc = &p.buffers[p.target(HcDmaKernel::REG_DESC)?];
            let Fill::Words(words) = &desc.fill else { return None };
            let runs = words.chunks(2).map(|run| match run {
                [Value::At(..), Value::Imm(lines)] => Some(*lines),
                _ => None,
            });
            let delivered = runs.sum::<Option<u64>>()?;
            o.regs.push((HcDmaKernel::REG_DELIVERED, Value::Imm(delivered)));
        }
    }
    Some(o)
}

/// Compares a finished job with its oracle: output regions through
/// guest memory, result registers through the trapped MMIO read, as a
/// guest driver would.
pub fn check(o: &Oracle, placed: &Placed, g: &mut GuestCtx) -> Result<(), Mismatch> {
    for (buf, want) in &o.regions {
        let mut got = vec![0u8; want.len()];
        g.read_mem(placed.0[*buf], &mut got);
        if let Some(at) = (0..want.len()).find(|&i| got[i] != want[i]) {
            return Err(Mismatch::Region { buf: *buf, at, want: want[at], got: got[at] });
        }
    }
    for &(reg, want) in &o.regs {
        let (want, got) = (placed.resolve(want), g.mmio_read(APP + reg));
        if got != want {
            return Err(Mismatch::Reg { reg, want, got });
        }
    }
    Ok(())
}
