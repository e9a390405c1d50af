//! Benchmark metadata (Tables 1 and 2) and the accelerator factory.
//!
//! Two kinds of numbers live here:
//!
//! * **Table 1 inputs** — description, Verilog line count, and synthesis
//!   frequency of each benchmark, straight from the paper;
//! * **Table 2 inputs** — each benchmark's *single-instance* resource
//!   utilization and its measured 8-instance replication factor. These are
//!   synthesis-toolchain outputs on the authors' board; the reproduction
//!   treats them as declared inputs (like the Verilog line counts) and
//!   feeds them to the [`synthesis model`](optimus_fabric::synthesis),
//!   which regenerates Table 2 for any instance count and flags timing
//!   violations for invalid multiplexer arrangements.
//!
//! DMA-demand fractions (`demand`) are *documentation* of each kernel's
//! architecture (packets per line ÷ line interval); the measured fractions
//! emerge from the kernels' state machines and are validated against these
//! in integration tests.

use crate::harness::Harnessed;
use optimus_fabric::accelerator::{AccelMeta, Accelerator};

/// The fourteen benchmarks of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccelKind {
    /// AES-128 encryption.
    Aes,
    /// MD5 hashing.
    Md5,
    /// SHA-512 hashing.
    Sha,
    /// Finite impulse response filter.
    Fir,
    /// Gaussian random number generator.
    Grn,
    /// Reed–Solomon decoder.
    Rsd,
    /// Smith–Waterman alignment.
    Sw,
    /// Gaussian image filter.
    Gau,
    /// Grayscale image filter.
    Grs,
    /// Sobel image filter.
    Sbl,
    /// Single-source shortest path.
    Sssp,
    /// Bitcoin miner.
    Btc,
    /// MemBench random-access micro-benchmark.
    Mb,
    /// LinkedList pointer-chasing micro-benchmark.
    Ll,
    /// WildDma adversarial isolation prober (not a Table 1 benchmark —
    /// excluded from [`ALL`](Self::ALL); used by the isolation spec and
    /// noninterference suites).
    Wild,
    /// The host-centric model's shell DMA engine (Fig. 1; not a Table 1
    /// benchmark, excluded from [`ALL`](Self::ALL) like `Wild`).
    HcDma,
}

impl AccelKind {
    /// Every benchmark, in Table 1 order.
    pub const ALL: [AccelKind; 14] = [
        AccelKind::Aes,
        AccelKind::Md5,
        AccelKind::Sha,
        AccelKind::Fir,
        AccelKind::Grn,
        AccelKind::Rsd,
        AccelKind::Sw,
        AccelKind::Gau,
        AccelKind::Grs,
        AccelKind::Sbl,
        AccelKind::Sssp,
        AccelKind::Btc,
        AccelKind::Mb,
        AccelKind::Ll,
    ];

    /// The twelve "real-world" benchmarks (everything but MB and LL).
    pub const REAL_WORLD: [AccelKind; 12] = [
        AccelKind::Aes,
        AccelKind::Md5,
        AccelKind::Sha,
        AccelKind::Fir,
        AccelKind::Grn,
        AccelKind::Rsd,
        AccelKind::Sw,
        AccelKind::Gau,
        AccelKind::Grs,
        AccelKind::Sbl,
        AccelKind::Sssp,
        AccelKind::Btc,
    ];

    /// Parses a Table 1 short name (plus the off-table `WILD` prober).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .iter()
            .copied()
            .find(|k| k.meta().name.eq_ignore_ascii_case(name))
            .or_else(|| name.eq_ignore_ascii_case("WILD").then_some(AccelKind::Wild))
    }

    /// The benchmark's static metadata.
    pub fn meta(self) -> AccelMeta {
        // Columns: (name, description, LoC, MHz) from Table 1;
        // (alm%, bram%) single-instance and (alm, bram) 8-instance scale
        // factors from Table 2; state bytes and nominal demand from the
        // kernel architecture.
        let (name, description, verilog_loc, freq_mhz) = match self {
            AccelKind::Aes => ("AES", "AES128 Encryption Algorithm", 1965, 200),
            AccelKind::Md5 => ("MD5", "MD5 Hashing Algorithm", 1266, 100),
            AccelKind::Sha => ("SHA", "SHA512 Hashing Algorithm", 2218, 200),
            AccelKind::Fir => ("FIR", "Finite Impulse Response Filter", 1090, 200),
            AccelKind::Grn => ("GRN", "Gaussian Random Number Generator", 1238, 200),
            AccelKind::Rsd => ("RSD", "Reed Solomon Decoder", 5324, 200),
            AccelKind::Sw => ("SW", "Smith Waterman Algorithm", 1265, 100),
            AccelKind::Gau => ("GAU", "Gaussian Image Filter", 2406, 200),
            AccelKind::Grs => ("GRS", "Grayscale Image Filter", 2266, 200),
            AccelKind::Sbl => ("SBL", "Sobel Image Filter", 2451, 200),
            AccelKind::Sssp => ("SSSP", "Single Source Shortest Path", 3140, 200),
            AccelKind::Btc => ("BTC", "Bitcoin Miner", 1009, 100),
            AccelKind::Mb => ("MB", "Random Memory Accesses", 1020, 400),
            AccelKind::Ll => ("LL", "Linked List Walker", 695, 400),
            AccelKind::Wild => ("WILD", "Adversarial Out-of-Window Prober", 1020, 400),
            AccelKind::HcDma => ("HCDMA", "Host-Centric Shell DMA Engine", 0, 400),
        };
        let (alm_pct, bram_pct, alm_scale8, bram_scale8) = match self {
            AccelKind::Aes => (3.62, 2.82, 7.68, 8.16),
            AccelKind::Md5 => (4.35, 2.82, 7.88, 8.16),
            AccelKind::Sha => (2.16, 2.82, 8.41, 7.96),
            AccelKind::Fir => (1.92, 2.82, 8.21, 7.96),
            AccelKind::Grn => (1.76, 1.02, 7.12, 7.82),
            AccelKind::Rsd => (2.21, 2.87, 8.11, 7.97),
            AccelKind::Sw => (1.42, 1.47, 7.28, 7.94),
            AccelKind::Gau => (3.41, 2.60, 7.41, 8.17),
            AccelKind::Grs => (1.32, 2.28, 7.52, 7.96),
            AccelKind::Sbl => (2.39, 2.55, 7.74, 7.96),
            AccelKind::Sssp => (1.96, 2.82, 8.03, 7.97),
            AccelKind::Btc => (1.32, 0.48, 6.81, 8.67),
            AccelKind::Mb => (0.83, 0.00, 5.83, 8.0),
            AccelKind::Ll => (0.15, 0.00, -1.6, 8.0),
            AccelKind::Wild | AccelKind::HcDma => (0.83, 0.00, 5.83, 8.0),
        };
        let (state_bytes, demand) = match self {
            AccelKind::Aes => (128, 0.14),
            AccelKind::Md5 => (64, 0.50),
            AccelKind::Sha => (256, 0.22),
            AccelKind::Fir => (192, 0.25),
            AccelKind::Grn => (64, 0.02),
            AccelKind::Rsd => (320, 0.22),
            AccelKind::Sw => (384, 0.22),
            AccelKind::Gau => (256, 0.20),
            AccelKind::Grs => (192, 0.20),
            AccelKind::Sbl => (256, 0.21),
            AccelKind::Sssp => (128, 0.25),
            AccelKind::Btc => (192, 0.01),
            AccelKind::Mb => (64, 1.00),
            AccelKind::Ll => (64, 0.02),
            AccelKind::Wild => (96, 1.00),
            AccelKind::HcDma => (24, 1.00),
        };
        AccelMeta {
            name,
            description,
            freq_mhz,
            verilog_loc,
            alm_pct,
            bram_pct,
            alm_scale8,
            bram_scale8,
            state_bytes,
            demand,
        }
    }
}

/// Builds a boxed accelerator of the given kind with a seed for any
/// internal randomness (MemBench's address stream, GRN's generator).
pub fn build_accelerator(kind: AccelKind, seed: u64) -> Box<dyn Accelerator> {
    match kind {
        AccelKind::Aes => Box::new(Harnessed::new(crate::aes::AesKernel::new())),
        AccelKind::Md5 => Box::new(Harnessed::new(crate::hash::Md5Kernel::new())),
        AccelKind::Sha => Box::new(Harnessed::new(crate::hash::Sha512Kernel::new())),
        AccelKind::Fir => Box::new(Harnessed::new(crate::fir::FirKernel::new())),
        AccelKind::Grn => Box::new(Harnessed::new(crate::grn::GrnKernel::new(seed))),
        AccelKind::Rsd => Box::new(Harnessed::new(crate::rsd::RsdKernel::new())),
        AccelKind::Sw => Box::new(Harnessed::new(crate::sw::SwKernel::new())),
        AccelKind::Gau => Box::new(Harnessed::new(crate::image::ConvKernel::gaussian())),
        AccelKind::Grs => Box::new(Harnessed::new(crate::image::GrsKernel::new())),
        AccelKind::Sbl => Box::new(Harnessed::new(crate::image::ConvKernel::sobel())),
        AccelKind::Sssp => Box::new(Harnessed::new(crate::sssp::SsspKernel::new())),
        AccelKind::Btc => Box::new(Harnessed::new(crate::btc::BtcKernel::new())),
        AccelKind::Mb => Box::new(Harnessed::new(crate::membench::MbKernel::new(seed))),
        AccelKind::Ll => Box::new(Harnessed::new(crate::linked_list::LlKernel::new())),
        AccelKind::Wild => Box::new(Harnessed::new(crate::wild::WildKernel::new(seed))),
        AccelKind::HcDma => Box::new(Harnessed::new(crate::hc_dma::HcDmaKernel::new())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fourteen_present() {
        assert_eq!(AccelKind::ALL.len(), 14);
        assert_eq!(AccelKind::REAL_WORLD.len(), 12);
    }

    #[test]
    fn metadata_matches_table1() {
        let md5 = AccelKind::Md5.meta();
        assert_eq!(md5.verilog_loc, 1266);
        assert_eq!(md5.freq_mhz, 100);
        let rsd = AccelKind::Rsd.meta();
        assert_eq!(rsd.verilog_loc, 5324); // the largest benchmark
        let ll = AccelKind::Ll.meta();
        assert_eq!(ll.freq_mhz, 400);
    }

    #[test]
    fn name_round_trips() {
        for kind in AccelKind::ALL {
            assert_eq!(AccelKind::from_name(kind.meta().name), Some(kind));
        }
        assert_eq!(AccelKind::from_name("nope"), None);
        assert_eq!(AccelKind::from_name("md5"), Some(AccelKind::Md5));
    }

    #[test]
    fn frequencies_divide_the_fabric_clock() {
        for kind in AccelKind::ALL {
            let f = kind.meta().freq_mhz;
            assert_eq!(400 % f, 0, "{kind:?} at {f} MHz");
        }
    }

    #[test]
    fn factory_builds_every_kind() {
        for kind in AccelKind::ALL {
            let acc = build_accelerator(kind, 1);
            assert_eq!(acc.meta().name, kind.meta().name);
        }
    }

    #[test]
    fn md5_is_the_hungriest_real_world_app() {
        let md5 = AccelKind::Md5.meta().demand;
        for kind in AccelKind::REAL_WORLD {
            assert!(kind.meta().demand <= md5, "{kind:?}");
        }
    }
}
