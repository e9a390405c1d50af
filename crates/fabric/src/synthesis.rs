//! Synthesizer model: replication scaling and timing closure.
//!
//! Two phenomena from the paper's synthesis runs are modeled here:
//!
//! 1. **Replication scaling (Table 2).** Placing eight instances of a
//!    benchmark does not cost exactly 8× one instance: complex designs pay
//!    routing overhead ("the synthesizer must consume extra resources in
//!    order to route signals... under timing requirements") while simple
//!    ones are optimized sublinearly (MemBench ≈ 6×; LinkedList's overall
//!    usage even *decreases*). Each accelerator's measured 8-instance
//!    factor is a toolchain input carried in its
//!    [`AccelMeta`]; [`replicated_usage`]
//!    interpolates it for other instance counts.
//!
//! 2. **Timing closure (§5).** A flat multiplexer with many children
//!    cannot close timing at the 400 MHz needed to fully utilize memory
//!    bandwidth — that is why OPTIMUS uses a binary *tree*, and why
//!    AmorphOS's flat mux runs at lower frequency. [`node_fmax_mhz`]
//!    models a mux node's achievable frequency as a function of its fan-in,
//!    and [`check_timing`] rejects configurations that miss 400 MHz.

use crate::accelerator::AccelMeta;
use crate::mux_tree::TreeConfig;
use crate::resources::{monitor_usage, shell_usage, Usage};

/// Target fabric frequency (MHz) required to fully utilize the memory
/// bandwidth (§5).
pub const TARGET_FABRIC_MHZ: f64 = 400.0;

/// Achievable frequency of one multiplexer node with `fan_in` children.
///
/// A 2:1 mux closes comfortably above 400 MHz; each extra input deepens
/// the arbitration/select logic and lengthens routing, costing ≈ 15 % of
/// the base frequency — so 4:1 lands below 400 MHz, matching the paper's
/// observation that wider arrangements failed synthesis.
pub fn node_fmax_mhz(fan_in: usize) -> f64 {
    assert!(fan_in >= 1);
    500.0 / (1.0 + 0.15 * (fan_in.saturating_sub(2)) as f64)
}

/// A timing-closure failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingViolation {
    /// The widest node's fan-in.
    pub fan_in: usize,
    /// The frequency that node could achieve.
    pub achieved_mhz: f64,
    /// The frequency that was required.
    pub required_mhz: f64,
}

impl core::fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "a {}:1 multiplexer node closes at {:.0} MHz < required {:.0} MHz",
            self.fan_in, self.achieved_mhz, self.required_mhz
        )
    }
}

impl std::error::Error for TimingViolation {}

/// Checks that every node of `config` closes timing at `required_mhz`.
///
/// # Errors
///
/// Returns the violating fan-in if any node misses the target.
pub fn check_timing(config: TreeConfig, required_mhz: f64) -> Result<(), TimingViolation> {
    // The widest node in the tree has min(arity, leaves) children.
    let fan_in = config.arity.min(config.leaves.max(1));
    let achieved = node_fmax_mhz(fan_in);
    if achieved + 1e-9 < required_mhz {
        Err(TimingViolation {
            fan_in,
            achieved_mhz: achieved,
            required_mhz,
        })
    } else {
        Ok(())
    }
}

/// Resource usage of `count` instances of an accelerator.
///
/// Interpolates between the single-instance synthesis report and the
/// measured 8-instance replication factor: the per-added-instance overhead
/// (or credit) accrues linearly.
pub fn replicated_usage(meta: &AccelMeta, count: usize) -> Usage {
    assert!(count >= 1);
    let interp = |single_pct: f64, scale8: f64| -> f64 {
        // factor(1) = 1, factor(8) = scale8, linear in (count - 1).
        let factor = 1.0 + (scale8 - 1.0) * (count as f64 - 1.0) / 7.0;
        single_pct * factor
    };
    Usage::new(
        interp(meta.alm_pct, meta.alm_scale8),
        interp(meta.bram_pct, meta.bram_scale8),
    )
}

/// A full-device synthesis report: shell + monitor + replicated accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisReport {
    /// Shell usage.
    pub shell: Usage,
    /// Hardware monitor usage (zero in pass-through).
    pub monitor: Usage,
    /// Accelerator instances' combined usage.
    pub accels: Usage,
}

impl SynthesisReport {
    /// Total device utilization.
    pub fn total(&self) -> Usage {
        self.shell.plus(self.monitor).plus(self.accels)
    }
}

/// Synthesizes an OPTIMUS configuration: `count` instances of `meta`
/// behind a tree shaped by `config`.
///
/// # Errors
///
/// Fails with [`TimingViolation`] if the multiplexer arrangement cannot
/// close 400 MHz timing.
pub fn synthesize_monitored(
    meta: &AccelMeta,
    count: usize,
    config: TreeConfig,
) -> Result<SynthesisReport, TimingViolation> {
    check_timing(config, TARGET_FABRIC_MHZ)?;
    Ok(SynthesisReport {
        shell: shell_usage(),
        monitor: monitor_usage(config),
        accels: replicated_usage(meta, count),
    })
}

/// Synthesizes the pass-through baseline: one instance, no monitor.
pub fn synthesize_passthrough(meta: &AccelMeta) -> SynthesisReport {
    SynthesisReport {
        shell: shell_usage(),
        monitor: Usage::default(),
        accels: Usage::new(meta.alm_pct, meta.bram_pct),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(alm: f64, bram: f64, alm_scale8: f64, bram_scale8: f64) -> AccelMeta {
        AccelMeta {
            name: "T",
            description: "test",
            freq_mhz: 400,
            verilog_loc: 100,
            alm_pct: alm,
            bram_pct: bram,
            alm_scale8,
            bram_scale8,
            state_bytes: 64,
            demand: 0.1,
        }
    }

    #[test]
    fn binary_tree_closes_timing() {
        assert!(check_timing(TreeConfig::default_eight(), 400.0).is_ok());
    }

    #[test]
    fn flat_eight_mux_fails_timing() {
        let flat = TreeConfig { leaves: 8, arity: 8 };
        let err = check_timing(flat, 400.0).unwrap_err();
        assert_eq!(err.fan_in, 8);
        assert!(err.achieved_mhz < 400.0);
    }

    #[test]
    fn quad_tree_fails_timing() {
        // The paper: "more nodes per layer" arrangements could not be
        // synthesized without dropping below 400 MHz.
        assert!(check_timing(TreeConfig { leaves: 8, arity: 4 }, 400.0).is_err());
    }

    #[test]
    fn flat_mux_would_pass_at_amorphos_frequencies() {
        // AmorphOS-style flat muxing is viable at lower clocks.
        let flat = TreeConfig { leaves: 8, arity: 8 };
        assert!(check_timing(flat, 250.0).is_ok());
    }

    #[test]
    fn replication_interpolates_endpoints() {
        let m = meta(3.62, 2.82, 7.68, 8.16); // AES's measured factors
        let one = replicated_usage(&m, 1);
        assert!((one.alm_pct - 3.62).abs() < 1e-9);
        let eight = replicated_usage(&m, 8);
        assert!((eight.alm_pct - 3.62 * 7.68).abs() < 1e-9);
        assert!((eight.bram_pct - 2.82 * 8.16).abs() < 1e-9);
    }

    #[test]
    fn sublinear_replication_supported() {
        let m = meta(0.83, 0.0, 5.83, 8.0); // MemBench: ~6×
        let eight = replicated_usage(&m, 8);
        assert!(eight.alm_pct < 0.83 * 8.0);
    }

    #[test]
    fn negative_scaling_supported() {
        // LinkedList's overall usage decreases with replication.
        let m = meta(0.15, 0.0, -1.6, 8.0);
        let eight = replicated_usage(&m, 8);
        assert!(eight.alm_pct < 0.0);
    }

    #[test]
    fn full_report_totals() {
        let m = meta(2.0, 1.0, 8.0, 8.0);
        let rep = synthesize_monitored(&m, 8, TreeConfig::default_eight()).unwrap();
        let total = rep.total();
        assert!((total.alm_pct - (23.44 + rep.monitor.alm_pct + 16.0)).abs() < 1e-9);
        let pt = synthesize_passthrough(&m);
        assert_eq!(pt.monitor, Usage::default());
        assert!((pt.total().alm_pct - 25.44).abs() < 1e-9);
    }
}
