//! The device MMIO address map (§5, "MMIO Slicing").
//!
//! The MMIO space of an OPTIMUS-configured FPGA has three portions:
//!
//! 1. the region reserved for the HARP shell itself;
//! 2. a 4 KB page for the virtualization control unit's accelerator
//!    management interface;
//! 3. one 4 KB page per physical accelerator, with isolation enforced by
//!    that accelerator's auditor.
//!
//! Within each accelerator page, the low offsets hold the *control
//! registers* of the preemption interface (privileged — the hypervisor
//! traps and never forwards guest accesses to them directly), and offsets
//! from [`accel_reg::APP_BASE`] upward hold the accelerator's *application
//! registers*.

/// Size of the shell-reserved MMIO region.
pub const SHELL_SIZE: u64 = 0x1_0000;
/// Base of the VCU's 4 KB management page.
pub const VCU_BASE: u64 = SHELL_SIZE;
/// Size of the VCU page.
pub const VCU_SIZE: u64 = 0x1000;
/// Base of the per-accelerator MMIO pages.
pub const ACCEL_BASE: u64 = VCU_BASE + VCU_SIZE;
/// Size of each accelerator's MMIO page.
pub const ACCEL_PAGE: u64 = 0x1000;

/// The device-relative base address of accelerator `i`'s MMIO page.
pub fn accel_mmio_base(i: usize) -> u64 {
    ACCEL_BASE + i as u64 * ACCEL_PAGE
}

/// Decodes a device-relative address into the accelerator index and
/// page-relative offset it targets, if it falls in any accelerator page.
pub fn decode_accel_addr(addr: u64) -> Option<(usize, u64)> {
    if addr < ACCEL_BASE {
        return None;
    }
    let idx = ((addr - ACCEL_BASE) / ACCEL_PAGE) as usize;
    Some((idx, (addr - ACCEL_BASE) % ACCEL_PAGE))
}

/// Register offsets inside the VCU page.
pub mod vcu_reg {
    /// Offset-table entries: `OFFSET_TABLE + 8·i` holds accelerator `i`'s
    /// page-table-slicing offset (IOVA − GVA).
    pub const OFFSET_TABLE: u64 = 0x000;
    /// Reset-table entries: writing 1 to `RESET_TABLE + 8·i` pulses
    /// accelerator `i`'s reset line.
    pub const RESET_TABLE: u64 = 0x100;
    /// Read-only: number of physical accelerators on the device.
    pub const NUM_ACCELS: u64 = 0x200;
    /// Window-base-table entries: `WINDOW_BASE_TABLE + 8·i` holds the
    /// base IOVA of accelerator `i`'s outbound DMA window (the base of
    /// its tenant's page-table slice).
    pub const WINDOW_BASE_TABLE: u64 = 0x300;
    /// Window-length-table entries: `WINDOW_LEN_TABLE + 8·i` holds the
    /// byte length of accelerator `i`'s outbound DMA window. `u64::MAX`
    /// (the power-on value) disables screening.
    pub const WINDOW_LEN_TABLE: u64 = 0x400;
    /// Read-only: magic identifying an OPTIMUS-compatible configuration.
    pub const MAGIC: u64 = 0x208;
    /// Read-only: number of multiplexer-tree levels.
    pub const TREE_LEVELS: u64 = 0x210;
    /// The value [`MAGIC`] reads as ("OPTI" in ASCII).
    pub const MAGIC_VALUE: u64 = 0x4F50_5449;
}

/// Register offsets inside each accelerator's MMIO page.
pub mod accel_reg {
    /// Write-only command register: [`CMD_START`], [`CMD_PREEMPT`],
    /// [`CMD_RESUME`].
    pub const CTRL_CMD: u64 = 0x00;
    /// Read-only status register (a [`CtrlStatus`](crate::accelerator::CtrlStatus) value).
    pub const CTRL_STATUS: u64 = 0x08;
    /// Guest virtual address of the preemption state buffer.
    pub const CTRL_STATE_ADDR: u64 = 0x10;
    /// Read-only: bytes of state the accelerator saves on preemption.
    pub const CTRL_STATE_SIZE: u64 = 0x18;

    /// Bytes a save of `state_size` bytes of state occupies in the state
    /// buffer, and a resume reads back: an 8-byte length header, then the
    /// state, padded to whole 64-byte lines. `None` past the address space.
    pub fn framed_state_bytes(state_size: u64) -> Option<u64> {
        state_size.checked_add(8)?.checked_next_multiple_of(64)
    }

    /// First application register; everything below is privileged control.
    pub const APP_BASE: u64 = 0x40;

    /// Begin (or continue) the programmed job.
    pub const CMD_START: u64 = 1;
    /// Drain in-flight transactions and save state to the state buffer.
    pub const CMD_PREEMPT: u64 = 2;
    /// Reload state from the state buffer and continue execution.
    pub const CMD_RESUME: u64 = 3;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        assert!(SHELL_SIZE <= VCU_BASE);
        assert_eq!(VCU_BASE + VCU_SIZE, ACCEL_BASE);
        assert_eq!(accel_mmio_base(0), ACCEL_BASE);
        assert_eq!(accel_mmio_base(1), ACCEL_BASE + ACCEL_PAGE);
    }

    #[test]
    fn decode_roundtrips() {
        for i in 0..8 {
            let (idx, off) = decode_accel_addr(accel_mmio_base(i) + 0x40).unwrap();
            assert_eq!(idx, i);
            assert_eq!(off, 0x40);
        }
        assert_eq!(decode_accel_addr(VCU_BASE), None);
        assert_eq!(decode_accel_addr(0), None);
    }

    #[test]
    fn control_registers_below_app_base() {
        use accel_reg::*;
        for reg in [CTRL_CMD, CTRL_STATUS, CTRL_STATE_ADDR, CTRL_STATE_SIZE] {
            assert!(reg < APP_BASE);
        }
    }

    #[test]
    fn a_framed_save_is_header_plus_state_in_whole_lines() {
        use accel_reg::framed_state_bytes;
        // LinkedList's 32-byte state frames to one line, MemBench's 80 to two.
        assert_eq!(framed_state_bytes(32), Some(64));
        assert_eq!(framed_state_bytes(56), Some(64));
        assert_eq!(framed_state_bytes(57), Some(128));
        assert_eq!(framed_state_bytes(80), Some(128));
        assert_eq!(framed_state_bytes(u64::MAX - 60), None);
        assert_eq!(framed_state_bytes(u64::MAX), None);
    }
}
