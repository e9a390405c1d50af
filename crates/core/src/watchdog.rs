//! Isolation watchdogs: deterministic detectors over device-owned state.
//!
//! The hypervisor evaluates these detectors once per watchdog window (a
//! multiple of the time slice) and raises structured [`IsolationAlert`]s
//! when a tenant's observed service departs from the paper's isolation
//! guarantees:
//!
//! * **Starvation** — a scheduled tenant's share of multiplexer-tree root
//!   grants over the window fell below a fraction of its fair share
//!   (Table 3's real-time bandwidth fairness, violated);
//! * **IOTLB thrash** — the device-wide conflict-eviction rate over the
//!   window exceeded a threshold (the Fig. 6 slice-stride pathology);
//! * **Preemption overrun** — a preempted job blew the Fig. 8 drain+save
//!   budget and was forcibly reset (raised at the reset, not at the
//!   window boundary).
//!
//! Detectors read *device-owned deterministic state* — per-port root-grant
//! counters ([`FpgaDevice::port_forwarded`]), IOTLB statistics, the
//! forced-reset path — never the metrics plane, so the alert stream is
//! byte-identical with `OPTIMUS_METRICS=off` and under parallel node
//! stepping. The metrics plane merely mirrors each alert into the
//! `hv/isolation_alerts` counter for exposition.
//!
//! [`FpgaDevice::port_forwarded`]: optimus_fabric::device::FpgaDevice::port_forwarded

use crate::snapshot::{wire_enum, Reader, SnapshotError, Wire};
use optimus_fabric::platform::DeviceId;
use optimus_sim::time::Cycle;

/// What a watchdog detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// A tenant's mux grant share fell below the starvation threshold.
    Starvation,
    /// Conflict evictions dominated IOTLB lookups over the window.
    IotlbThrash,
    /// A preemption missed its deadline and forced a reset.
    PreemptOverrun,
    /// A drain+save was refused because the guest-provided state buffer
    /// does not resolve to mapped guest memory; the slot was force-reset
    /// instead of letting the save stream master-abort into the void.
    SaveRefused,
}

impl AlertKind {
    /// The label value used for the `hv/isolation_alerts` metric.
    pub fn metric_label(self) -> u32 {
        match self {
            AlertKind::Starvation => 0,
            AlertKind::IotlbThrash => 1,
            AlertKind::PreemptOverrun => 2,
            AlertKind::SaveRefused => 3,
        }
    }

    /// Stable lowercase name (exposition and logs).
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::Starvation => "starvation",
            AlertKind::IotlbThrash => "iotlb_thrash",
            AlertKind::PreemptOverrun => "preempt_overrun",
            AlertKind::SaveRefused => "save_refused",
        }
    }
}

wire_enum!(AlertKind, "alert kind", 0 => AlertKind::Starvation, 1 => AlertKind::IotlbThrash,
    2 => AlertKind::PreemptOverrun, 3 => AlertKind::SaveRefused);

/// One structured isolation alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsolationAlert {
    /// What was detected.
    pub kind: AlertKind,
    /// The device the detector ran on.
    pub device: DeviceId,
    /// The physical slot involved, or `None` for device-wide detectors
    /// (IOTLB thrash).
    pub slot: Option<usize>,
    /// Fabric cycle at which the alert was raised.
    pub at: Cycle,
    /// The observed value that tripped the detector (share, rate, or
    /// cycles — see `kind`).
    pub observed: f64,
    /// The threshold it was compared against.
    pub threshold: f64,
    /// The affected job, if the slot had one in flight when the detector
    /// tripped (`None` for device-wide detectors and idle slots).
    pub job: Option<u64>,
    /// For share-linked jobs, the peer on the other end of the channel:
    /// a starvation alert on a stalled consumer names the starved
    /// producer job instead of blaming the consumer's slot.
    pub peer_job: Option<u64>,
}

impl Wire for IsolationAlert {
    fn put(&self, w: &mut Vec<u8>) {
        self.kind.put(w);
        self.device.0.put(w);
        self.slot.map(|s| s as u64).put(w);
        self.at.put(w);
        self.observed.put(w);
        self.threshold.put(w);
        self.job.put(w);
        self.peer_job.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            kind: Wire::get(r)?,
            device: DeviceId(Wire::get(r)?),
            slot: Option::<u64>::get(r)?.map(|s| s as usize),
            at: Wire::get(r)?,
            observed: Wire::get(r)?,
            threshold: Wire::get(r)?,
            job: Wire::get(r)?,
            peer_job: Wire::get(r)?,
        })
    }
}

/// Watchdog thresholds. All detectors are always on; set a threshold to
/// its degenerate value (share 0.0, rate > 1.0) to effectively disable
/// one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Evaluation window in fabric cycles; 0 means "4 × time slice",
    /// resolved at hypervisor construction.
    pub window: Cycle,
    /// A scheduled tenant whose root-grant share is below
    /// `starvation_share × fair_share` is starved.
    pub starvation_share: f64,
    /// Minimum total root grants in a window before starvation is
    /// evaluated (quiet windows carry no fairness signal).
    pub min_grants: u64,
    /// Conflict-eviction rate (evictions / lookups) above which the
    /// window counts as IOTLB thrash.
    pub thrash_rate: f64,
    /// Minimum IOTLB lookups in a window before thrash is evaluated.
    pub min_lookups: u64,
    /// Alerts retained per hypervisor (oldest kept; the counters keep
    /// counting past the cap).
    pub max_alerts: usize,
}

impl Wire for WatchdogConfig {
    fn put(&self, w: &mut Vec<u8>) {
        self.window.put(w);
        self.starvation_share.put(w);
        self.min_grants.put(w);
        self.thrash_rate.put(w);
        self.min_lookups.put(w);
        (self.max_alerts as u64).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            window: Wire::get(r)?,
            starvation_share: Wire::get(r)?,
            min_grants: Wire::get(r)?,
            thrash_rate: Wire::get(r)?,
            min_lookups: Wire::get(r)?,
            max_alerts: u64::get(r)? as usize,
        })
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            window: 0,
            starvation_share: 0.2,
            min_grants: 256,
            thrash_rate: 0.5,
            min_lookups: 256,
            max_alerts: 1024,
        }
    }
}

/// Per-hypervisor watchdog state: the config, the next evaluation
/// deadline, and the last-sampled device counters the detectors diff
/// against.
#[derive(Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    /// Absolute cycle of the next window evaluation.
    pub next_eval: Cycle,
    /// Per-slot root-grant counts at the last evaluation.
    pub last_forwarded: Vec<u64>,
    /// (lookups, conflict evictions) at the last evaluation.
    pub last_iotlb: (u64, u64),
    /// Scratch for per-slot window deltas, reused across ticks so an
    /// evaluation allocates nothing on the hypervisor's run path.
    pub scratch: Vec<u64>,
    alerts: Vec<IsolationAlert>,
}

impl Watchdog {
    /// Builds the watchdog for `slots` physical slots, resolving a zero
    /// window to `4 × time_slice`.
    pub fn new(mut cfg: WatchdogConfig, slots: usize, time_slice: Cycle) -> Self {
        if cfg.window == 0 {
            cfg.window = time_slice.saturating_mul(4).max(1);
        }
        Self {
            next_eval: cfg.window,
            last_forwarded: vec![0; slots],
            last_iotlb: (0, 0),
            scratch: Vec::with_capacity(slots),
            alerts: Vec::new(),
            cfg,
        }
    }

    /// Rebuilds a watchdog from snapshotted state (hypervisor live-update):
    /// the resolved config, evaluation deadline, diff baselines, and the
    /// retained alert history all carry over unchanged.
    pub fn restore(
        cfg: WatchdogConfig,
        next_eval: Cycle,
        last_forwarded: Vec<u64>,
        last_iotlb: (u64, u64),
        alerts: Vec<IsolationAlert>,
    ) -> Self {
        let slots = last_forwarded.len();
        Self {
            cfg,
            next_eval,
            last_forwarded,
            last_iotlb,
            scratch: Vec::with_capacity(slots),
            alerts,
        }
    }

    /// The resolved configuration.
    pub fn config(&self) -> &WatchdogConfig {
        &self.cfg
    }

    /// Alerts raised so far (capped at `max_alerts`).
    pub fn alerts(&self) -> &[IsolationAlert] {
        &self.alerts
    }

    /// Records one alert, honoring the retention cap. Returns whether it
    /// was retained (counters are the caller's job either way).
    pub fn push(&mut self, alert: IsolationAlert) -> bool {
        if self.alerts.len() < self.cfg.max_alerts {
            self.alerts.push(alert);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_window_resolves_to_four_slices() {
        let wd = Watchdog::new(WatchdogConfig::default(), 2, 1000);
        assert_eq!(wd.config().window, 4000);
        assert_eq!(wd.next_eval, 4000);
        assert_eq!(wd.last_forwarded, vec![0, 0]);
    }

    #[test]
    fn explicit_window_is_kept() {
        let cfg = WatchdogConfig { window: 123, ..Default::default() };
        let wd = Watchdog::new(cfg, 1, 1000);
        assert_eq!(wd.config().window, 123);
    }

    #[test]
    fn alert_cap_is_honored() {
        let cfg = WatchdogConfig { window: 10, max_alerts: 2, ..Default::default() };
        let mut wd = Watchdog::new(cfg, 1, 10);
        let alert = IsolationAlert {
            kind: AlertKind::Starvation,
            device: DeviceId(0),
            slot: Some(0),
            at: 10,
            observed: 0.0,
            threshold: 0.2,
            job: None,
            peer_job: None,
        };
        assert!(wd.push(alert));
        assert!(wd.push(alert));
        assert!(!wd.push(alert));
        assert_eq!(wd.alerts().len(), 2);
    }

    #[test]
    fn alert_kinds_have_stable_labels() {
        assert_eq!(AlertKind::Starvation.metric_label(), 0);
        assert_eq!(AlertKind::IotlbThrash.metric_label(), 1);
        assert_eq!(AlertKind::PreemptOverrun.metric_label(), 2);
        assert_eq!(AlertKind::IotlbThrash.name(), "iotlb_thrash");
    }
}
