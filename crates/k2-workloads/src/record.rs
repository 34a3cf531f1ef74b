//! Measurement records shared by the benchmark harnesses.

use k2_sim::time::{SimDuration, SimTime};
use k2_soc::ids::DomainId;
use k2_soc::platform::{Machine, World};

/// A per-domain energy snapshot (the power-rail sampling of §9.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergySnapshot {
    /// Millijoules consumed by the strong domain so far.
    pub strong_mj: f64,
    /// Millijoules consumed by the weak domain so far.
    pub weak_mj: f64,
    /// When the snapshot was taken.
    pub at: SimTime,
}

impl EnergySnapshot {
    /// Samples both rails.
    pub fn take<W: World>(m: &Machine<W>) -> Self {
        EnergySnapshot {
            strong_mj: m.domain_energy_mj(DomainId::STRONG),
            weak_mj: if m.domain_count() > 1 {
                m.domain_energy_mj(DomainId::WEAK)
            } else {
                0.0
            },
            at: m.now(),
        }
    }

    /// Energy consumed between two snapshots, in millijoules, summed over
    /// both rails.
    pub fn consumed_since(&self, earlier: &EnergySnapshot) -> f64 {
        (self.strong_mj - earlier.strong_mj) + (self.weak_mj - earlier.weak_mj)
    }
}

/// The outcome of one energy-benchmark run (one bar of Figure 6).
#[derive(Clone, Copy, Debug)]
pub struct EnergyRun {
    /// Payload bytes processed.
    pub bytes: u64,
    /// Wall time from wake-up to work completion.
    pub active_time: SimDuration,
    /// Wall time of the whole measured window (wake-up to inactive).
    pub window: SimDuration,
    /// Energy over the window, in millijoules.
    pub energy_mj: f64,
}

impl EnergyRun {
    /// The figure's metric: megabytes processed per joule.
    pub fn efficiency_mb_per_j(&self) -> f64 {
        if self.energy_mj <= 0.0 {
            return 0.0;
        }
        (self.bytes as f64 / (1u64 << 20) as f64) / (self.energy_mj / 1_000.0)
    }

    /// Peak throughput while actively working, in MB/s (the paper's
    /// "20%–70% of the strong core" performance check).
    pub fn peak_performance_mbps(&self) -> f64 {
        let secs = self.active_time.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 / (1u64 << 20) as f64 / secs
    }
}

/// One row of the Table 6 concurrent-DMA experiment.
#[derive(Clone, Copy, Debug)]
pub struct SharedDriverRun {
    /// Batch size in bytes.
    pub batch: u64,
    /// Main-kernel throughput in MB/s.
    pub main_mbps: f64,
    /// Shadow-kernel throughput in MB/s (zero under the baseline).
    pub shadow_mbps: f64,
    /// DSM faults observed during the run.
    pub dsm_faults: u64,
}

impl SharedDriverRun {
    /// Aggregate throughput.
    pub fn total_mbps(&self) -> f64 {
        self.main_mbps + self.shadow_mbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_is_bytes_per_joule() {
        let r = EnergyRun {
            bytes: 2 << 20,
            active_time: SimDuration::from_ms(100),
            window: SimDuration::from_secs(5),
            energy_mj: 100.0,
        };
        // 2 MB per 0.1 J = 20 MB/J.
        assert!((r.efficiency_mb_per_j() - 20.0).abs() < 1e-9);
        // 2 MB in 0.1 s = 20 MB/s.
        assert!((r.peak_performance_mbps() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_runs_do_not_divide_by_zero() {
        let r = EnergyRun {
            bytes: 0,
            active_time: SimDuration::ZERO,
            window: SimDuration::ZERO,
            energy_mj: 0.0,
        };
        assert_eq!(r.efficiency_mb_per_j(), 0.0);
        assert_eq!(r.peak_performance_mbps(), 0.0);
    }

    #[test]
    fn shared_driver_total() {
        let r = SharedDriverRun {
            batch: 4096,
            main_mbps: 28.4,
            shadow_mbps: 11.5,
            dsm_faults: 10,
        };
        assert!((r.total_mbps() - 39.9).abs() < 1e-9);
    }
}
