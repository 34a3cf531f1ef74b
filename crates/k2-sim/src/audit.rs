//! A system-wide invariant auditor.
//!
//! Fault injection (and long soaks generally) are only as good as the
//! oracles that watch them: a dropped mail that silently loses a page or
//! double-charges an energy meter is worse than a crash. The auditor is
//! that oracle — a registry of *conservation laws* checked after every
//! simulation step. It deliberately records violations instead of
//! panicking so a test can let a scenario run to completion and then
//! assert the audit trail is clean (or inspect exactly what broke and
//! when).
//!
//! The platform layer wires in the structural checks (energy meters
//! monotone, no interrupt raised-but-lost, mailbox conservation); higher
//! layers check their own laws (buddy accounting, the DSM single-writer
//! invariant) over their world state, in their `World::audit`
//! (`k2-soc`).
//!
//! Auditing is off by default — production-shaped runs pay nothing — and
//! tests switch it on. A stride lets soak tests audit every Nth step
//! instead of every step.
//!
//! # Examples
//!
//! ```
//! use k2_sim::audit::InvariantAuditor;
//! use k2_sim::time::SimTime;
//!
//! let mut a = InvariantAuditor::new();
//! a.set_enabled(true);
//! assert!(a.begin_step());
//! a.check_monotone(SimTime::from_ns(10), "core-energy", 0, 1.5);
//! a.check_monotone(SimTime::from_ns(20), "core-energy", 0, 1.2); // regression!
//! assert!(!a.is_clean());
//! assert_eq!(a.violations().len(), 1);
//! ```

use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// One recorded invariant violation.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Simulated time at which the check failed.
    pub at: SimTime,
    /// Name of the violated invariant.
    pub invariant: &'static str,
    /// Human-readable detail (what was observed vs. expected).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}] {}: {}", self.at, self.invariant, self.detail)
    }
}

/// Checks conservation laws after simulation steps and records violations.
///
/// Violation storage is bounded ([`InvariantAuditor::MAX_VIOLATIONS`]): a
/// systemic breakage in a long soak must not turn into an OOM; the counter
/// keeps the true total.
#[derive(Clone, Debug)]
pub struct InvariantAuditor {
    enabled: bool,
    stride: u64,
    steps: u64,
    checks_run: u64,
    violations_total: u64,
    violations: Vec<Violation>,
    monotone: BTreeMap<(&'static str, u32), f64>,
}

impl InvariantAuditor {
    /// Retained-violation cap; see the type docs.
    pub const MAX_VIOLATIONS: usize = 64;

    /// Creates a disabled auditor (stride 1: audit every step once enabled).
    pub fn new() -> Self {
        InvariantAuditor {
            enabled: false,
            stride: 1,
            steps: 0,
            checks_run: 0,
            violations_total: 0,
            violations: Vec::new(),
            monotone: BTreeMap::new(),
        }
    }

    /// Enables or disables auditing.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// `true` if auditing is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Audits only every `stride`-th step (soak runs use a large stride).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn set_stride(&mut self, stride: u64) {
        assert!(stride > 0, "audit stride must be positive");
        self.stride = stride;
    }

    /// Folds the auditor's exact state into a snapshot digest.
    pub fn digest_into(&self, h: &mut crate::digest::Fnv64) {
        h.bool(self.enabled)
            .u64(self.stride)
            .u64(self.steps)
            .u64(self.checks_run)
            .u64(self.violations_total)
            .usize(self.violations.len());
        for v in &self.violations {
            h.u64(v.at.as_ns()).str(v.invariant).str(&v.detail);
        }
        h.usize(self.monotone.len());
        for (&(name, idx), &val) in &self.monotone {
            h.str(name).u32(idx).f64(val);
        }
    }

    /// Called once per simulation step; returns `true` when this step
    /// should be audited (enabled and on the stride grid).
    pub fn begin_step(&mut self) -> bool {
        if !self.enabled {
            return false;
        }
        self.steps += 1;
        if !self.steps.is_multiple_of(self.stride) {
            return false;
        }
        self.checks_run += 1;
        true
    }

    /// Called once at shutdown; returns `true` when a final audit pass
    /// should run (i.e. auditing is enabled at all).
    ///
    /// Stride-gated auditing has a hole: a run that ends between stride
    /// points — every short test with a large stride — never audits
    /// anything and passes vacuously. The platform calls this when a run
    /// loop finishes so every registered check executes at least once,
    /// regardless of where the step counter stopped.
    pub fn begin_final(&mut self) -> bool {
        if !self.enabled {
            return false;
        }
        self.checks_run += 1;
        true
    }

    /// Checks that the series `(name, index)` never decreases. The first
    /// observation just records a baseline.
    pub fn check_monotone(&mut self, at: SimTime, name: &'static str, index: u32, value: f64) {
        let prev = self.monotone.insert((name, index), value);
        if let Some(p) = prev {
            if value < p {
                self.fail(
                    at,
                    name,
                    format!("series {name}[{index}] fell from {p} to {value}"),
                );
            }
        }
    }

    /// Records a violation of `invariant` unless `ok` holds. `detail` is
    /// only invoked on failure.
    pub fn affirm<F: FnOnce() -> String>(
        &mut self,
        at: SimTime,
        invariant: &'static str,
        ok: bool,
        detail: F,
    ) {
        if !ok {
            self.fail(at, invariant, detail());
        }
    }

    /// Folds a `Result`-shaped check into the audit trail.
    pub fn check_result(&mut self, at: SimTime, invariant: &'static str, r: Result<(), String>) {
        if let Err(detail) = r {
            self.fail(at, invariant, detail);
        }
    }

    fn fail(&mut self, at: SimTime, invariant: &'static str, detail: String) {
        self.violations_total += 1;
        if self.violations.len() < Self::MAX_VIOLATIONS {
            self.violations.push(Violation {
                at,
                invariant,
                detail,
            });
        }
    }

    /// Retained violations, oldest first.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations observed (including ones beyond the retention cap).
    pub fn violations_total(&self) -> u64 {
        self.violations_total
    }

    /// `true` when no invariant has ever failed.
    pub fn is_clean(&self) -> bool {
        self.violations_total == 0
    }

    /// Audited steps so far.
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    /// Renders the audit trail, one violation per line (empty when clean).
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for v in &self.violations {
            writeln!(s, "{v}").unwrap();
        }
        if self.violations_total > self.violations.len() as u64 {
            writeln!(
                s,
                "... and {} more violations beyond the retention cap",
                self.violations_total - self.violations.len() as u64
            )
            .unwrap();
        }
        s
    }
}

impl Default for InvariantAuditor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn disabled_auditor_skips_steps() {
        let mut a = InvariantAuditor::new();
        assert!(!a.begin_step());
        assert_eq!(a.checks_run(), 0);
        assert!(a.is_clean());
    }

    #[test]
    fn stride_gates_checks() {
        let mut a = InvariantAuditor::new();
        a.set_enabled(true);
        a.set_stride(3);
        let audited = (0..9).filter(|_| a.begin_step()).count();
        assert_eq!(audited, 3);
        assert_eq!(a.checks_run(), 3);
    }

    #[test]
    fn final_audit_runs_regardless_of_stride() {
        let mut a = InvariantAuditor::new();
        assert!(!a.begin_final(), "disabled auditor stays silent");
        a.set_enabled(true);
        a.set_stride(1000);
        // A short run: every stride check skips...
        let audited = (0..5).filter(|_| a.begin_step()).count();
        assert_eq!(audited, 0);
        // ...but the shutdown pass still executes.
        assert!(a.begin_final());
        assert_eq!(a.checks_run(), 1);
    }

    #[test]
    fn monotone_series_tracks_per_index() {
        let mut a = InvariantAuditor::new();
        a.set_enabled(true);
        a.check_monotone(t(0), "energy", 0, 1.0);
        a.check_monotone(t(1), "energy", 1, 5.0);
        a.check_monotone(t(2), "energy", 0, 2.0);
        assert!(a.is_clean());
        a.check_monotone(t(3), "energy", 1, 4.0);
        assert_eq!(a.violations().len(), 1);
        assert_eq!(a.violations()[0].invariant, "energy");
        assert!(a.violations()[0].detail.contains("fell"));
    }

    #[test]
    fn affirm_and_check_result_record_failures() {
        let mut a = InvariantAuditor::new();
        a.set_enabled(true);
        a.affirm(t(0), "always", true, || unreachable!());
        a.affirm(t(1), "never", false, || "boom".to_string());
        a.check_result(t(2), "res", Ok(()));
        a.check_result(t(3), "res", Err("bad".to_string()));
        assert_eq!(a.violations_total(), 2);
        let rep = a.report();
        assert!(rep.contains("never: boom"), "{rep}");
        assert!(rep.contains("res: bad"), "{rep}");
    }

    #[test]
    fn violation_storage_is_bounded() {
        let mut a = InvariantAuditor::new();
        a.set_enabled(true);
        for i in 0..(InvariantAuditor::MAX_VIOLATIONS as u64 + 10) {
            a.affirm(t(i), "cap", false, || "x".to_string());
        }
        assert_eq!(a.violations().len(), InvariantAuditor::MAX_VIOLATIONS);
        assert_eq!(
            a.violations_total(),
            InvariantAuditor::MAX_VIOLATIONS as u64 + 10
        );
        assert!(a.report().contains("more violations"));
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let mut a = InvariantAuditor::new();
        a.set_stride(0);
    }
}
