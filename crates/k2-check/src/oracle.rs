//! Differential oracles: what must hold across *every* legal schedule.
//!
//! Two families:
//!
//! 1. **End-state equivalence.** For fault-free runs, the logical outcome
//!    must be schedule-independent: filesystem contents, UDP delivery
//!    counters, balloon/buddy accounting, and per-workload completion all
//!    describe *what* the system computed, not *when*. [`capture_end_state`]
//!    snapshots exactly those, deliberately excluding timing-dependent
//!    quantities (energy, DSM fault counts, latencies), and the explorer
//!    compares each run's snapshot against the baseline schedule's.
//!
//! 2. **Metrics conservation.** Some counter relationships are invariants
//!    of the event system itself and must balance under every schedule,
//!    faulted or not — mail sent vs delivered vs dropped, the mailbox
//!    bank's delivered/received/pending law, DMA submitted vs completed.
//!    [`check_conservation`] audits them once the machine has drained.

use k2::system::K2Machine;
use k2_kernel::fs::block::Disk;
use k2_kernel::fs::ext2::{Ext2Fs, FileType};
use k2_kernel::service::OpCx;
use k2_sim::digest::Fnv64;
use k2_soc::ids::DomainId;
use k2_workloads::harness::TestSystem;

/// An ordered snapshot of schedule-independent logical state, as
/// `(key, value)` string pairs. Comparable with `==`; [`EndState::diff`]
/// explains a mismatch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EndState {
    entries: Vec<(String, String)>,
}

impl EndState {
    /// Appends one labelled observation.
    pub fn push(&mut self, key: impl Into<String>, value: impl ToString) {
        self.entries.push((key.into(), value.to_string()));
    }

    /// The recorded observations, in capture order.
    pub fn entries(&self) -> &[(String, String)] {
        &self.entries
    }

    /// A 64-bit FNV-1a content fingerprint of the snapshot — the compact
    /// form campaign reports count distinct logical outcomes with. Equal
    /// states hash equal; entry order matters (capture order is
    /// deterministic).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        for (k, v) in &self.entries {
            h.bytes(k.as_bytes())
                .bytes(&[0])
                .bytes(v.as_bytes())
                .bytes(&[0]);
        }
        h.finish()
    }

    /// Human-readable differences against another snapshot, capped so a
    /// divergent filesystem does not flood a failure report.
    pub fn diff(&self, other: &EndState) -> Vec<String> {
        use std::collections::BTreeMap;
        let a: BTreeMap<&str, &str> = self
            .entries
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let b: BTreeMap<&str, &str> = other
            .entries
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let mut out = Vec::new();
        for (k, va) in &a {
            match b.get(k) {
                Some(vb) if va == vb => {}
                Some(vb) => out.push(format!("{k}: {va} != {vb}")),
                None => out.push(format!("{k}: missing in other run")),
            }
        }
        for k in b.keys() {
            if !a.contains_key(k) {
                out.push(format!("{k}: only in other run"));
            }
        }
        const CAP: usize = 8;
        if out.len() > CAP {
            let extra = out.len() - CAP;
            out.truncate(CAP);
            out.push(format!("... and {extra} more"));
        }
        out
    }
}

/// Recursively fingerprints the filesystem under `path`: every entry's
/// type, every file's size and content hash. Names are sorted so the
/// snapshot is independent of directory-entry insertion order (which
/// legitimately varies when two domains create files concurrently).
fn walk_fs(fs: &Ext2Fs<Disk>, path: &str, cx: &mut OpCx, out: &mut EndState) {
    let mut names = match fs.readdir(path, cx) {
        Ok(n) => n,
        Err(e) => {
            out.push(format!("fs:{path}"), format!("readdir error: {e:?}"));
            return;
        }
    };
    names.sort();
    for name in names {
        let child = if path == "/" {
            format!("/{name}")
        } else {
            format!("{path}/{name}")
        };
        let ino = match fs.lookup(&child, cx) {
            Ok(i) => i,
            Err(e) => {
                out.push(format!("fs:{child}"), format!("lookup error: {e:?}"));
                continue;
            }
        };
        match fs.file_type(ino, cx) {
            FileType::Dir => {
                out.push(format!("fs:{child}"), "dir");
                walk_fs(fs, &child, cx, out);
            }
            FileType::File => {
                let size = fs.size(ino, cx);
                let mut h = Fnv64::new();
                let mut buf = [0u8; 4096];
                let mut off = 0u64;
                while let Ok(n) = fs.read(ino, off, &mut buf, cx) {
                    if n == 0 {
                        break;
                    }
                    h.bytes(&buf[..n]);
                    off += n as u64;
                }
                out.push(
                    format!("fs:{child}"),
                    format!("file size={size} fnv={:016x}", h.finish()),
                );
            }
        }
    }
}

/// Snapshots the schedule-independent logical end state of a settled
/// system: filesystem contents, network delivery totals, balloon and
/// buddy accounting, and NightWatch protocol counts.
///
/// Reads go straight at the shared services with a throwaway [`OpCx`]
/// (not through the shadowed-service path), so capturing the snapshot
/// perturbs no metrics, no DSM state, and no timing.
pub fn capture_end_state(t: &mut TestSystem) -> EndState {
    let mut out = EndState::default();
    let mut cx = OpCx::new();

    walk_fs(&t.sys.world.services.fs, "/", &mut cx, &mut out);

    let net = &t.sys.world.services.net;
    out.push("net.sent_datagrams", net.sent_datagrams());
    out.push("net.sent_bytes", net.sent_bytes());
    out.push("net.sockets", net.socket_count());

    out.push("balloon.free_blocks", t.sys.balloon.free_blocks());
    out.push("balloon.total_blocks", t.sys.balloon.total_blocks());
    let (deflates, inflates) = t.sys.balloon.op_counts();
    out.push("balloon.deflates", deflates);
    out.push("balloon.inflates", inflates);
    for kernel in &t.sys.world.kernels {
        let d = kernel.domain.index();
        out.push(
            format!("balloon.owned[{d}]"),
            t.sys.balloon.owned_blocks(kernel.domain),
        );
        out.push(format!("buddy.free[{d}]"), kernel.buddy.free_page_count());
        out.push(
            format!("buddy.managed[{d}]"),
            kernel.buddy.managed_page_count(),
        );
    }

    let (suspends, resumes) = t.sys.nightwatch.counts();
    out.push("nightwatch.suspends", suspends);
    out.push("nightwatch.resumes", resumes);

    out
}

/// Checks the counter-conservation laws that must balance under every
/// schedule once in-flight events have drained:
///
/// * `mail.sent + mail.fault_duplicated == mail.delivered + mail.fault_dropped`
/// * mailbox bank: `delivered == received + pending`
/// * `dma.submitted == dma.completed + dma.failed`
pub fn check_conservation(m: &K2Machine) -> Result<(), String> {
    let mm = m.metrics();
    let mut violations = Vec::new();

    let sent = mm.counter_total("mail.sent");
    let delivered = mm.counter_total("mail.delivered");
    let dropped = mm.counter_total("mail.fault_dropped");
    let duplicated = mm.counter_total("mail.fault_duplicated");
    if sent + duplicated != delivered + dropped {
        violations.push(format!(
            "mail flow: sent({sent}) + duplicated({duplicated}) != \
             delivered({delivered}) + dropped({dropped})"
        ));
    }

    let bank_delivered = m.mailbox_delivered();
    let bank_received = m.mailbox_received();
    let bank_pending = m.mailbox_pending_total();
    if bank_delivered != bank_received + bank_pending {
        violations.push(format!(
            "mailbox bank: delivered({bank_delivered}) != \
             received({bank_received}) + pending({bank_pending})"
        ));
    }

    let submitted = mm.counter_total("dma.submitted");
    let completed = mm.counter_total("dma.completed");
    let failed = mm.counter_total("dma.failed");
    if submitted != completed + failed {
        violations.push(format!(
            "dma flow: submitted({submitted}) != completed({completed}) + failed({failed})"
        ));
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("; "))
    }
}

/// The domains a two-domain scenario spreads work across.
pub(crate) const DOMAINS: [DomainId; 2] = [DomainId::STRONG, DomainId::WEAK];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_reports_changed_and_missing_keys() {
        let mut a = EndState::default();
        a.push("x", 1);
        a.push("y", 2);
        let mut b = EndState::default();
        b.push("x", 1);
        b.push("y", 3);
        b.push("z", 4);
        let d = a.diff(&b);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|l| l.contains("y: 2 != 3")));
        assert!(d.iter().any(|l| l.contains("z: only in other run")));
        assert_eq!(a.diff(&a), Vec::<String>::new());
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        let h1 = Fnv64::new().bytes(b"abc").finish();
        let h2 = Fnv64::new().bytes(b"acb").finish();
        assert_ne!(h1, h2);
        // Chunked hashing (how `walk_fs` folds a file block by block)
        // equals whole-buffer hashing.
        let chunked = Fnv64::new().bytes(b"ab").bytes(b"c").finish();
        assert_eq!(h1, chunked);
    }

    #[test]
    fn conservation_holds_on_an_untouched_boot() {
        let t = TestSystem::builder().build();
        assert_eq!(check_conservation(&t.m), Ok(()));
    }
}
