//! Pluggable span sinks at the whole-machine level: the disabled sink
//! records (and allocates) nothing, the ring buffer keeps a bounded
//! recency window, and — because recording is pure observation — sink
//! choice never changes what the simulation does.

use k2_sim::sink::SinkMode;
use k2_sim::time::SimDuration;
use k2_soc::ids::DomainId;
use k2_soc::mailbox::Mail;
use k2_workloads::harness::TestSystem;

/// Cross-domain mailbox bursts in both directions — every send opens a
/// mail span and every delivery an irq span, so span traffic scales with
/// `rounds` regardless of sink choice. Raw payloads are not protocol
/// mails, so each domain's mailbox ISR is a raw drain.
fn run_traffic(mode: SinkMode, rounds: u32) -> TestSystem {
    let mut t = TestSystem::builder().seed(11).span_sink(mode).build();
    for dom in [DomainId::STRONG, DomainId::WEAK] {
        t.sys.raw_mail.insert(dom, 0);
    }
    for round in 0..rounds {
        t.m.mailbox_send(DomainId::STRONG, DomainId::WEAK, Mail(round));
        t.m.mailbox_send(DomainId::WEAK, DomainId::STRONG, Mail(round | 1 << 16));
        t.run_for(SimDuration::from_us(50));
    }
    t.run_for(SimDuration::from_ms(5));
    t
}

#[test]
fn disabled_sink_allocates_no_spans() {
    let t = run_traffic(SinkMode::Disabled, 20);
    let spans = t.m.spans();
    assert!(!spans.is_enabled());
    assert_eq!(spans.allocated(), 0, "disabled mode must not allocate ids");
    assert_eq!(spans.retained(), 0);
    assert_eq!(spans.dropped(), 0);
}

#[test]
fn full_sink_records_the_mail_span_chains() {
    let t = run_traffic(SinkMode::Full, 20);
    let spans = t.m.spans();
    assert!(spans.is_enabled());
    assert!(spans.allocated() >= 40, "mail bursts must produce spans");
    assert_eq!(spans.retained() as u64, spans.allocated());
    let summary = spans.summary();
    assert!(
        summary.contains_key("mail"),
        "missing mail spans: {summary:?}"
    );
    assert!(
        summary.contains_key("irq"),
        "missing irq spans: {summary:?}"
    );
    assert!(spans.validate_well_formed().is_ok());
}

#[test]
fn ring_sink_keeps_only_the_newest_spans() {
    let cap = 16;
    let t = run_traffic(SinkMode::RingBuffer(cap), 20);
    let spans = t.m.spans();
    assert!(
        spans.allocated() > cap as u64,
        "workload must overflow the ring"
    );
    assert_eq!(spans.retained(), cap);
    assert_eq!(spans.dropped(), 0, "the ring evicts, it never rejects");
    assert_eq!(
        spans.evicted(),
        spans.allocated() - cap as u64,
        "every span beyond capacity evicts exactly one older span"
    );
    // The survivors are exactly the newest ids, in order.
    let mut ids = Vec::new();
    spans.for_each(|s| ids.push(s.id.raw()));
    let newest: Vec<u64> = (spans.allocated() - cap as u64 + 1..=spans.allocated()).collect();
    assert_eq!(ids, newest);
}

#[test]
fn sink_choice_never_perturbs_the_simulation() {
    // Recording is observation only: the exploration oracles rely on
    // disabled-sink runs reaching the identical end state.
    let a = run_traffic(SinkMode::Full, 20);
    let b = run_traffic(SinkMode::Disabled, 20);
    let c = run_traffic(SinkMode::RingBuffer(64), 20);
    assert_eq!(a.m.now(), b.m.now());
    assert_eq!(a.m.now(), c.m.now());
    assert_eq!(a.m.events_processed(), b.m.events_processed());
    assert_eq!(a.m.events_processed(), c.m.events_processed());
    assert_eq!(a.m.total_energy_mj(), b.m.total_energy_mj());
}
