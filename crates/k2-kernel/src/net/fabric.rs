//! The simulated inter-machine network fabric.
//!
//! One [`NetFabric`] connects every machine of a fleet: egress datagrams
//! drained from each machine's [`NetStack`](crate::net::udp::NetStack)
//! are routed through a seeded latency/loss/reorder model and come out
//! the other side as timed deliveries for the destination machine's NET
//! interrupt.
//!
//! # Determinism
//!
//! The fabric reuses the [`FaultPlan`](k2_soc::fault::FaultPlan)
//! machinery's discipline: each impairment class draws from its own
//! [`SimRng`] stream derived from the fabric seed
//! ([`SimRng::seed_from_stream`]), and decisions are consumed in the
//! order datagrams are routed. The fleet driver routes in strict machine
//! index order at every epoch boundary, so the same seed yields the same
//! drops, the same latencies and the same delivery order — regardless of
//! how many worker threads advanced the machines.
//!
//! Delivery order is *digest-stable*: in-flight datagrams wait in a
//! min-heap keyed by `(arrival time, route sequence)` and
//! [`NetFabric::take_due`] pops them in that order, so ties between
//! datagrams arriving at the same instant break on the deterministic
//! route order. The key is unique, so the order is total: no heap
//! layout or hash iteration order can leak into it.

use crate::net::udp::{EgressDatagram, MachineAddr, Port};
use k2_sim::time::{SimDuration, SimTime};
use k2_sim::SimRng;
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// Stream ids for [`SimRng::seed_from_stream`] — disjoint from the
/// scheduler/chooser streams the rest of the simulator uses, so fabric
/// decisions never correlate with schedule choices under a shared seed.
const STREAM_DROP: u64 = 0xFAB0;
const STREAM_LATENCY: u64 = 0xFAB1;
const STREAM_REORDER: u64 = 0xFAB2;

/// What the fabric decided to do with one routed datagram.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    /// Queued in flight; will arrive at the given simulated time.
    Queued(SimTime),
    /// Lost to the loss model.
    Dropped,
    /// Addressed to a machine outside the fleet: dropped deterministically
    /// (and counted) — the fabric's ICMP host-unreachable.
    Unroutable,
}

/// A datagram in flight between two machines.
#[derive(Clone, Debug)]
pub struct InFlight {
    /// When it lands at the destination.
    pub arrival: SimTime,
    /// Route order (global, monotonic) — the deterministic tiebreak.
    pub seq: u64,
    /// Sending machine (for diagnostics; the wire does not deliver it).
    pub src: MachineAddr,
    /// Destination machine.
    pub dst: MachineAddr,
    /// Destination port.
    pub dst_port: Port,
    /// Sender's port.
    pub src_port: Port,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Trace context carried verbatim from the egress datagram — the
    /// fabric never reads or rewrites it, so tracing cannot perturb
    /// routing decisions.
    pub trace: k2_sim::span::TraceCtx,
}

/// An in-flight datagram ordered by its delivery key `(arrival, seq)`.
#[derive(Clone, Debug)]
struct Keyed(InFlight);

impl Keyed {
    fn key(&self) -> (SimTime, u64) {
        (self.0.arrival, self.0.seq)
    }
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Keyed {}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Counters of everything the fabric did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Datagrams offered for routing.
    pub routed: u64,
    /// Datagrams queued and eventually handed to [`NetFabric::take_due`].
    pub delivered: u64,
    /// Datagrams lost to the loss model.
    pub dropped: u64,
    /// Datagrams addressed outside the fleet.
    pub unroutable: u64,
    /// Datagrams that drew extra reorder jitter.
    pub reordered: u64,
    /// Payload bytes delivered.
    pub delivered_bytes: u64,
    /// High-water mark of datagrams simultaneously in flight.
    pub max_in_flight: u64,
}

/// Builder for a [`NetFabric`] (mirrors `FaultPlan::builder`).
#[derive(Debug)]
pub struct NetFabricBuilder {
    fabric: NetFabric,
}

impl NetFabricBuilder {
    /// One-way delivery latency drawn uniformly from `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or exceeds `max` — a zero-latency fabric
    /// would deliver within the sending epoch and break the epoch
    /// determinism contract.
    pub fn latency(mut self, min: SimDuration, max: SimDuration) -> Self {
        assert!(!min.is_zero(), "fabric latency must be positive");
        assert!(min <= max, "latency min must not exceed max");
        self.fabric.latency_min = min;
        self.fabric.latency_max = max;
        self
    }

    /// Drop each datagram with probability `p`.
    pub fn loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss rate out of range");
        self.fabric.loss_p = p;
        self
    }

    /// With probability `p`, add extra uniform `(0, max-latency]` jitter
    /// so the datagram can overtake or be overtaken by its neighbours.
    pub fn reorder(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "reorder rate out of range");
        self.fabric.reorder_p = p;
        self
    }

    /// Finishes the fabric.
    pub fn build(self) -> NetFabric {
        self.fabric
    }
}

/// The seeded inter-machine network: loss, latency and reorder in one
/// place, plus the in-flight queue between epoch boundaries.
#[derive(Clone, Debug)]
pub struct NetFabric {
    machines: u32,
    latency_min: SimDuration,
    latency_max: SimDuration,
    loss_p: f64,
    reorder_p: f64,
    rng_drop: SimRng,
    rng_latency: SimRng,
    rng_reorder: SimRng,
    /// Datagrams in flight, earliest `(arrival, seq)` on top.
    in_flight: BinaryHeap<Reverse<Keyed>>,
    seq: u64,
    stats: FabricStats,
}

impl NetFabric {
    /// Starts building a fabric connecting machines `0..machines`, with
    /// decision streams derived from `seed`. Defaults: 1–1 ms latency,
    /// no loss, no reorder.
    pub fn builder(seed: u64, machines: u32) -> NetFabricBuilder {
        NetFabricBuilder {
            fabric: NetFabric {
                machines,
                latency_min: SimDuration::from_ms(1),
                latency_max: SimDuration::from_ms(1),
                loss_p: 0.0,
                reorder_p: 0.0,
                rng_drop: SimRng::seed_from_stream(seed, STREAM_DROP),
                rng_latency: SimRng::seed_from_stream(seed, STREAM_LATENCY),
                rng_reorder: SimRng::seed_from_stream(seed, STREAM_REORDER),
                in_flight: BinaryHeap::new(),
                seq: 0,
                stats: FabricStats::default(),
            },
        }
    }

    /// Routes one egress datagram sent by `src` at time `now` and returns
    /// the verdict. Callers must route in a deterministic order (the
    /// fleet routes machine-by-machine in index order) — the decision
    /// streams advance per routed datagram.
    pub fn route(&mut self, now: SimTime, src: MachineAddr, d: EgressDatagram) -> Route {
        self.stats.routed += 1;
        if u32::from(d.dst.0) >= self.machines {
            self.stats.unroutable += 1;
            return Route::Unroutable;
        }
        if self.rng_drop.gen_bool(self.loss_p) {
            self.stats.dropped += 1;
            return Route::Dropped;
        }
        let spread = self.latency_max.as_ns() - self.latency_min.as_ns();
        let mut latency = self.latency_min.as_ns();
        if spread > 0 {
            latency += self.rng_latency.gen_range(spread + 1);
        }
        if self.rng_reorder.gen_bool(self.reorder_p) {
            // Extra jitter up to one full latency window: enough to
            // overtake neighbours without escaping the epoch horizon by
            // more than 2x.
            latency += self.rng_reorder.gen_range(self.latency_max.as_ns() + 1);
            self.stats.reordered += 1;
        }
        let arrival = now + SimDuration::from_ns(latency);
        self.seq += 1;
        self.in_flight.push(Reverse(Keyed(InFlight {
            arrival,
            seq: self.seq,
            src,
            dst: d.dst,
            dst_port: d.dst_port,
            src_port: d.src_port,
            payload: d.payload,
            trace: d.trace,
        })));
        let depth = self.in_flight.len() as u64;
        if depth > self.stats.max_in_flight {
            self.stats.max_in_flight = depth;
        }
        Route::Queued(arrival)
    }

    /// Moves every in-flight datagram arriving at or before `until` into
    /// `buf` (appending), in `(arrival, seq)` order — the digest-stable
    /// delivery order. The remainder stays in flight, and only the due
    /// datagrams are touched: each pops off the heap in `O(log n)`.
    /// `buf` is a caller scratch buffer; steady state allocates nothing.
    pub fn take_due(&mut self, until: SimTime, buf: &mut Vec<InFlight>) {
        while let Some(top) = self.in_flight.peek_mut() {
            if top.0 .0.arrival > until {
                break;
            }
            let Reverse(Keyed(f)) = PeekMut::pop(top);
            self.stats.delivered += 1;
            self.stats.delivered_bytes += f.payload.len() as u64;
            buf.push(f);
        }
    }

    /// Datagrams currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Everything the fabric did so far.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dg(dst: u16, tag: u8) -> EgressDatagram {
        EgressDatagram {
            dst: MachineAddr(dst),
            dst_port: Port(443),
            src_port: Port(32_768),
            payload: vec![tag],
            trace: k2_sim::span::TraceCtx::NONE,
        }
    }

    #[test]
    fn unknown_machine_address_drops_deterministically_and_counts() {
        let mut f = NetFabric::builder(7, 4).build();
        for _ in 0..3 {
            let r = f.route(SimTime::ZERO, MachineAddr(0), dg(4, 0));
            assert_eq!(r, Route::Unroutable);
        }
        assert_eq!(f.stats().unroutable, 3);
        assert_eq!(f.in_flight(), 0, "unroutable datagrams never fly");
        // Same seed, same verdicts: replay is byte-identical.
        let mut g = NetFabric::builder(7, 4).build();
        for _ in 0..3 {
            assert_eq!(
                g.route(SimTime::ZERO, MachineAddr(0), dg(4, 0)),
                Route::Unroutable
            );
        }
        assert_eq!(f.stats(), g.stats());
    }

    #[test]
    fn same_seed_same_decisions() {
        let mk = || {
            NetFabric::builder(2014, 8)
                .latency(SimDuration::from_ms(1), SimDuration::from_ms(5))
                .loss(0.2)
                .reorder(0.3)
                .build()
        };
        let (mut a, mut b) = (mk(), mk());
        for i in 0..200u16 {
            let ra = a.route(
                SimTime::from_ns(u64::from(i)),
                MachineAddr(0),
                dg(i % 8, i as u8),
            );
            let rb = b.route(
                SimTime::from_ns(u64::from(i)),
                MachineAddr(0),
                dg(i % 8, i as u8),
            );
            assert_eq!(ra, rb);
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().dropped > 0, "p=0.2 over 200 drops some");
        assert!(a.stats().reordered > 0, "p=0.3 over 200 reorders some");
    }

    #[test]
    fn take_due_orders_by_arrival_then_route_seq() {
        let mut f = NetFabric::builder(1, 4)
            .latency(SimDuration::from_ms(2), SimDuration::from_ms(2))
            .build();
        // Two routed at t=0 arrive together (fixed latency): tie breaks
        // on route order. One routed later arrives later.
        f.route(SimTime::ZERO, MachineAddr(0), dg(1, 10));
        f.route(SimTime::ZERO, MachineAddr(1), dg(2, 11));
        f.route(SimTime::from_ns(1), MachineAddr(2), dg(3, 12));
        let mut due = Vec::new();
        f.take_due(SimTime::ZERO + SimDuration::from_ms(2), &mut due);
        let tags: Vec<u8> = due.iter().map(|d| d.payload[0]).collect();
        assert_eq!(
            tags,
            vec![10, 11],
            "tie broken by route seq; later arrival stays"
        );
        assert_eq!(f.in_flight(), 1);
        f.take_due(SimTime::ZERO + SimDuration::from_ms(10), &mut due);
        assert_eq!(due.len(), 3);
        assert_eq!(f.stats().delivered, 3);
        assert_eq!(f.stats().delivered_bytes, 3);
        // Many datagrams over several epochs, with latency spread and
        // reorder jitter so arrivals interleave across route order:
        // every epoch's deliveries match a sort-based reference.
        let mut f = NetFabric::builder(2014, 16)
            .latency(SimDuration::from_us(200), SimDuration::from_ms(3))
            .loss(0.1)
            .reorder(0.3)
            .build();
        let mut reference: Vec<(SimTime, u64, u16)> = Vec::new();
        let mut queued = 0u64;
        let mut due = Vec::new();
        let epoch = SimDuration::from_ms(1);
        let mut now = SimTime::ZERO;
        for e in 0..16u16 {
            // Route for the first eight epochs, then drain.
            for i in 0..(if e < 8 { 40u16 } else { 0 }) {
                let id = e * 40 + i;
                let mut d = dg(id % 16, 0);
                d.payload = id.to_le_bytes().to_vec();
                let at = now + SimDuration::from_us(u64::from(i) * 20);
                if let Route::Queued(arrival) = f.route(at, MachineAddr(i % 16), d) {
                    queued += 1;
                    reference.push((arrival, queued, id));
                }
            }
            now += epoch;
            reference.sort_unstable();
            let cut = reference.partition_point(|r| r.0 <= now);
            let expected: Vec<(SimTime, u64, u16)> = reference.drain(..cut).collect();
            due.clear();
            f.take_due(now, &mut due);
            let got: Vec<(SimTime, u64, u16)> = due
                .iter()
                .map(|d| {
                    (
                        d.arrival,
                        d.seq,
                        u16::from_le_bytes([d.payload[0], d.payload[1]]),
                    )
                })
                .collect();
            assert_eq!(got, expected, "epoch {e}");
            assert_eq!(f.in_flight(), reference.len());
        }
        assert!(reference.is_empty(), "every datagram delivered by the end");
        assert_eq!(f.stats().delivered, queued);
        assert!(f.stats().reordered > 0 && f.stats().dropped > 0);
    }

    #[test]
    fn in_flight_survives_epoch_boundaries() {
        let mut f = NetFabric::builder(3, 2)
            .latency(SimDuration::from_ms(3), SimDuration::from_ms(3))
            .build();
        f.route(SimTime::ZERO, MachineAddr(0), dg(1, 1));
        let mut due = Vec::new();
        // Epochs of 1 ms: the datagram stays in flight for two boundaries.
        f.take_due(SimTime::ZERO + SimDuration::from_ms(1), &mut due);
        f.take_due(SimTime::ZERO + SimDuration::from_ms(2), &mut due);
        assert!(due.is_empty());
        assert_eq!(f.in_flight(), 1);
        f.take_due(SimTime::ZERO + SimDuration::from_ms(3), &mut due);
        assert_eq!(due.len(), 1);
    }
}
