//! `NetFabric`: the host-side hub that routes frames between instances,
//! brokers the pub/sub protocol, and generates deterministic traffic.
//!
//! The fabric is the "wire" of the farm. Each scheduling round the
//! scheduler hands it every frame the instances transmitted (in item
//! order — the parallel workers only *collect*; routing is serial, so
//! the whole farm is deterministic for a given seed and slice
//! schedule). The fabric:
//!
//! * tracks CONNECT/SUBSCRIBE state per device,
//! * fans each PUBLISH out to the topic's subscribers (minus the
//!   publisher itself) and records which of them owe a PUBACK — only a
//!   PUBLISH that names its real sender as `src` and a `msg_id` with
//!   nothing in flight, so a guest can neither spoof another device's
//!   message nor overwrite the deliveries owed to it,
//! * routes each PUBACK back to the original publisher and retires the
//!   acking device's in-flight entry — only a delivery that device still
//!   owes, so a stray or duplicate PUBACK is counted as malformed and
//!   can neither hide a lost delivery nor inflate the ack count,
//! * injects its own host PUBLISHes (src [`HOST_SRC`]) from a seeded
//!   xorshift generator, closing the loop end to end: a message is only
//!   "done" when every subscriber's guest firmware acked it.
//!
//! `in_flight()` going to zero — with zero RX drops — is the farm's
//! zero-message-loss steady-state criterion.

use crate::protocol::{
    Frame, FRAME_LEN, HOST_SRC, KIND_CONNACK, KIND_CONNECT, KIND_PUBACK, KIND_PUBLISH, KIND_SUBACK,
    KIND_SUBSCRIBE,
};
use cheriot_trace::metrics::MetricsRegistry;
use std::collections::BTreeMap;

/// Aggregate fabric counters, exposed in the farm report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Devices that sent CONNECT.
    pub connected: u32,
    /// Active topic subscriptions.
    pub subscriptions: u32,
    /// PUBLISH frames from devices.
    pub published_guest: u64,
    /// PUBLISH frames injected by the host generator.
    pub published_host: u64,
    /// PUBLISH deliveries fanned out to subscriber queues.
    pub deliveries: u64,
    /// PUBACK frames that retired a delivery their sender owed.
    pub acks: u64,
    /// Frames that crossed from one instance to a *different* one.
    pub cross_instance_frames: u64,
    /// Frames the fabric could not interpret, including PUBACKs for no
    /// delivery the sender owed and PUBLISHes that spoof another sender
    /// or reuse a message id still in flight.
    pub malformed: u64,
    /// PUBLISHes that had no subscriber at routing time.
    pub no_subscriber: u64,
}

/// The pub/sub hub. See the module docs for the protocol walk-through.
pub struct NetFabric {
    topics: u32,
    devices: usize,
    /// topic → subscriber device ids.
    subs: Vec<Vec<usize>>,
    connected: Vec<bool>,
    /// (publisher src, msg_id) → devices that still owe a PUBACK.
    in_flight: BTreeMap<(u32, u32), Vec<usize>>,
    /// xorshift64 state for the host traffic generator.
    rng: u64,
    next_host_msg: u32,
    stats: FabricStats,
    /// Broker-side metrics (merged into the fleet registry at the end).
    pub metrics: MetricsRegistry,
}

impl NetFabric {
    /// A fabric for `devices` instances partitioned into `topics`
    /// topics, with host traffic seeded by `seed`.
    pub fn new(devices: usize, topics: u32, seed: u64) -> NetFabric {
        NetFabric {
            topics: topics.max(1),
            devices,
            subs: vec![Vec::new(); topics.max(1) as usize],
            connected: vec![false; devices],
            in_flight: BTreeMap::new(),
            // xorshift must not start at 0; fold the seed through
            // splitmix-style constants so seed 0 still works.
            rng: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1),
            next_host_msg: 0,
            stats: FabricStats::default(),
            metrics: MetricsRegistry::new(),
        }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Routes one transmitted frame from instance `src_dev`, returning
    /// the `(destination, frame)` deliveries it fans out to.
    pub fn route(&mut self, src_dev: usize, frame: &[u8]) -> Vec<(usize, [u8; FRAME_LEN])> {
        let Some(f) = Frame::parse(frame) else {
            return self.malformed();
        };
        match f.kind {
            KIND_CONNECT => {
                let dev = f.src as usize;
                if dev < self.devices && !self.connected[dev] {
                    self.connected[dev] = true;
                    self.stats.connected += 1;
                }
                self.metrics.add("fabric_connects", 1);
                vec![(
                    src_dev,
                    Frame {
                        kind: KIND_CONNACK,
                        ..f
                    }
                    .to_bytes(),
                )]
            }
            KIND_SUBSCRIBE => {
                let topic = (f.topic % self.topics) as usize;
                let dev = f.src as usize;
                if dev < self.devices && !self.subs[topic].contains(&dev) {
                    self.subs[topic].push(dev);
                    self.stats.subscriptions += 1;
                }
                self.metrics.add("fabric_subscribes", 1);
                vec![(
                    src_dev,
                    Frame {
                        kind: KIND_SUBACK,
                        ..f
                    }
                    .to_bytes(),
                )]
            }
            KIND_PUBLISH => {
                // The in-flight table is keyed by the guest-written
                // `(src, msg_id)`: a PUBLISH under another device's `src`,
                // or reusing a key still in flight, would replace the
                // deliveries someone is owed.
                if f.src as usize != src_dev || self.in_flight.contains_key(&(f.src, f.msg_id)) {
                    return self.malformed();
                }
                self.stats.published_guest += 1;
                self.metrics.add("fabric_publishes", 1);
                self.fan_out(f, Some(src_dev))
            }
            KIND_PUBACK => {
                let key = (f.src, f.msg_id);
                let Some(owed) = self.in_flight.get_mut(&key) else {
                    return self.malformed();
                };
                let Some(pos) = owed.iter().position(|&d| d == src_dev) else {
                    return self.malformed();
                };
                owed.swap_remove(pos);
                if owed.is_empty() {
                    self.in_flight.remove(&key);
                }
                self.stats.acks += 1;
                self.metrics.add("fabric_acks", 1);
                if f.src == HOST_SRC {
                    // Host messages terminate at the broker.
                    Vec::new()
                } else {
                    let dst = f.src as usize;
                    if dst < self.devices {
                        if dst != src_dev {
                            self.stats.cross_instance_frames += 1;
                        }
                        vec![(dst, f.to_bytes())]
                    } else {
                        self.stats.malformed += 1;
                        Vec::new()
                    }
                }
            }
            _ => self.malformed(),
        }
    }

    /// Counts a frame the fabric drops as uninterpretable.
    fn malformed(&mut self) -> Vec<(usize, [u8; FRAME_LEN])> {
        self.stats.malformed += 1;
        self.metrics.add("fabric_malformed", 1);
        Vec::new()
    }

    /// Injects one host-generated PUBLISH on a pseudo-random topic,
    /// returning its deliveries.
    pub fn host_publish(&mut self) -> Vec<(usize, [u8; FRAME_LEN])> {
        let topic = (self.next_rand() % u64::from(self.topics)) as u32;
        let f = Frame {
            kind: KIND_PUBLISH,
            topic,
            msg_id: self.next_host_msg,
            src: HOST_SRC,
        };
        self.next_host_msg += 1;
        self.stats.published_host += 1;
        self.metrics.add("fabric_host_publishes", 1);
        self.fan_out(f, None)
    }

    /// Fans a PUBLISH out to the topic's subscribers (minus the
    /// publisher) and records them as owing a PUBACK.
    fn fan_out(&mut self, f: Frame, publisher: Option<usize>) -> Vec<(usize, [u8; FRAME_LEN])> {
        let topic = (f.topic % self.topics) as usize;
        let dsts: Vec<usize> = self.subs[topic]
            .iter()
            .copied()
            .filter(|&d| Some(d) != publisher)
            .collect();
        if dsts.is_empty() {
            self.stats.no_subscriber += 1;
            return Vec::new();
        }
        self.stats.deliveries += dsts.len() as u64;
        if let Some(p) = publisher {
            self.stats.cross_instance_frames += dsts.iter().filter(|&&d| d != p).count() as u64;
        }
        let out = dsts.iter().map(|&d| (d, f.to_bytes())).collect();
        self.in_flight.insert((f.src, f.msg_id), dsts);
        out
    }

    /// Deliveries whose PUBACK has not arrived yet.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.values().map(|v| v.len() as u64).sum()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn frame(kind: u32, topic: u32, msg_id: u32, src: u32) -> [u8; FRAME_LEN] {
        Frame {
            kind,
            topic,
            msg_id,
            src,
        }
        .to_bytes()
    }

    #[test]
    fn connect_subscribe_publish_ack_lifecycle() {
        let mut fab = NetFabric::new(3, 2, 7);
        // Devices 1 and 2 subscribe to topic 0; device 0 publishes there.
        assert_eq!(fab.route(1, &frame(KIND_CONNECT, 0, 0, 1)).len(), 1);
        assert_eq!(fab.route(1, &frame(KIND_SUBSCRIBE, 0, 0, 1)).len(), 1);
        assert_eq!(fab.route(2, &frame(KIND_SUBSCRIBE, 0, 0, 2)).len(), 1);
        let deliveries = fab.route(0, &frame(KIND_PUBLISH, 0, 9, 0));
        let dsts: Vec<usize> = deliveries.iter().map(|(d, _)| *d).collect();
        assert_eq!(dsts, vec![1, 2]);
        assert_eq!(fab.in_flight(), 2);
        // Both subscribers ack: the PUBACKs route back to device 0 and
        // the in-flight entry retires.
        let back = fab.route(1, &frame(KIND_PUBACK, 0, 9, 0));
        assert_eq!(back, vec![(0, frame(KIND_PUBACK, 0, 9, 0))]);
        fab.route(2, &frame(KIND_PUBACK, 0, 9, 0));
        assert_eq!(fab.in_flight(), 0);
        let s = fab.stats();
        assert_eq!(s.deliveries, 2);
        assert_eq!(s.acks, 2);
        assert!(s.cross_instance_frames >= 4); // 2 deliveries + 2 routed acks
    }

    #[test]
    fn publisher_never_receives_its_own_message() {
        let mut fab = NetFabric::new(2, 1, 0);
        fab.route(0, &frame(KIND_SUBSCRIBE, 0, 0, 0));
        let deliveries = fab.route(0, &frame(KIND_PUBLISH, 0, 0, 0));
        assert!(deliveries.is_empty());
        assert_eq!(fab.stats().no_subscriber, 1);
        assert_eq!(fab.in_flight(), 0);
    }

    #[test]
    fn host_publish_terminates_at_the_broker() {
        let mut fab = NetFabric::new(2, 1, 42);
        fab.route(0, &frame(KIND_SUBSCRIBE, 0, 0, 0));
        let deliveries = fab.host_publish();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(fab.in_flight(), 1);
        let f = Frame::parse(&deliveries[0].1).unwrap();
        assert_eq!(f.src, HOST_SRC);
        // The subscriber acks; nothing routes onward.
        let back = fab.route(0, &frame(KIND_PUBACK, f.topic, f.msg_id, HOST_SRC));
        assert!(back.is_empty());
        assert_eq!(fab.in_flight(), 0);
    }

    #[test]
    fn same_seed_same_traffic() {
        let run = |seed| {
            let mut fab = NetFabric::new(4, 3, seed);
            for d in 0..4 {
                fab.route(d, &frame(KIND_SUBSCRIBE, d as u32 % 3, 0, d as u32));
            }
            (0..16).flat_map(|_| fab.host_publish()).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn only_an_owed_puback_retires_a_delivery() {
        let mut fab = NetFabric::new(4, 1, 0);
        fab.route(1, &frame(KIND_SUBSCRIBE, 0, 0, 1));
        fab.route(2, &frame(KIND_SUBSCRIBE, 0, 0, 2));
        assert_eq!(fab.route(0, &frame(KIND_PUBLISH, 0, 5, 0)).len(), 2);
        assert_eq!(fab.in_flight(), 2);
        // Device 3 was never sent the message: its PUBACK must not retire
        // a subscriber's outstanding delivery, nor reach the publisher.
        assert!(fab.route(3, &frame(KIND_PUBACK, 0, 5, 0)).is_empty());
        assert_eq!(fab.in_flight(), 2);
        // Device 1 acks once for real, then again: the duplicate changes
        // nothing.
        assert_eq!(fab.route(1, &frame(KIND_PUBACK, 0, 5, 0)).len(), 1);
        assert_eq!(fab.in_flight(), 1);
        assert!(fab.route(1, &frame(KIND_PUBACK, 0, 5, 0)).is_empty());
        assert_eq!(fab.in_flight(), 1);
        let s = fab.stats();
        assert_eq!((s.acks, s.malformed), (1, 2));
        // The real subscriber's ack still retires the last delivery.
        fab.route(2, &frame(KIND_PUBACK, 0, 5, 0));
        assert_eq!(fab.in_flight(), 0);
        assert_eq!(fab.stats().acks, s.deliveries);
    }

    #[test]
    fn a_publish_cannot_spoof_or_overwrite_owed_deliveries() {
        let mut fab = NetFabric::new(4, 1, 0);
        for d in 1..4 {
            fab.route(d, &frame(KIND_SUBSCRIBE, 0, 0, d as u32));
        }
        assert_eq!(fab.route(0, &frame(KIND_PUBLISH, 0, 5, 0)).len(), 3);
        assert_eq!(fab.in_flight(), 3);
        // Device 1 publishes as device 0, reusing its in-flight id; then
        // device 0 reuses it itself. Neither fans out or touches the
        // three deliveries owed to device 0.
        assert!(fab.route(1, &frame(KIND_PUBLISH, 0, 5, 0)).is_empty());
        assert!(fab.route(0, &frame(KIND_PUBLISH, 0, 5, 0)).is_empty());
        // A spoofed `src` with a fresh id is refused too.
        assert!(fab.route(1, &frame(KIND_PUBLISH, 0, 6, 2)).is_empty());
        assert_eq!(fab.in_flight(), 3);
        assert_eq!(fab.stats().malformed, 3);
        assert_eq!(fab.stats().published_guest, 1);
        // Device 1's genuine PUBACK still retires its delivery.
        assert_eq!(fab.route(1, &frame(KIND_PUBACK, 0, 5, 0)).len(), 1);
        assert_eq!(fab.in_flight(), 2);
        assert_eq!(fab.stats().acks, 1);
    }

    /// The deliveries owed on messages other senders than `sender`
    /// published, leaving out `sender`'s own part in them (acking what it
    /// owes is its right).
    fn owed_to_others(fab: &NetFabric, sender: usize) -> BTreeMap<(u32, u32), BTreeSet<usize>> {
        fab.in_flight
            .iter()
            .filter(|((src, _), _)| *src as usize != sender)
            .map(|(&key, owed)| (key, owed.iter().copied().filter(|&d| d != sender).collect()))
            .filter(|(_, owed): &(_, BTreeSet<usize>)| !owed.is_empty())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Hostile guest bytes: arbitrary 0–64-byte frames, and
        /// well-formed frames with arbitrary fields, from arbitrary
        /// devices between host publishes. No frame panics the fabric,
        /// and none changes the deliveries owed on another sender's
        /// messages beyond the sender's own acks.
        #[test]
        fn hostile_frames_never_touch_another_devices_owed_set(
            ops in proptest::collection::vec(
                (
                    0usize..4,
                    any::<u8>(),
                    (1u32..8, 0u32..3, 0u32..4, 0u32..6),
                    proptest::collection::vec(any::<u8>(), 0..65),
                ),
                1..96,
            ),
        ) {
            let mut fab = NetFabric::new(4, 2, 1);
            for (sender, sel, (kind, topic, msg_id, src), raw) in ops {
                if sel % 8 == 7 {
                    fab.host_publish();
                    continue;
                }
                let bytes = if sel % 2 == 0 {
                    frame(kind, topic, msg_id, src).to_vec()
                } else {
                    raw
                };
                let before = owed_to_others(&fab, sender);
                fab.route(sender, &bytes);
                prop_assert_eq!(owed_to_others(&fab, sender), before);
            }
        }
    }

    #[test]
    fn malformed_frames_are_counted_not_crashed() {
        let mut fab = NetFabric::new(1, 1, 0);
        assert!(fab.route(0, &[1, 2, 3]).is_empty());
        assert!(fab.route(0, &frame(99, 0, 0, 0)).is_empty());
        assert_eq!(fab.stats().malformed, 2);
    }
}
