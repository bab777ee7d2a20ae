//! Property test: the firmware-style demux table agrees with a naive
//! reference classifier on arbitrary packets.

use lrp_demux::{ChannelId, DemuxTable, Verdict};
use lrp_wire::{ipv4, proto, tcp, udp, Endpoint, FlowKey, Frame, Ipv4Addr};
use proptest::prelude::*;
use std::collections::HashMap;

const LOCAL: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// A naive reference: linear scan over registered keys.
struct Reference {
    exact: HashMap<FlowKey, ChannelId>,
}

impl Reference {
    fn classify(&self, frame: &Frame) -> Verdict {
        let bytes = match frame {
            Frame::Arp(_) => return Verdict::ArpDaemon,
            Frame::Ipv4(b) => b,
        };
        let Ok((ih, payload)) = ipv4::parse(bytes) else {
            return Verdict::Malformed;
        };
        if ih.dst != LOCAL {
            return Verdict::Forward;
        }
        if ih.is_fragment() && !ih.is_first_fragment() {
            return Verdict::Fragment;
        }
        let ports = match ih.proto {
            proto::ICMP => return Verdict::IcmpDaemon,
            proto::UDP => udp::parse_ports(payload).map(|(p, _)| p),
            proto::TCP => tcp::parse_ports(payload).map(|(p, _)| p),
            _ => return Verdict::NoMatch,
        };
        let Ok((sport, dport)) = ports else {
            return Verdict::Malformed;
        };
        let local = Endpoint::new(ih.dst, dport);
        let remote = Endpoint::new(ih.src, sport);
        if let Some(&c) = self.exact.get(&FlowKey::new(ih.proto, local, remote)) {
            return Verdict::Endpoint(c);
        }
        if let Some(&c) = self.exact.get(&FlowKey::listening(ih.proto, local)) {
            return Verdict::Endpoint(c);
        }
        Verdict::NoMatch
    }
}

#[derive(Debug, Clone)]
enum PacketSpec {
    Udp {
        sport: u16,
        dport: u16,
        src_last: u8,
        dst_local: bool,
    },
    Tcp {
        sport: u16,
        dport: u16,
        src_last: u8,
        syn: bool,
    },
    Frag {
        dport: u16,
        first: bool,
    },
    Icmp,
    Arp,
    Garbage(Vec<u8>),
}

fn arb_packet() -> impl Strategy<Value = PacketSpec> {
    prop_oneof![
        (any::<u16>(), 0u16..16, any::<u8>(), any::<bool>()).prop_map(
            |(sport, dport, src_last, dst_local)| PacketSpec::Udp {
                sport,
                dport: 7000 + dport,
                src_last,
                dst_local
            }
        ),
        (any::<u16>(), 0u16..16, any::<u8>(), any::<bool>()).prop_map(
            |(sport, dport, src_last, syn)| PacketSpec::Tcp {
                sport,
                dport: 7000 + dport,
                src_last,
                syn
            }
        ),
        (0u16..16, any::<bool>()).prop_map(|(dport, first)| PacketSpec::Frag {
            dport: 7000 + dport,
            first
        }),
        Just(PacketSpec::Icmp),
        Just(PacketSpec::Arp),
        proptest::collection::vec(any::<u8>(), 0..60).prop_map(PacketSpec::Garbage),
    ]
}

fn materialize(spec: &PacketSpec) -> Frame {
    let peer = |last: u8| Ipv4Addr::new(10, 0, 0, last);
    match spec {
        PacketSpec::Udp {
            sport,
            dport,
            src_last,
            dst_local,
        } => {
            let dst = if *dst_local {
                LOCAL
            } else {
                Ipv4Addr::new(10, 0, 9, 9)
            };
            Frame::ipv4(udp::build_datagram(
                peer(*src_last),
                dst,
                *sport,
                *dport,
                1,
                b"payload",
                true,
            ))
        }
        PacketSpec::Tcp {
            sport,
            dport,
            src_last,
            syn,
        } => {
            let h = tcp::TcpHeader {
                src_port: *sport,
                dst_port: *dport,
                seq: 1,
                ack: 0,
                flags: if *syn {
                    tcp::flags::SYN
                } else {
                    tcp::flags::ACK
                },
                window: 8192,
                mss: None,
            };
            Frame::ipv4(tcp::build_datagram(peer(*src_last), LOCAL, &h, 2, b""))
        }
        PacketSpec::Frag { dport, first } => {
            let seg = udp::build(peer(1), LOCAL, 55, *dport, &[0u8; 3000], false);
            let frags = ipv4::fragment(peer(1), LOCAL, proto::UDP, 3, &seg, 1500);
            Frame::ipv4(frags[usize::from(!*first)].clone())
        }
        PacketSpec::Icmp => Frame::ipv4(lrp_wire::icmp::build_datagram(
            peer(1),
            LOCAL,
            4,
            &lrp_wire::icmp::IcmpMessage {
                kind: lrp_wire::icmp::IcmpType::EchoRequest,
                ident: 1,
                seq: 1,
                payload: vec![],
            },
        )),
        PacketSpec::Arp => Frame::arp(vec![
            0, 1, 0, 0, 0, 0, 0, 1, 10, 0, 0, 1, 10, 0, 0, 2, 0, 0, 0, 0,
        ]),
        PacketSpec::Garbage(b) => Frame::ipv4(b.clone()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn demux_matches_reference(
        listeners in proptest::collection::btree_set(0u16..16, 0..8),
        connected in proptest::collection::btree_set((0u16..16, any::<u16>(), any::<u8>()), 0..8),
        packets in proptest::collection::vec(arb_packet(), 1..60),
    ) {
        let mut table = DemuxTable::new(64, LOCAL);
        let mut reference = Reference { exact: HashMap::new() };
        let mut next = 0u32;
        for port in &listeners {
            let k = FlowKey::listening(proto::UDP, Endpoint::new(LOCAL, 7000 + port));
            table.register(k, ChannelId(next)).unwrap();
            reference.exact.insert(k, ChannelId(next));
            next += 1;
            let kt = FlowKey::listening(proto::TCP, Endpoint::new(LOCAL, 7000 + port));
            table.register(kt, ChannelId(next)).unwrap();
            reference.exact.insert(kt, ChannelId(next));
            next += 1;
        }
        for (dport, sport, src_last) in &connected {
            let k = FlowKey::new(
                proto::TCP,
                Endpoint::new(LOCAL, 7000 + dport),
                Endpoint::new(Ipv4Addr::new(10, 0, 0, *src_last), *sport),
            );
            if table.register(k, ChannelId(next)).is_ok() {
                reference.exact.insert(k, ChannelId(next));
                next += 1;
            }
        }
        for spec in &packets {
            let frame = materialize(spec);
            prop_assert_eq!(
                table.classify(&frame),
                reference.classify(&frame),
                "spec: {:?}", spec
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Connection churn: twenty times the slot count of distinct keys pass
    /// through register/unregister while at most `resident` are live. The
    /// table must keep answering for absent keys (a table that only ever
    /// marks slots deleted runs out of empty ones and probes forever), keep
    /// resolving present ones, and agree with a `HashMap` model throughout.
    #[test]
    fn churn_matches_hashmap_model(
        resident in 1usize..16,
        evictions in proptest::collection::vec(any::<proptest::sample::Index>(), 640),
    ) {
        const CAPACITY: usize = 16; // 32 slots
        let key = |i: usize| FlowKey::new(
            proto::TCP,
            Endpoint::new(LOCAL, 80),
            Endpoint::new(Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8), 40_000 + i as u16),
        );
        let mut table = DemuxTable::new(CAPACITY, LOCAL);
        let mut model: HashMap<FlowKey, ChannelId> = HashMap::new();
        let mut live: Vec<FlowKey> = Vec::new();
        for (i, evict) in evictions.iter().enumerate() {
            if live.len() == resident {
                let gone = live.swap_remove(evict.index(live.len()));
                prop_assert_eq!(table.unregister(&gone), model.remove(&gone));
                prop_assert_eq!(table.lookup(&gone), None);
                prop_assert_eq!(table.unregister(&gone), None);
            }
            let k = key(i);
            prop_assert_eq!(table.lookup(&k), None, "key {} not yet registered", i);
            table.register(k, ChannelId(i as u32)).unwrap();
            model.insert(k, ChannelId(i as u32));
            live.push(k);
            prop_assert_eq!(table.len(), model.len());
            for k in &live {
                prop_assert_eq!(table.lookup(k), model.get(k).copied());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// RSS steering invariant: the flow hash is a pure function of the
    /// 5-tuple. Two frames of the same flow — different payloads, idents,
    /// checksum settings — must produce identical keys, hashes and queue
    /// assignments, and the queue is always in range.
    #[test]
    fn rss_hash_is_payload_independent(
        sport in any::<u16>(),
        dport in any::<u16>(),
        src_last in any::<u8>(),
        ident in any::<u16>(),
        payload_a in proptest::collection::vec(any::<u8>(), 0..64),
        payload_b in proptest::collection::vec(any::<u8>(), 0..64),
        nqueues in 1usize..9,
    ) {
        let src = Ipv4Addr::new(10, 0, 0, src_last);
        let a = Frame::ipv4(udp::build_datagram(
            src, LOCAL, sport, dport, 1, &payload_a, true,
        ));
        let b = Frame::ipv4(udp::build_datagram(
            src, LOCAL, sport, dport, ident, &payload_b, false,
        ));
        let ka = lrp_demux::rss_flow_key(&a, LOCAL).unwrap();
        let kb = lrp_demux::rss_flow_key(&b, LOCAL).unwrap();
        prop_assert_eq!(ka, kb, "flow key must ignore payload and ident");
        prop_assert_eq!(lrp_demux::rss_hash(&ka), lrp_demux::rss_hash(&kb));
        let q = lrp_demux::rss_queue(&ka, nqueues);
        prop_assert_eq!(lrp_demux::rss_queue(&kb, nqueues), q);
        prop_assert!(q < nqueues, "queue {} out of range {}", q, nqueues);
        // With one queue everything lands on queue 0 (the ncpus=1 case).
        prop_assert_eq!(lrp_demux::rss_queue(&ka, 1), 0);
    }

    /// The RSS key extractor agrees with the demux classifier about which
    /// flow a frame belongs to: whenever classify() finds an endpoint, the
    /// extracted key's 5-tuple resolves to the same channel.
    #[test]
    fn rss_key_agrees_with_classify(
        listeners in proptest::collection::btree_set(0u16..16, 1..8),
        packets in proptest::collection::vec(arb_packet(), 1..40),
    ) {
        let mut table = DemuxTable::new(64, LOCAL);
        let mut next = 0u32;
        for port in &listeners {
            for p in [proto::UDP, proto::TCP] {
                table
                    .register(
                        FlowKey::listening(p, Endpoint::new(LOCAL, 7000 + port)),
                        ChannelId(next),
                    )
                    .unwrap();
                next += 1;
            }
        }
        for spec in &packets {
            let frame = materialize(spec);
            let verdict = table.classify(&frame);
            let key = lrp_demux::rss_flow_key(&frame, LOCAL);
            if let Verdict::Endpoint(chan) = verdict {
                let k = key.expect("endpoint match implies a transport flow");
                prop_assert_eq!(
                    table.lookup_flow(k.proto, k.local, k.remote),
                    Some(chan),
                    "spec: {:?}", spec
                );
            }
        }
    }
}

/// Anchors the hash algorithm itself: if the mixing function changes, flows
/// silently migrate between queues mid-rollout on real hardware. The exact
/// values are arbitrary; their stability is the point.
#[test]
fn rss_hash_golden_values_are_stable() {
    let k1 = FlowKey::new(
        proto::UDP,
        Endpoint::new(LOCAL, 9000),
        Endpoint::new(Ipv4Addr::new(10, 0, 0, 3), 6000),
    );
    let k2 = FlowKey::new(
        proto::TCP,
        Endpoint::new(LOCAL, 80),
        Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 5000),
    );
    assert_eq!(lrp_demux::rss_hash(&k1), 0xe04efbd2);
    assert_eq!(lrp_demux::rss_hash(&k2), 0x4a78dcfa);
}

/// Traffic without a transport flow steers to queue 0: non-first fragments,
/// ICMP, ARP, non-local and malformed frames all yield no key.
#[test]
fn rss_flow_key_none_for_unclassifiable_traffic() {
    for spec in [
        PacketSpec::Frag {
            dport: 7000,
            first: false,
        },
        PacketSpec::Icmp,
        PacketSpec::Arp,
        PacketSpec::Garbage(vec![0x45, 0, 0]),
        PacketSpec::Udp {
            sport: 1,
            dport: 2,
            src_last: 3,
            dst_local: false,
        },
    ] {
        let frame = materialize(&spec);
        assert_eq!(
            lrp_demux::rss_flow_key(&frame, LOCAL),
            None,
            "spec: {spec:?}"
        );
    }
}
