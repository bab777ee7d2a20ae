//! Microbenchmarks of the hot kernel paths: the demux function (the code
//! the paper wants cheap enough for NIC firmware), checksums, the event
//! queue, the TCP socket buffer, and TCP segment processing.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lrp_demux::{ChannelId, DemuxTable};
use lrp_sim::{EventQueue, SimTime, SplitMix64};
use lrp_wire::{checksum, tcp, udp, Endpoint, FlowKey, Frame, Ipv4Addr};
use std::hint::black_box;

const LOCAL: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PEER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

fn bench_demux(c: &mut Criterion) {
    let mut g = c.benchmark_group("demux");
    // A realistically loaded table: 256 endpoints.
    let mut table = DemuxTable::new(512, LOCAL);
    for i in 0..256u32 {
        table
            .register(
                FlowKey::new(
                    lrp_wire::proto::TCP,
                    Endpoint::new(LOCAL, 80),
                    Endpoint::new(PEER, 1000 + i as u16),
                ),
                ChannelId(i),
            )
            .unwrap();
    }
    table
        .register(
            FlowKey::listening(lrp_wire::proto::UDP, Endpoint::new(LOCAL, 9000)),
            ChannelId(300),
        )
        .unwrap();
    let udp_frame = Frame::ipv4(udp::build_datagram(
        PEER, LOCAL, 5, 9000, 1, &[0u8; 14], false,
    ));
    let tcp_frame = {
        let h = tcp::TcpHeader {
            src_port: 1100,
            dst_port: 80,
            seq: 1,
            ack: 1,
            flags: tcp::flags::ACK,
            window: 8192,
            mss: None,
        };
        Frame::ipv4(tcp::build_datagram(PEER, LOCAL, &h, 1, b""))
    };
    g.throughput(Throughput::Elements(1));
    g.bench_function("classify_udp_wildcard", |b| {
        b.iter(|| black_box(table.classify(&udp_frame)))
    });
    g.bench_function("classify_tcp_exact", |b| {
        b.iter(|| black_box(table.classify(&tcp_frame)))
    });
    g.finish();
}

fn bench_checksum(c: &mut Criterion) {
    let mut g = c.benchmark_group("checksum");
    // 9160 B is what `tcp_bulk` sums per data frame: TCP header + MSS.
    for size in [64usize, 1460, 9140, 9160] {
        let data = vec![0xA5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("internet_checksum_{size}B"), |b| {
            b.iter(|| black_box(checksum::checksum(&data)))
        });
    }
    g.finish();
}

/// The socket buffer's three movers at `tcp_bulk`'s sizes, on a 32 KiB
/// chain of 16 KiB application payloads: adopting a write (by
/// reference), copying an MSS-sized segment payload out of two slices
/// into frame storage, and a 16 KiB read.
fn bench_sockbuf(c: &mut Criterion) {
    use lrp_stack::sockbuf::ByteBuffer;
    use lrp_wire::buf::{filled, recycle};
    use lrp_wire::{tcp::PayloadBuf, FrameSlice};
    const CHUNK: usize = 16 * 1024;
    const MSS: usize = 9140;
    let chunk = filled(CHUNK, 0xBB);
    let write = |buf: &mut ByteBuffer| buf.adopt(FrameSlice::new(chunk.clone(), 0..CHUNK));
    // Two payloads queued, the first half read: the buffered bytes
    // straddle the boundary between the two slices.
    let half_read = || {
        let mut buf = ByteBuffer::new(2 * CHUNK);
        write(&mut buf);
        write(&mut buf);
        buf.discard(CHUNK / 2);
        buf
    };
    let mut g = c.benchmark_group("sockbuf");
    g.throughput(Throughput::Bytes(CHUNK as u64));
    g.bench_function("adopt_16KiB", |b| {
        let mut buf = half_read();
        b.iter(|| {
            black_box(write(&mut buf));
            buf.discard(CHUNK);
        })
    });
    g.bench_function("read_16KiB", |b| {
        // The refill is the cost `adopt_16KiB` reports on its own.
        let mut buf = half_read();
        b.iter(|| {
            write(&mut buf);
            recycle(black_box(buf.read(CHUNK)));
        })
    });
    g.throughput(Throughput::Bytes(MSS as u64));
    g.bench_function("peek_mss_across_slices", |b| {
        // Bytes 4 096..13 236 of 24 KiB buffered, split at 8 192.
        let buf = half_read();
        b.iter(|| {
            let mut p = PayloadBuf::with_capacity(MSS);
            buf.peek_into(CHUNK / 4, MSS, &mut p);
            black_box(p)
        })
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("schedule_pop_1k", |b| {
        let mut rng = SplitMix64::new(1);
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000u64 {
                q.schedule(SimTime::from_nanos(rng.next_below(1_000_000)), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        })
    });
    g.finish();
}

fn bench_segment_roundtrip(c: &mut Criterion) {
    use lrp_stack::tcp::{TcpConfig, TcpConn};
    let mut g = c.benchmark_group("tcp");
    g.bench_function("segment_roundtrip", |b| {
        // Established pair exchanging one data segment + ack per iter.
        let cfg = TcpConfig {
            delack: None,
            ..TcpConfig::default()
        };
        let now = SimTime::ZERO;
        let mut a = TcpConn::new(cfg, Endpoint::new(PEER, 1), Endpoint::new(LOCAL, 2), 100);
        let acts = a.connect(now);
        let syn = &acts.segments[0];
        let (mut bconn, acts_b) = TcpConn::accept_syn(
            cfg,
            Endpoint::new(LOCAL, 2),
            Endpoint::new(PEER, 1),
            900,
            &syn.hdr,
            now,
        );
        let synack = &acts_b.segments[0];
        let acts_a = a.on_segment(now, &synack.hdr, &[]);
        let ack = &acts_a.segments[0];
        let _ = bconn.on_segment(now, &ack.hdr, &[]);
        let payload = vec![7u8; 1000];
        b.iter(|| {
            let (_, acts) = a.write(now, &payload);
            for seg in acts.segments {
                let racts = bconn.on_segment(now, &seg.hdr, &seg.payload);
                let _ = bconn.read(usize::MAX);
                for rs in racts.segments {
                    let _ = a.on_segment(now, &rs.hdr, &rs.payload);
                }
            }
        })
    });
    g.finish();
}

criterion_group!(
    micro,
    bench_demux,
    bench_checksum,
    bench_sockbuf,
    bench_event_queue,
    bench_segment_roundtrip
);
criterion_main!(micro);
