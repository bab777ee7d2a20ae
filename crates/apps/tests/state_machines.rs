//! Unit tests for the application state machines, driven by a scripted
//! kernel: no Host, no World — just the syscall conversation, asserted
//! step by step.

use lrp_apps::*;
use lrp_core::{AppCtx, AppLogic, SockProto, SyscallOp, SyscallRet};
use lrp_sim::{SimDuration, SimTime};
use lrp_stack::SockId;
use lrp_wire::{Endpoint, Ipv4Addr};

fn ctx() -> AppCtx {
    AppCtx {
        now: SimTime::from_millis(1),
        pid: lrp_sched::Pid(1),
    }
}

fn ctx_at(ms: u64) -> AppCtx {
    AppCtx {
        now: SimTime::from_millis(ms),
        pid: lrp_sched::Pid(1),
    }
}

const SERVER: Endpoint = Endpoint {
    addr: Ipv4Addr::new(10, 0, 0, 2),
    port: 9000,
};

#[test]
fn blast_sink_binds_then_loops_on_recv() {
    let m = shared::<SinkMetrics>();
    let mut app = BlastSink::new(9000, m.clone());
    assert!(matches!(
        app.start(ctx()),
        SyscallOp::Socket(SockProto::Udp)
    ));
    let op = app.resume(ctx(), SyscallRet::Socket(SockId(5)));
    assert!(matches!(
        op,
        SyscallOp::Bind {
            sock: SockId(5),
            port: 9000
        }
    ));
    let op = app.resume(ctx(), SyscallRet::Ok);
    assert!(matches!(
        op,
        SyscallOp::Recv {
            sock: SockId(5),
            ..
        }
    ));
    // Deliver three datagrams; each must be counted and followed by Recv.
    for i in 1..=3u64 {
        let op = app.resume(
            ctx_at(i),
            SyscallRet::DataFrom(SERVER, (vec![0u8; 14]).into()),
        );
        assert!(matches!(op, SyscallOp::Recv { .. }));
        assert_eq!(m.borrow().received, i);
        assert_eq!(m.borrow().bytes, 14 * i);
    }
    assert!(m.borrow().first.is_some());
}

#[test]
fn pingpong_client_measures_and_finishes() {
    let m = shared::<PingPongMetrics>();
    let mut app = PingPongClient::new(SERVER, 14, 2, m.clone());
    let _ = app.start(ctx());
    let _ = app.resume(ctx(), SyscallRet::Socket(SockId(1)));
    // Bind ok -> first ping.
    let op = app.resume(ctx_at(10), SyscallRet::Ok);
    assert!(matches!(op, SyscallOp::SendTo { .. }));
    let op = app.resume(ctx_at(10), SyscallRet::Sent(14));
    assert!(matches!(op, SyscallOp::Recv { .. }));
    // Reply arrives 1 ms later: one RTT sample of ~1 ms.
    let op = app.resume(
        ctx_at(11),
        SyscallRet::DataFrom(SERVER, (vec![0u8; 14]).into()),
    );
    assert!(
        matches!(op, SyscallOp::SendTo { .. }),
        "second round starts"
    );
    assert_eq!(m.borrow().count, 1);
    let rtt_us = m.borrow().mean_rtt_us();
    assert!((990.0..=1010.0).contains(&rtt_us), "rtt {rtt_us}us");
    let _ = app.resume(ctx_at(11), SyscallRet::Sent(14));
    let op = app.resume(
        ctx_at(13),
        SyscallRet::DataFrom(SERVER, (vec![0u8; 14]).into()),
    );
    assert!(matches!(op, SyscallOp::Exit), "count reached");
    assert!(m.borrow().done);
}

#[test]
fn pingpong_server_echoes_back_to_sender() {
    let mut app = PingPongServer::new(7000);
    let _ = app.start(ctx());
    let _ = app.resume(ctx(), SyscallRet::Socket(SockId(2)));
    let _ = app.resume(ctx(), SyscallRet::Ok);
    let from = Endpoint {
        addr: Ipv4Addr::new(10, 9, 9, 9),
        port: 1234,
    };
    let op = app.resume(
        ctx(),
        SyscallRet::DataFrom(from, (b"ping!".to_vec()).into()),
    );
    match op {
        SyscallOp::SendTo { dst, data, .. } => {
            assert_eq!(dst, from, "echo goes back to the sender");
            assert_eq!(data, b"ping!");
        }
        other => panic!("expected echo, got {other:?}"),
    }
}

#[test]
fn udp_window_source_respects_window() {
    let mut app = UdpWindowSource::new(SERVER, 1000, 10, 3);
    let _ = app.start(ctx());
    let _ = app.resume(ctx(), SyscallRet::Socket(SockId(1)));
    // After bind: exactly `window` sends before the first recv.
    let mut op = app.resume(ctx(), SyscallRet::Ok);
    let mut sends = 0;
    while let SyscallOp::SendTo { .. } = op {
        sends += 1;
        op = app.resume(ctx(), SyscallRet::Sent(1000));
    }
    assert_eq!(sends, 3, "window bounds outstanding datagrams");
    assert!(matches!(op, SyscallOp::Recv { .. }));
    // One ack frees one window slot: one more send.
    let op = app.resume(ctx(), SyscallRet::DataFrom(SERVER, (vec![0u8; 8]).into()));
    assert!(matches!(op, SyscallOp::SendTo { .. }));
}

#[test]
fn udp_window_sink_acks_with_sequence() {
    let m = shared::<UdpWindowMetrics>();
    let mut app = UdpWindowSink::new(9000, 2, m.clone());
    let _ = app.start(ctx());
    let _ = app.resume(ctx(), SyscallRet::Socket(SockId(1)));
    let _ = app.resume(ctx(), SyscallRet::Ok);
    let mut data = vec![0xDA; 1000];
    data[..8].copy_from_slice(&7u64.to_be_bytes());
    let op = app.resume(ctx_at(5), SyscallRet::DataFrom(SERVER, (data).into()));
    match op {
        SyscallOp::SendTo { data, dst, .. } => {
            assert_eq!(dst, SERVER);
            assert_eq!(u64::from_be_bytes(data[..8].try_into().unwrap()), 7);
        }
        other => panic!("expected ack, got {other:?}"),
    }
    assert_eq!(m.borrow().count, 1);
    assert!(!m.borrow().done);
}

#[test]
fn rpc_server_computes_then_replies() {
    let mut app = RpcServer::new(7100, SimDuration::from_millis(3));
    let _ = app.start(ctx());
    let _ = app.resume(ctx(), SyscallRet::Socket(SockId(1)));
    let _ = app.resume(ctx(), SyscallRet::Ok);
    let from = Endpoint {
        addr: Ipv4Addr::new(10, 0, 0, 1),
        port: 7200,
    };
    let op = app.resume(ctx(), SyscallRet::DataFrom(from, (vec![0x3F; 32]).into()));
    match op {
        SyscallOp::Compute(d) => assert_eq!(d, SimDuration::from_millis(3)),
        other => panic!("expected compute, got {other:?}"),
    }
    let op = app.resume(ctx(), SyscallRet::Ok);
    match op {
        SyscallOp::SendTo { dst, .. } => assert_eq!(dst, from),
        other => panic!("expected reply, got {other:?}"),
    }
    // After the reply: back to recv.
    let op = app.resume(ctx(), SyscallRet::Sent(32));
    assert!(matches!(op, SyscallOp::Recv { .. }));
}

#[test]
fn rpc_client_limits_and_reports_elapsed() {
    let m = shared::<RpcMetrics>();
    let mut app = RpcClient::new(SERVER, 7200, 2, Some(2), m.clone());
    let _ = app.start(ctx());
    let _ = app.resume(ctx_at(10), SyscallRet::Ok); // Sleep done.
    let _ = app.resume(ctx_at(10), SyscallRet::Socket(SockId(1)));
    // Bind ok -> pump: two outstanding sends.
    let op = app.resume(ctx_at(10), SyscallRet::Ok);
    assert!(matches!(op, SyscallOp::SendTo { .. }));
    let op = app.resume(ctx_at(10), SyscallRet::Sent(32));
    assert!(matches!(op, SyscallOp::SendTo { .. }));
    let op = app.resume(ctx_at(10), SyscallRet::Sent(32));
    assert!(matches!(op, SyscallOp::Recv { .. }), "window full");
    // Two replies: limit reached, elapsed recorded.
    let _ = app.resume(
        ctx_at(20),
        SyscallRet::DataFrom(SERVER, (vec![0; 32]).into()),
    );
    let op = app.resume(
        ctx_at(30),
        SyscallRet::DataFrom(SERVER, (vec![0; 32]).into()),
    );
    assert!(matches!(op, SyscallOp::Exit));
    let elapsed = m.borrow().elapsed.expect("recorded");
    assert_eq!(elapsed, SimDuration::from_millis(20));
    assert_eq!(m.borrow().completed, 2);
}

#[test]
fn paced_client_alternates_send_sleep() {
    let mut app = PacedRpcClient::new(SERVER, 7300, SimDuration::from_micros(500));
    let _ = app.start(ctx());
    let _ = app.resume(ctx(), SyscallRet::Ok); // Startup sleep done.
    let _ = app.resume(ctx(), SyscallRet::Socket(SockId(1)));
    let op = app.resume(ctx(), SyscallRet::Ok);
    assert!(matches!(op, SyscallOp::SendTo { .. }));
    let op = app.resume(ctx(), SyscallRet::Sent(32));
    match op {
        SyscallOp::Sleep(d) => assert_eq!(d, SimDuration::from_micros(500)),
        other => panic!("expected pacing sleep, got {other:?}"),
    }
    let op = app.resume(ctx(), SyscallRet::Ok);
    assert!(matches!(op, SyscallOp::SendTo { .. }), "steady pacing");
}

#[test]
fn http_worker_serves_a_request_cycle() {
    use std::cell::RefCell;
    use std::rc::Rc;
    let listener: SharedListener = Rc::new(RefCell::new(None));
    let mut app = HttpWorker::new(
        80,
        16,
        1300,
        SimDuration::from_micros(500),
        true,
        listener.clone(),
    );
    let _ = app.start(ctx());
    let _ = app.resume(ctx(), SyscallRet::Socket(SockId(1)));
    let _ = app.resume(ctx(), SyscallRet::Ok); // Bind.
    let op = app.resume(ctx(), SyscallRet::Ok); // Listen -> publish + accept.
    assert_eq!(*listener.borrow(), Some(SockId(1)));
    assert!(matches!(op, SyscallOp::Accept { .. }));
    let op = app.resume(ctx(), SyscallRet::Accepted(SockId(9)));
    assert!(matches!(
        op,
        SyscallOp::Recv {
            sock: SockId(9),
            ..
        }
    ));
    let op = app.resume(ctx(), SyscallRet::Data(b"GET /".to_vec().into()));
    assert!(matches!(op, SyscallOp::Compute(_)));
    let op = app.resume(ctx(), SyscallRet::Ok);
    match op {
        SyscallOp::Send { sock, data } => {
            assert_eq!(sock, SockId(9));
            assert_eq!(data.len(), 1300);
        }
        other => panic!("expected response, got {other:?}"),
    }
    let op = app.resume(ctx(), SyscallRet::Sent(1300));
    assert!(matches!(op, SyscallOp::Close { sock: SockId(9) }));
    let op = app.resume(ctx(), SyscallRet::Ok);
    assert!(matches!(op, SyscallOp::Accept { .. }), "loops to accept");
}

#[test]
fn http_worker_non_master_waits_for_listener() {
    use std::cell::RefCell;
    use std::rc::Rc;
    let listener: SharedListener = Rc::new(RefCell::new(None));
    let mut app = HttpWorker::new(
        80,
        16,
        1300,
        SimDuration::from_micros(500),
        false,
        listener.clone(),
    );
    let op = app.start(ctx());
    assert!(matches!(op, SyscallOp::Sleep(_)));
    let op = app.resume(ctx(), SyscallRet::Ok);
    assert!(matches!(op, SyscallOp::Sleep(_)), "still unpublished");
    *listener.borrow_mut() = Some(SockId(4));
    let op = app.resume(ctx(), SyscallRet::Ok);
    assert!(
        matches!(op, SyscallOp::Accept { sock: SockId(4) }),
        "joins the pool"
    );
}

#[test]
fn http_client_full_transaction_and_failure_path() {
    let m = shared::<HttpMetrics>();
    let mut app = HttpClient::new(SERVER, 100, 1300, m.clone());
    let _ = app.start(ctx());
    let op = app.resume(ctx(), SyscallRet::Socket(SockId(1)));
    assert!(matches!(op, SyscallOp::Connect { .. }));
    let op = app.resume(ctx(), SyscallRet::Ok);
    assert!(matches!(op, SyscallOp::Send { .. }));
    let op = app.resume(ctx(), SyscallRet::Sent(100));
    assert!(matches!(op, SyscallOp::Recv { .. }));
    // Response in two chunks.
    let op = app.resume(ctx(), SyscallRet::Data(vec![0; 800].into()));
    assert!(matches!(op, SyscallOp::Recv { .. }));
    let op = app.resume(ctx_at(2), SyscallRet::Data(vec![0; 500].into()));
    assert!(matches!(op, SyscallOp::Close { .. }));
    assert_eq!(m.borrow().transactions, 1);
    // New connection; this time the connect is refused.
    let op = app.resume(ctx_at(3), SyscallRet::Ok);
    assert!(matches!(op, SyscallOp::Socket(_)));
    let _ = app.resume(ctx_at(3), SyscallRet::Socket(SockId(2)));
    let op = app.resume(ctx_at(3), SyscallRet::Err(lrp_core::Errno::ConnRefused));
    assert!(matches!(op, SyscallOp::Close { .. }), "failure cleans up");
    assert_eq!(m.borrow().failures, 1);
}

#[test]
fn dummy_listener_never_accepts() {
    let mut app = DummyListener::new(81, 5);
    let _ = app.start(ctx());
    let _ = app.resume(ctx(), SyscallRet::Socket(SockId(1)));
    let _ = app.resume(ctx(), SyscallRet::Ok); // Bind.
    let op = app.resume(ctx(), SyscallRet::Ok); // Listen.
    assert!(matches!(op, SyscallOp::Sleep(_)));
    let op = app.resume(ctx(), SyscallRet::Ok);
    assert!(matches!(op, SyscallOp::Sleep(_)), "sleeps forever");
}

#[test]
fn tcp_bulk_sender_chunks_then_closes() {
    let mut app = TcpBulkSender::new(SERVER, 2500, 1000);
    let _ = app.start(ctx());
    let _ = app.resume(ctx(), SyscallRet::Ok); // Startup sleep.
    let _ = app.resume(ctx(), SyscallRet::Socket(SockId(1)));
    let mut op = app.resume(ctx(), SyscallRet::Ok); // Connected.
    let mut total = 0;
    while let SyscallOp::Send { data, .. } = op {
        total += data.len();
        op = app.resume(ctx(), SyscallRet::Sent(data.len()));
    }
    assert_eq!(total, 2500);
    assert!(matches!(op, SyscallOp::Close { .. }));
    assert!(matches!(app.resume(ctx(), SyscallRet::Ok), SyscallOp::Exit));
}

#[test]
fn icmp_daemon_answers_echo_only() {
    let m = shared::<IcmpMetrics>();
    let mut app = IcmpEchoDaemon::new(SimDuration::from_micros(10), m.clone());
    let _ = app.start(ctx());
    let _ = app.resume(ctx(), SyscallRet::Socket(SockId(1)));
    let _ = app.resume(ctx(), SyscallRet::Ok); // Bind.
    let from = Endpoint {
        addr: Ipv4Addr::new(10, 0, 0, 1),
        port: 0,
    };
    let req = lrp_wire::icmp::build(&lrp_wire::icmp::IcmpMessage {
        kind: lrp_wire::icmp::IcmpType::EchoRequest,
        ident: 3,
        seq: 9,
        payload: vec![1, 2, 3],
    });
    let op = app.resume(ctx(), SyscallRet::DataFrom(from, (req).into()));
    assert!(matches!(op, SyscallOp::Compute(_)));
    let op = app.resume(ctx(), SyscallRet::Ok);
    match op {
        SyscallOp::SendTo { dst, data, .. } => {
            assert_eq!(dst, from);
            let msg = lrp_wire::icmp::parse(&data).unwrap();
            assert_eq!(msg.kind, lrp_wire::icmp::IcmpType::EchoReply);
            assert_eq!(msg.ident, 3);
            assert_eq!(msg.seq, 9);
            assert_eq!(msg.payload, vec![1, 2, 3]);
        }
        other => panic!("expected reply, got {other:?}"),
    }
    assert_eq!(m.borrow().replies, 1);
    // A non-echo message is counted and ignored.
    let other_msg = lrp_wire::icmp::build(&lrp_wire::icmp::IcmpMessage {
        kind: lrp_wire::icmp::IcmpType::Unreachable(1),
        ident: 0,
        seq: 0,
        payload: vec![],
    });
    let op = app.resume(ctx(), SyscallRet::DataFrom(from, (other_msg).into()));
    assert!(matches!(op, SyscallOp::Recv { .. }));
    assert_eq!(m.borrow().other, 1);
}

#[test]
fn metered_compute_counts_slices() {
    let slices = shared::<u64>();
    let mut app = MeteredCompute::new(slices.clone());
    let op = app.start(ctx());
    assert!(matches!(op, SyscallOp::Compute(_)));
    for i in 1..=5u64 {
        let op = app.resume(ctx(), SyscallRet::Ok);
        assert!(matches!(op, SyscallOp::Compute(_)));
        assert_eq!(*slices.borrow(), i);
    }
}

#[test]
fn console_records_scheduling_lag() {
    let lag = shared::<lrp_sim::Welford>();
    let mut app = Console::new(lag.clone());
    // Sleep armed at t=1ms for 10ms -> expected wake at 11ms.
    let op = app.start(ctx_at(1));
    assert!(matches!(op, SyscallOp::Sleep(_)));
    // Woken 2ms late, at 13ms.
    let op = app.resume(ctx_at(13), SyscallRet::Ok);
    assert!(matches!(op, SyscallOp::Compute(_)));
    assert_eq!(lag.borrow().count(), 1);
    let mean_us = lag.borrow().mean();
    assert!((1990.0..=2010.0).contains(&mean_us), "lag {mean_us}us");
    // After compute: sleeps again.
    let op = app.resume(ctx_at(14), SyscallRet::Ok);
    assert!(matches!(op, SyscallOp::Sleep(_)));
}
