//! Quickstart: build two hosts, send UDP datagrams through the full
//! simulated stack under the SOFT-LRP architecture, and print what the
//! kernel saw.
//!
//! Run with: `cargo run --release --example quickstart`

use lrp::core::{
    AppCtx, AppLogic, Architecture, Host, HostConfig, SockProto, SyscallOp, SyscallRet, World,
};
use lrp::sim::SimTime;
use lrp::stack::SockId;
use lrp::wire::{Endpoint, Ipv4Addr};
use std::cell::RefCell;
use std::rc::Rc;

const SENDER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const RECEIVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PORT: u16 = 9999;

/// An application that sends ten greetings, one per millisecond.
struct Greeter {
    sock: Option<SockId>,
    sent: u32,
}

impl AppLogic for Greeter {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Udp)
    }

    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match ret {
            SyscallRet::Socket(s) => {
                self.sock = Some(s);
                SyscallOp::Bind {
                    sock: s,
                    port: 4000,
                }
            }
            SyscallRet::Sent(_) => SyscallOp::Sleep(lrp::sim::SimDuration::from_millis(1)),
            _ => {
                if self.sent == 10 {
                    return SyscallOp::Exit;
                }
                self.sent += 1;
                SyscallOp::SendTo {
                    sock: self.sock.expect("socket"),
                    dst: Endpoint::new(RECEIVER, PORT),
                    data: format!("greeting #{}", self.sent).as_bytes().into(),
                }
            }
        }
    }
}

/// An application that receives and prints greetings.
struct Listener {
    sock: Option<SockId>,
    inbox: Rc<RefCell<Vec<String>>>,
}

impl AppLogic for Listener {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Udp)
    }

    fn resume(&mut self, ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match ret {
            SyscallRet::Socket(s) => {
                self.sock = Some(s);
                SyscallOp::Bind {
                    sock: s,
                    port: PORT,
                }
            }
            SyscallRet::DataFrom(from, data) => {
                self.inbox.borrow_mut().push(format!(
                    "[{:>9}] {} from {from}",
                    format!("{}", ctx.now),
                    String::from_utf8_lossy(&data),
                ));
                SyscallOp::Recv {
                    sock: self.sock.expect("socket"),
                    max_len: 65_536,
                }
            }
            _ => SyscallOp::Recv {
                sock: self.sock.expect("socket"),
                max_len: 65_536,
            },
        }
    }
}

fn main() {
    let inbox = Rc::new(RefCell::new(Vec::new()));

    // A world is a set of hosts joined by 155 Mbit/s ATM-like links.
    let mut world = World::with_defaults();

    let mut tx_host = Host::new(HostConfig::new(Architecture::SoftLrp), SENDER);
    tx_host.spawn_app(
        "greeter",
        0,
        0,
        Box::new(Greeter {
            sock: None,
            sent: 0,
        }),
    );

    let mut rx_host = Host::new(HostConfig::new(Architecture::SoftLrp), RECEIVER);
    rx_host.spawn_app(
        "listener",
        0,
        0,
        Box::new(Listener {
            sock: None,
            inbox: inbox.clone(),
        }),
    );

    world.add_host(tx_host);
    world.add_host(rx_host);
    world.run_until(SimTime::from_millis(100));

    println!("Messages delivered through the simulated SOFT-LRP stack:");
    for line in inbox.borrow().iter() {
        println!("  {line}");
    }
    let rx = &world.hosts[1];
    println!("\nReceiver kernel counters:");
    println!("  frames received at NIC : {}", rx.nic.stats().rx_frames);
    println!("  hardware interrupts    : {}", rx.nic.stats().interrupts);
    println!("  datagrams delivered    : {}", rx.stats.udp_delivered);
    println!("  drops (all points)     : {}", rx.stats.total_drops());
    println!("  demux outcomes         : {:?}", rx.nic.demux.stats());
}
