//! The system-call interface between simulated applications and the
//! kernel, and the application trait.
//!
//! Applications are resumable state machines: the kernel asks for the next
//! operation, executes it (consuming simulated CPU time, possibly
//! blocking), and delivers the result, at which point the application
//! yields its next operation. This mirrors a single-threaded UNIX process
//! alternating between user computation and system calls.

use lrp_sim::{SimDuration, SimTime};
use lrp_stack::{SockId, TcpSockStats};
use lrp_wire::{Endpoint, FrameBuf};

/// Socket protocol selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SockProto {
    /// Datagram (UDP) socket.
    Udp,
    /// Stream (TCP) socket.
    Tcp,
    /// Raw ICMP socket: the proxy-daemon endpoint of §3.5. Binding one
    /// routes all ICMP traffic to it (port is ignored).
    Icmp,
}

/// Error numbers surfaced to applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Errno {
    /// Address already in use.
    AddrInUse,
    /// Connection refused (RST during connect).
    ConnRefused,
    /// Connection reset.
    ConnReset,
    /// Operation timed out.
    TimedOut,
    /// Invalid argument / wrong socket state.
    Invalid,
    /// Out of socket or channel resources.
    NoBufs,
}

/// One operation a process asks the kernel to perform.
#[derive(Clone, Debug)]
pub enum SyscallOp {
    /// Burn CPU in user mode for the given duration.
    Compute(SimDuration),
    /// Create a socket.
    Socket(SockProto),
    /// Bind a socket to a local port.
    Bind {
        /// Socket to bind.
        sock: SockId,
        /// Local port.
        port: u16,
    },
    /// Connect a socket to a remote endpoint (TCP handshake; UDP sets the
    /// default destination and installs an exact demux filter).
    Connect {
        /// Socket to connect.
        sock: SockId,
        /// Remote endpoint.
        dst: Endpoint,
    },
    /// Mark a TCP socket as listening.
    Listen {
        /// Socket.
        sock: SockId,
        /// Backlog limit.
        backlog: usize,
    },
    /// Accept a completed connection from a listening socket (blocks).
    Accept {
        /// Listening socket.
        sock: SockId,
    },
    /// Send a datagram (UDP).
    SendTo {
        /// Socket.
        sock: SockId,
        /// Destination.
        dst: Endpoint,
        /// Payload (arena-backed, see [`SyscallOp::Send`]).
        data: FrameBuf,
    },
    /// Send stream data (TCP) — blocks until fully buffered.
    Send {
        /// Socket.
        sock: SockId,
        /// Payload. Build it in [`lrp_wire::buf::storage`]: the send
        /// buffer holds it by reference until the peer acknowledges the
        /// bytes, and the last drop returns the storage to the frame
        /// arena for the next send. Sending clones of one buffer is free.
        data: FrameBuf,
    },
    /// Receive a datagram (UDP) or stream data (TCP); blocks when empty.
    Recv {
        /// Socket.
        sock: SockId,
        /// Maximum bytes to return.
        max_len: usize,
    },
    /// Receive like [`SyscallOp::Recv`], but give up after `timeout` and
    /// return `Err(TimedOut)` if nothing arrives. The deadline is a real
    /// kernel timer: the process blocks and is woken either by data or by
    /// the timer, whichever fires first.
    RecvTimeout {
        /// Socket.
        sock: SockId,
        /// Maximum bytes to return.
        max_len: usize,
        /// How long to wait before failing with `TimedOut`.
        timeout: SimDuration,
    },
    /// Query the receive-side queue depth of a socket (buffered datagrams
    /// plus frames waiting in its NI channel). Non-blocking; used by
    /// servers for watermark-based load shedding.
    SockDepth {
        /// Socket.
        sock: SockId,
    },
    /// Netstat-style introspection: a full [`SockStats`] snapshot of one
    /// socket (state, RTT/cwnd estimates for TCP, queue depths, per-socket
    /// drop counts). Non-blocking.
    SockStats {
        /// Socket.
        sock: SockId,
    },
    /// Close a socket.
    Close {
        /// Socket.
        sock: SockId,
    },
    /// Sleep for a duration.
    Sleep(SimDuration),
    /// Terminate the process.
    Exit,
}

/// The kernel's reply to a completed operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyscallRet {
    /// Operation succeeded with no payload.
    Ok,
    /// A socket was created.
    Socket(SockId),
    /// Bytes accepted for transmission.
    Sent(usize),
    /// Received stream data (arena-backed: handing it to the application
    /// moves a reference-counted buffer); for TCP an empty buffer means
    /// end-of-stream.
    Data(FrameBuf),
    /// Received datagram with source.
    DataFrom(Endpoint, FrameBuf),
    /// A connection was accepted.
    Accepted(SockId),
    /// Receive-side queue depth of a socket.
    Depth(usize),
    /// A netstat-style snapshot (boxed to keep the enum small).
    Stats(Box<SockStats>),
    /// The operation failed.
    Err(Errno),
}

/// A netstat-style snapshot of one socket, as returned by
/// [`SyscallOp::SockStats`] and aggregated by `Host::host_netstat`.
/// All-integer: durations are nanoseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SockStats {
    /// The socket.
    pub sock: SockId,
    /// Protocol.
    pub proto: SockProto,
    /// Local endpoint (port 0 when unbound).
    pub local: Endpoint,
    /// Remote endpoint (`None` for unconnected/listening sockets).
    pub remote: Option<Endpoint>,
    /// Receive-side depth: buffered datagrams / stream bytes pending in
    /// the socket buffer (same unit as the recv path delivers).
    pub recv_q: usize,
    /// Frames still waiting in the socket's NI channel (0 on BSD).
    pub chan_depth: usize,
    /// Frames dropped at this socket's full receive buffer.
    pub drops_sockbuf: u64,
    /// Frames dropped at this socket's full NI channel (or by ED
    /// socket-queue feedback).
    pub drops_channel: u64,
    /// TCP-only detail (state machine, RTT, cwnd, retransmits).
    pub tcp: Option<TcpSockStats>,
    /// Listener-only detail (backlog occupancy, SYN-flood defenses).
    pub listen: Option<ListenStats>,
}

/// Listener-side detail of a [`SockStats`] snapshot: backlog occupancy
/// and the SYN-flood defense counters (SYN cache, stateless cookies).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ListenStats {
    /// Configured backlog limit.
    pub backlog: usize,
    /// Embryonic (SynReceived) children.
    pub syn_queue: usize,
    /// Completed connections awaiting `accept`.
    pub accept_queue: usize,
    /// Depth of the half-open tracking queue (SYN-cache ordering).
    pub half_open: usize,
    /// SYNs dropped at a full backlog.
    pub syn_drops: u64,
    /// Half-open children evicted by the SYN cache.
    pub syn_cache_evictions: u64,
    /// Stateless cookie SYN|ACKs minted.
    pub cookies_sent: u64,
    /// Handshake ACKs whose cookie validated (children established).
    pub cookies_validated: u64,
    /// Handshake ACKs whose cookie failed validation.
    pub cookies_rejected: u64,
}

/// Context handed to applications on each upcall.
#[derive(Clone, Copy, Debug)]
pub struct AppCtx {
    /// Current simulated time.
    pub now: SimTime,
    /// The process id this application runs as.
    pub pid: lrp_sched::Pid,
}

/// A simulated application: a resumable state machine over system calls.
///
/// Implementations must be deterministic given their construction
/// parameters (use seeded RNGs).
pub trait AppLogic {
    /// Called once when the process first runs; returns its first
    /// operation.
    fn start(&mut self, ctx: AppCtx) -> SyscallOp;

    /// Called each time an operation completes; returns the next one.
    fn resume(&mut self, ctx: AppCtx, ret: SyscallRet) -> SyscallOp;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo {
        sock: Option<SockId>,
    }

    impl AppLogic for Echo {
        fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
            SyscallOp::Socket(SockProto::Udp)
        }
        fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
            match ret {
                SyscallRet::Socket(s) => {
                    self.sock = Some(s);
                    SyscallOp::Exit
                }
                _ => SyscallOp::Exit,
            }
        }
    }

    #[test]
    fn app_state_machine_shape() {
        let mut app = Echo { sock: None };
        let ctx = AppCtx {
            now: SimTime::ZERO,
            pid: lrp_sched::Pid(0),
        };
        let op = app.start(ctx);
        assert!(matches!(op, SyscallOp::Socket(SockProto::Udp)));
        let op = app.resume(ctx, SyscallRet::Socket(SockId(3)));
        assert!(matches!(op, SyscallOp::Exit));
        assert_eq!(app.sock, Some(SockId(3)));
    }
}
