//! The ACK-emission policy: when to acknowledge received data.
//!
//! [`AckEveryOther`] decides *whether* an ACK goes out now or rides the
//! delayed-ACK timer; the PCB core holds it inline, owns the timer itself
//! (the deadline lives next to the other connection timers) and builds
//! the ACK. Protocol-mandated ACKs — re-ACKs of old data, the challenge
//! ACK for an unacceptable sequence number, the ACK of a FIN — are not
//! policy and stay in the core.

use lrp_sim::{SimDuration, SimTime};

/// The policy's verdict for one received segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckDecision {
    /// Emit an ACK immediately (this also clears any pending delayed
    /// ACK — the emitted ACK covers it).
    Now,
    /// Arm the delayed-ACK timer for the given deadline.
    Delay(SimTime),
}

/// 4.4BSD's ack-every-other policy, extracted verbatim from the
/// pre-refactor monolith: the first in-order segment arms the delayed-ACK
/// timer, the second finds it armed and acks immediately. `delack: None`
/// degenerates to ack-every-segment. Out-of-order segments are not
/// policy: the core always answers them with an immediate duplicate ACK
/// (fast retransmit at the sender depends on these).
///
/// The policy never constructs segments and never touches the timer; it
/// only returns a decision. `pending` tells it whether a delayed ACK is
/// already armed.
#[derive(Debug)]
pub struct AckEveryOther {
    /// Delayed-ACK timer duration; `None` acks every segment.
    delack: Option<SimDuration>,
}

impl AckEveryOther {
    /// Policy with the given delayed-ACK timer.
    pub fn new(delack: Option<SimDuration>) -> Self {
        AckEveryOther { delack }
    }

    /// In-order payload was accepted into the receive buffer.
    pub fn on_in_order_data(&self, now: SimTime, pending: Option<SimTime>) -> AckDecision {
        match self.delack {
            Some(d) if pending.is_none() => AckDecision::Delay(now + d),
            _ => AckDecision::Now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_every_other_alternates() {
        let s = AckEveryOther::new(Some(SimDuration::from_millis(200)));
        let t0 = SimTime::ZERO;
        // First segment: delay. Second (timer pending): ack now.
        let d = s.on_in_order_data(t0, None);
        assert_eq!(d, AckDecision::Delay(t0 + SimDuration::from_millis(200)));
        let d2 = s.on_in_order_data(t0, Some(t0 + SimDuration::from_millis(200)));
        assert_eq!(d2, AckDecision::Now);
    }

    #[test]
    fn no_delack_acks_every_segment() {
        let s = AckEveryOther::new(None);
        assert_eq!(s.on_in_order_data(SimTime::ZERO, None), AckDecision::Now);
    }
}
