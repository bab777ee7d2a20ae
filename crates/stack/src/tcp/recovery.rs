//! The loss-recovery seam: RTT estimation, retransmission backoff, and
//! duplicate-ACK accounting.
//!
//! [`RenoRecovery`] owns the Jacobson/Karn RTT machinery (`srtt`,
//! `rttvar`, the clamped RTO), the exponential-backoff shift, the
//! retry budget, the duplicate-ACK counter, and the one-probe-per-window
//! RTT timing slot Karn's rule invalidates on retransmission. The PCB
//! core owns the go-back-N rewind itself (it is sequence-space surgery,
//! including the lost-FIN `fin_seq` reset) but consults this module for
//! every timing and counting decision on that path.
//!
//! It is the extracted 4.4BSD implementation, held inline by the PCB.
//! Its hooks may mutate only the recovery state itself — never the
//! window (that is [`super::cc::CongestionControl`]'s) and never sequence
//! numbers (the PCB's).

use super::TcpConfig;
use lrp_sim::{SimDuration, SimTime};

/// Duplicate-ACK threshold triggering fast retransmit.
const DUP_ACK_THRESHOLD: u32 = 3;

/// The 4.4BSD recovery state extracted verbatim from the pre-refactor
/// monolith. Fields are crate-visible so the in-tree unit tests can
/// assert on estimator internals.
#[derive(Debug)]
pub struct RenoRecovery {
    /// Duplicate ACKs since the last new ACK.
    pub(crate) dup_ack_count: u32,
    /// Smoothed RTT, seconds (Jacobson).
    pub(crate) srtt: Option<f64>,
    /// RTT mean deviation, seconds.
    pub(crate) rttvar: f64,
    /// Current RTO (before backoff scaling).
    pub(crate) rto: SimDuration,
    /// Exponential-backoff shift applied when arming the timer.
    pub(crate) backoff_shift: u32,
    /// In-flight timed segment: `(seq, sent_at)`; Karn's rule clears it
    /// on retransmission. The PCB arms it (it knows sequence numbers)
    /// and reads it on ACK; recovery owns invalidation.
    pub(crate) rtt_probe: Option<(u32, SimTime)>,
    /// Consecutive retransmissions since the last new ACK.
    pub(crate) retries: u32,
}

impl RenoRecovery {
    /// Fresh estimator with the configured initial RTO.
    pub fn new(rto_init: SimDuration) -> Self {
        RenoRecovery {
            dup_ack_count: 0,
            srtt: None,
            rttvar: 0.0,
            rto: rto_init,
            backoff_shift: 0,
            rtt_probe: None,
            retries: 0,
        }
    }

    /// The timeout to arm the retransmission timer with: the RTO scaled
    /// by the exponential backoff, clamped to the configured bounds.
    pub fn rexmt_timeout(&self, cfg: &TcpConfig) -> SimDuration {
        self.rto
            .mul_f64((1u64 << self.backoff_shift.min(12)) as f64)
            .min(cfg.rto_max)
            .max(cfg.rto_min)
    }

    /// Feeds one Karn-filtered RTT sample (seconds) into the Jacobson
    /// estimator and re-derives the clamped RTO.
    pub fn on_rtt_sample(&mut self, sample_s: f64, cfg: &TcpConfig) {
        match self.srtt {
            None => {
                self.srtt = Some(sample_s);
                self.rttvar = sample_s / 2.0;
            }
            Some(srtt) => {
                let err = sample_s - srtt;
                self.srtt = Some(srtt + err / 8.0);
                self.rttvar += (err.abs() - self.rttvar) / 4.0;
            }
        }
        let rto = self.srtt.unwrap_or(0.0) + 4.0 * self.rttvar;
        self.rto = SimDuration::from_secs_f64(rto.max(0.0))
            .max(cfg.rto_min)
            .min(cfg.rto_max);
    }

    /// Counts a duplicate ACK; true exactly when the count reaches the
    /// fast-retransmit threshold.
    pub fn on_dup_ack(&mut self) -> bool {
        self.dup_ack_count += 1;
        self.dup_ack_count == DUP_ACK_THRESHOLD
    }

    /// A new-data ACK arrived: dup-ACK count, retry budget and backoff
    /// all reset.
    pub fn on_new_ack(&mut self) {
        self.dup_ack_count = 0;
        self.retries = 0;
        self.backoff_shift = 0;
    }

    /// The retransmission timer fired while zero-window probing: backoff
    /// grows (capped — the peer is alive, merely slow) without consuming
    /// the retry budget, and Karn invalidates the RTT probe.
    pub fn on_persist_timeout(&mut self) {
        self.backoff_shift = (self.backoff_shift + 1).min(6);
        self.rtt_probe = None;
    }

    /// The retransmission timer fired for real. Returns `true` when the
    /// retry budget is exhausted (the caller kills the connection);
    /// otherwise the backoff grows and Karn invalidates the RTT probe.
    pub fn on_rto_fired(&mut self, max_retries: u32) -> bool {
        self.retries += 1;
        if self.retries > max_retries {
            return true;
        }
        self.backoff_shift += 1;
        // Karn: do not time retransmitted segments.
        self.rtt_probe = None;
        false
    }

    /// A segment is being retransmitted outside the RTO path (fast
    /// retransmit): Karn's rule — never time a retransmitted segment.
    pub fn on_retransmit(&mut self) {
        self.rtt_probe = None;
    }

    /// Clears the dup-ACK counter (window collapse on RTO).
    pub fn reset_dup_acks(&mut self) {
        self.dup_ack_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jacobson_estimator_matches_textbook_first_sample() {
        let cfg = TcpConfig::default();
        let mut r = RenoRecovery::new(cfg.rto_init);
        r.on_rtt_sample(0.1, &cfg);
        assert_eq!(r.srtt, Some(0.1));
        assert_eq!(r.rttvar, 0.05);
        // rto = 0.1 + 4*0.05 = 0.3 s, clamped up to rto_min (500 ms).
        assert_eq!(r.rto, cfg.rto_min);
    }

    #[test]
    fn backoff_scales_and_clamps() {
        let cfg = TcpConfig::default();
        let mut r = RenoRecovery::new(cfg.rto_init);
        assert_eq!(r.rexmt_timeout(&cfg), cfg.rto_init);
        for _ in 0..20 {
            let dead = r.on_rto_fired(cfg.max_retries);
            if dead {
                break;
            }
        }
        // Shift capped at 12 when arming; result clamped at rto_max.
        assert_eq!(r.rexmt_timeout(&cfg), cfg.rto_max);
    }

    #[test]
    fn dup_ack_threshold_fires_exactly_once() {
        let mut r = RenoRecovery::new(SimDuration::from_millis(1000));
        assert!(!r.on_dup_ack());
        assert!(!r.on_dup_ack());
        assert!(r.on_dup_ack());
        assert!(!r.on_dup_ack(), "fires only at exactly the threshold");
        r.on_new_ack();
        assert_eq!(r.dup_ack_count, 0);
    }
}
