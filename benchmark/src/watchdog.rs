//! A host-time limit per leg.
//!
//! `World::run_until` cannot be interrupted from outside, and the
//! `syn_flood` HTTP scenario is known to stop advancing simulated time
//! on the LRP family past ~25 simulated seconds (see README, "Findings").
//! A leg that exceeds its limit is therefore reported from a second
//! thread, which then ends the process: a failed check, not a hung
//! pipeline. The thread sleeps on a channel and costs the timed thread
//! nothing.

use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

enum Msg {
    Arm(String),
    Disarm,
}

/// Handle to the watchdog thread.
pub struct Watchdog {
    tx: Option<Sender<Msg>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Starts the thread. `on_expire` runs there, with the label of the
    /// leg that overran, if a leg stays armed longer than `limit`.
    pub fn start(limit: Duration, on_expire: impl FnOnce(&str) + Send + 'static) -> Self {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let mut armed: Option<(String, Instant)> = None;
            loop {
                let msg = match &armed {
                    None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                    Some((_, since)) => rx.recv_timeout(limit.saturating_sub(since.elapsed())),
                };
                match msg {
                    Ok(Msg::Arm(label)) => armed = Some((label, Instant::now())),
                    Ok(Msg::Disarm) => armed = None,
                    Err(RecvTimeoutError::Timeout) => {
                        let (label, _) = armed.expect("a timeout only happens while armed");
                        return on_expire(&label);
                    }
                    // The handle was dropped: the run is over.
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        });
        Watchdog {
            tx: Some(tx),
            thread: Some(thread),
        }
    }

    fn send(&self, msg: Msg) {
        // A send fails only after the thread has expired and returned;
        // the expiry handler has then already reported the leg.
        let _ = self.tx.as_ref().expect("sender lives until drop").send(msg);
    }

    /// Starts the clock for the leg called `label`.
    pub fn arm(&self, label: String) {
        self.send(Msg::Arm(label));
    }

    /// Stops the clock.
    pub fn disarm(&self) {
        self.send(Msg::Disarm);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        // Closing the channel ends the thread; then wait for it.
        self.tx = None;
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expires_only_while_armed_past_the_limit() {
        let (fired_tx, fired_rx) = mpsc::channel();
        let dog = Watchdog::start(Duration::from_millis(50), move |label| {
            fired_tx.send(label.to_string()).unwrap();
        });
        // Armed and disarmed in time, then idle past the limit: silent.
        dog.arm("quick".into());
        dog.disarm();
        assert!(fired_rx.recv_timeout(Duration::from_millis(150)).is_err());
        // Armed and left: fires with the leg's label.
        dog.arm("stuck".into());
        assert_eq!(
            fired_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            "stuck"
        );
    }
}
