//! Maximum Loss-Free Receive Rate (§4.2 in-text result).
//!
//! The paper instruments the kernels to find the highest offered UDP rate
//! at which *no* packet is dropped anywhere: SOFT-LRP's MLFRR exceeded
//! 4.4BSD's by 44 % (9 210 vs 6 380 pkts/s). We binary-search the offered
//! rate with Poisson arrivals (deterministic arrivals would make MLFRR
//! collapse onto the saturation throughput exactly).

use crate::Output;
use lrp_core::{Architecture, DropPoint};
use lrp_sim::SimTime;
use lrp_telemetry::Json;

/// The measured MLFRR for one architecture.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Architecture.
    pub arch: Architecture,
    /// Maximum loss-free receive rate, packets/second.
    pub mlfrr: f64,
}

/// Counts every received packet the host lost, each once: the host's
/// drop points (ring overruns among them, as `RxRing`) and the NIC's
/// early discards, less the transmit-side `IfQueue` drops.
fn total_losses(host: &lrp_core::Host) -> u64 {
    host.stats.total_drops() + host.nic.stats().early_discards
        - host.stats.dropped(DropPoint::IfQueue)
}

/// True if `rate` is loss-free over `duration` of Poisson arrivals.
pub fn loss_free(arch: Architecture, rate: f64, duration: SimTime) -> bool {
    let (mut world, _metrics) = crate::fig3::build(arch, rate, true);
    world.run_until(duration);
    total_losses(&world.hosts[0]) == 0
}

/// Binary-searches the MLFRR to a 100 pkts/s resolution.
pub fn measure(arch: Architecture, duration: SimTime) -> Row {
    let (mut lo, mut hi) = (1_000.0, 20_000.0);
    // Establish the bracket.
    if !loss_free(arch, lo, duration) {
        return Row { arch, mlfrr: 0.0 };
    }
    while hi - lo > 100.0 {
        let mid = (lo + hi) / 2.0;
        if loss_free(arch, mid, duration) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Row { arch, mlfrr: lo }
}

/// Runs the MLFRR comparison across all architectures.
pub fn run(duration: SimTime) -> Vec<Row> {
    crate::all_architectures()
        .into_iter()
        .map(|arch| measure(arch, duration))
        .collect()
}

/// Renders the result with the paper's BSD/SOFT-LRP anchors.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "Maximum Loss-Free Receive Rate (paper: 4.4BSD 6380, SOFT-LRP 9210 pkts/s, +44%)\n\n",
    );
    let bsd = rows
        .iter()
        .find(|r| r.arch == Architecture::Bsd)
        .map(|r| r.mlfrr);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let vs = match bsd {
                Some(b) if b > 0.0 => format!("{:+.0}%", (r.mlfrr / b - 1.0) * 100.0),
                _ => String::new(),
            };
            vec![r.arch.name().to_string(), format!("{:.0}", r.mlfrr), vs]
        })
        .collect();
    out.push_str(&crate::plot::table(
        &["system", "MLFRR pkts/s", "vs BSD"],
        &table_rows,
    ));
    out
}

/// The registry entry: the comparison at 2 simulated seconds per probe,
/// plus one instrumented run per architecture at its measured MLFRR.
pub fn output() -> Output {
    const SECS: u64 = 2;
    let rows = run(SimTime::from_secs(SECS));
    // Re-run each architecture at its measured MLFRR (Poisson arrivals,
    // as in the search) and verify the ledger balances there too.
    let hosts = rows
        .iter()
        .map(|row| {
            let rate = if row.mlfrr > 0.0 { row.mlfrr } else { 1_000.0 };
            let (mut world, _metrics) = crate::fig3::build(row.arch, rate, true);
            world.run_until(SimTime::from_secs(1));
            crate::report(format!("mlfrr-{}", row.arch.name()), &world)
        })
        .collect();
    let data = crate::arr(&rows, |r| {
        Json::obj(vec![
            ("arch", Json::str(r.arch.name())),
            ("mlfrr_pps", Json::F64(r.mlfrr)),
        ])
    });
    let params = vec![("duration_s", Json::U64(SECS))];
    Output::new(render(&rows) + "\n", params, data, hosts)
}
