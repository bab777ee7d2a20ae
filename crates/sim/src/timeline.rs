//! Interval-sampled metrics timelines.
//!
//! A [`MetricsTimeline`] is a fixed-column time-series table: the caller
//! registers column names once, then pushes one row of `u64` samples per
//! sampling instant (driven from *simulated* time, so recording is
//! deterministic). Columns are cumulative counters or instantaneous
//! gauges; rate computation (delta over interval) is left to exporters so
//! the recorded data stays raw.
//!
//! Memory is bounded: past the row cap ([`DEFAULT_TIMELINE_CAP`], or the
//! one given to [`MetricsTimeline::with_cap`]), new samples are counted
//! but not stored.

use crate::varint;

/// One sampled row: the simulated timestamp plus one value per column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineRow {
    /// Simulated time of the sample, nanoseconds.
    pub t_ns: u64,
    /// Column values, aligned with [`MetricsTimeline::columns`].
    pub values: Vec<u64>,
}

/// A bounded, fixed-column time-series of `u64` samples.
///
/// A row is `1 + columns` words (the timestamp, then the values), each
/// stored as its [`varint::put_delta`] from the same word of the row
/// before (of zeros, for the first row), all in one growing byte vector.
/// Consecutive samples of a counter or a gauge differ by little, so a row
/// takes a byte or two per column, and recording one allocates only when
/// the vector doubles.
#[derive(Clone, Debug)]
pub struct MetricsTimeline {
    columns: Vec<&'static str>,
    /// The coded rows, in recording order.
    data: Vec<u8>,
    /// The last row stored, which the next is coded against; empty until
    /// the first push.
    last: Vec<u64>,
    rows: usize,
    cap: usize,
    dropped: u64,
}

/// Default maximum number of stored rows (at a 10 ms tick this covers
/// more than 2.5 simulated hours).
pub const DEFAULT_TIMELINE_CAP: usize = 1 << 20;

impl MetricsTimeline {
    /// A timeline with the given column names and the default row cap.
    pub fn new(columns: Vec<&'static str>) -> Self {
        Self::with_cap(columns, DEFAULT_TIMELINE_CAP)
    }

    /// A timeline with an explicit row cap.
    pub fn with_cap(columns: Vec<&'static str>, cap: usize) -> Self {
        Self {
            columns,
            data: Vec::new(),
            last: Vec::new(),
            rows: 0,
            cap,
            dropped: 0,
        }
    }

    /// Registered column names.
    pub fn columns(&self) -> &[&'static str] {
        &self.columns
    }

    /// Records one row. `values` must be aligned with [`Self::columns`].
    /// Rows past the cap are counted in [`Self::dropped`] and discarded.
    pub fn push(&mut self, t_ns: u64, values: &[u64]) {
        debug_assert_eq!(values.len(), self.columns.len());
        if self.rows >= self.cap {
            self.dropped += 1;
            return;
        }
        self.last.resize(1 + values.len(), 0);
        for (last, &v) in self.last.iter_mut().zip([t_ns].iter().chain(values)) {
            varint::put_delta(&mut self.data, *last, v);
            *last = v;
        }
        self.rows += 1;
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if no row is stored.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Stored rows, in recording order, decoded as they are read.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = TimelineRow> + '_ {
        let mut at = 0;
        let mut row = vec![0; 1 + self.columns.len()];
        (0..self.rows).map(move |_| {
            for w in &mut row {
                *w = varint::get_delta(&self.data, &mut at, *w);
            }
            TimelineRow {
                t_ns: row[0],
                values: row[1..].to_vec(),
            }
        })
    }

    /// Rows discarded because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Gnuplot-ready rendering: a `#`-prefixed header naming the columns
    /// (first column `t_s`, seconds), then one whitespace-separated row
    /// per sample.
    pub fn gnuplot_columns(&self) -> String {
        let mut out = String::from("# t_s");
        for c in &self.columns {
            out.push(' ');
            out.push_str(c);
        }
        out.push('\n');
        for r in self.rows() {
            out.push_str(&format!("{:.6}", r.t_ns as f64 / 1e9));
            for v in r.values {
                out.push(' ');
                out.push_str(&v.to_string());
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_and_reads_back() {
        let mut t = MetricsTimeline::new(vec!["delivered", "depth"]);
        t.push(10_000_000, &[5, 2]);
        t.push(20_000_000, &[9, 0]);
        assert_eq!(t.len(), 2);
        let rows: Vec<_> = t.rows().map(|r| (r.t_ns, r.values)).collect();
        assert_eq!(rows, [(10_000_000, vec![5, 2]), (20_000_000, vec![9, 0])]);
    }

    #[test]
    fn cap_bounds_memory() {
        let mut t = MetricsTimeline::with_cap(vec!["x"], 2);
        for i in 0..5 {
            t.push(i * 1_000, &[i]);
        }
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn gnuplot_rendering() {
        let mut t = MetricsTimeline::new(vec!["a", "b"]);
        t.push(1_500_000_000, &[1, 2]);
        let g = t.gnuplot_columns();
        assert_eq!(g, "# t_s a b\n1.500000 1 2\n");
    }

    proptest! {
        /// Against a `Vec<Vec<u64>>` holding every row in full, under a
        /// small cap: counters that climb, gauges that rise and fall,
        /// columns that jump between 0 and `u64::MAX` (wrapping deltas)
        /// and rows past the cap read back alike, with the same count
        /// dropped.
        #[test]
        fn coded_rows_match_the_full_row_model(
            cap in 0usize..40,
            steps in proptest::collection::vec(
                (0u64..20_000_000, 0u64..1000, 0u64..6, any::<bool>()),
                0..60,
            ),
        ) {
            let mut t = MetricsTimeline::with_cap(vec!["counter", "gauge", "edge"], cap);
            let mut model: Vec<Vec<u64>> = Vec::new();
            let (mut now, mut counter) = (0u64, 0u64);
            let pushed = steps.len();
            for (dt, step, gauge, edge) in steps {
                now += dt;
                counter += step;
                let row = [counter, gauge * 1000, if edge { u64::MAX } else { 0 }];
                t.push(now, &row);
                if model.len() < cap {
                    model.push([now].into_iter().chain(row).collect());
                }
            }
            prop_assert_eq!(t.len(), model.len());
            prop_assert_eq!(t.dropped() as usize, pushed - model.len());
            let rows: Vec<Vec<u64>> = t
                .rows()
                .map(|r| [r.t_ns].into_iter().chain(r.values).collect())
                .collect();
            prop_assert_eq!(rows, model);
        }
    }
}
