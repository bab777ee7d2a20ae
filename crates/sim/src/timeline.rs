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

/// One sampled row: the simulated timestamp plus one value per column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelineRow<'a> {
    /// Simulated time of the sample, nanoseconds.
    pub t_ns: u64,
    /// Column values, aligned with [`MetricsTimeline::columns`].
    pub values: &'a [u64],
}

/// A bounded, fixed-column time-series of `u64` samples.
///
/// Rows are stored flat, `1 + columns` words each (the timestamp, then
/// the values), so recording a row appends to one vector and allocates
/// only when that vector doubles.
#[derive(Clone, Debug)]
pub struct MetricsTimeline {
    columns: Vec<&'static str>,
    data: Vec<u64>,
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
            cap,
            dropped: 0,
        }
    }

    /// Registered column names.
    pub fn columns(&self) -> &[&'static str] {
        &self.columns
    }

    fn stride(&self) -> usize {
        1 + self.columns.len()
    }

    /// Records one row. `values` must be aligned with [`Self::columns`].
    /// Rows past the cap are counted in [`Self::dropped`] and discarded.
    pub fn push(&mut self, t_ns: u64, values: &[u64]) {
        debug_assert_eq!(values.len(), self.columns.len());
        if self.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.data.push(t_ns);
        self.data.extend_from_slice(values);
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.stride()
    }

    /// True if no row is stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Stored rows, in recording order.
    pub fn rows(&self) -> impl DoubleEndedIterator<Item = TimelineRow<'_>> + ExactSizeIterator {
        self.data.chunks_exact(self.stride()).map(|r| TimelineRow {
            t_ns: r[0],
            values: &r[1..],
        })
    }

    /// Rows discarded because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The value of column `name` in row `row`, if both exist.
    pub fn value(&self, row: usize, name: &str) -> Option<u64> {
        let col = self.columns.iter().position(|c| *c == name)?;
        self.data.get(row * self.stride() + 1 + col).copied()
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

    #[test]
    fn records_and_reads_back() {
        let mut t = MetricsTimeline::new(vec!["delivered", "depth"]);
        t.push(10_000_000, &[5, 2]);
        t.push(20_000_000, &[9, 0]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.value(0, "delivered"), Some(5));
        assert_eq!(t.value(1, "depth"), Some(0));
        assert_eq!(t.value(1, "missing"), None);
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
}
