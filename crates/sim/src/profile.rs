//! Simulated-cycle profiling primitives.
//!
//! [`CycleAccount`] accumulates charged simulated time (our "cycles")
//! against a `(cpu, context, stage, billed, account)` key and renders the
//! result as folded stacks — the input format of Brendan Gregg's
//! `flamegraph.pl` — plus per-process totals for cross-checking against
//! the scheduler's charge ledger.
//!
//! The accumulator is deliberately generic: contexts and stages are
//! `&'static str` labels chosen by the caller (the LRP host uses
//! `interrupt`, `softirq`, `app-thread`, `syscall`, `user`, …), billed
//! processes are raw pid numbers.
//!
//! `add` sits on the CPU engine's charging hot path, so accumulation is
//! keyed by the *pointer identity* of the static labels (a cheap integer
//! hash, no string comparisons); every export merges and sorts by label
//! content, so iteration order — and therefore every report — stays
//! deterministic even if the compiler hands out several addresses for
//! one literal.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// One attribution key: where a slice of charged time landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CycleKey {
    /// CPU index the chunk ran on.
    pub cpu: u32,
    /// Execution context (`interrupt`, `softirq`, `syscall`, `user`, …).
    pub context: &'static str,
    /// Pipeline stage within the context (`ip-input`, `recv`, …).
    pub stage: &'static str,
    /// Process the time was billed to; `None` when the chunk ran with no
    /// process context (e.g. an interrupt taken while idle).
    pub billed: Option<u32>,
    /// Accounting bucket label (`user`/`system`/`interrupt`), when billed.
    pub account: Option<&'static str>,
}

/// Multiplicative folding hasher for small fixed-width keys (integer
/// ids, label addresses) — a fraction of SipHash's cost. Not
/// collision-resistant against adversarial keys; use only for
/// simulator-internal identifiers.
#[derive(Clone, Default)]
pub struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
}

/// A `HashMap` keyed by [`FoldHasher`] — the simulator's hot-path map
/// for integer-keyed lookups (pids, socket ids, channel ids).
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// Pointer-identity form of a [`CycleKey`]: label addresses instead of
/// label contents. `billed` is offset by one so `None` is 0.
type IdKey = (u32, usize, usize, u64, usize);

fn id_key(k: &CycleKey) -> IdKey {
    (
        k.cpu,
        k.context.as_ptr() as usize,
        k.stage.as_ptr() as usize,
        k.billed.map(|p| p as u64 + 1).unwrap_or(0),
        k.account.map(|a| a.as_ptr() as usize).unwrap_or(0),
    )
}

/// Deterministic accumulator of charged simulated nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct CycleAccount {
    /// Accumulated entries, insertion-ordered; exports merge + sort.
    entries: Vec<(CycleKey, u64)>,
    index: HashMap<IdKey, usize, BuildHasherDefault<FoldHasher>>,
    /// Memo of the most recent `(id-key, slot)`: consecutive chunks on a
    /// busy host usually bill to the same key, and the hot path skips the
    /// hash-map probe entirely when they do.
    last: Option<(IdKey, usize)>,
}

impl CycleAccount {
    /// An empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `ns` charged nanoseconds under `key`.
    #[inline]
    pub fn add(&mut self, key: CycleKey, ns: u64) {
        if ns == 0 {
            return;
        }
        let id = id_key(&key);
        if let Some((last_id, slot)) = self.last {
            if last_id == id {
                self.entries[slot].1 += ns;
                return;
            }
        }
        let slot = match self.index.entry(id) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let slot = *e.get();
                self.entries[slot].1 += ns;
                slot
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                let slot = self.entries.len();
                v.insert(slot);
                self.entries.push((key, ns));
                slot
            }
        };
        self.last = Some((id, slot));
    }

    /// All entries merged by key content, in deterministic (key) order.
    fn merged(&self) -> BTreeMap<CycleKey, u64> {
        let mut out = BTreeMap::new();
        for &(k, v) in &self.entries {
            *out.entry(k).or_insert(0) += v;
        }
        out
    }

    /// All entries in deterministic (key) order.
    pub fn iter(&self) -> impl Iterator<Item = (CycleKey, u64)> {
        self.merged().into_iter()
    }

    /// Total nanoseconds recorded.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, v)| v).sum()
    }

    /// Nanoseconds recorded per billed pid (unbilled time excluded).
    pub fn per_billed(&self) -> BTreeMap<u32, u64> {
        let mut out = BTreeMap::new();
        for &(k, v) in &self.entries {
            if let Some(pid) = k.billed {
                *out.entry(pid).or_insert(0) += v;
            }
        }
        out
    }

    /// Nanoseconds recorded per context label.
    pub fn per_context(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for &(k, v) in &self.entries {
            *out.entry(k.context).or_insert(0) += v;
        }
        out
    }

    /// Folded-stack rendering: one line per `(host, cpu, context, stage)`
    /// stack with the summed sample count (nanoseconds), suitable for
    /// `flamegraph.pl`. Lines are sorted, counts merged across billed
    /// processes.
    pub fn folded(&self, host: &str) -> String {
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        for &(k, v) in &self.entries {
            let frame = format!("{host};cpu{};{};{}", k.cpu, k.context, k.stage);
            *merged.entry(frame).or_insert(0) += v;
        }
        let mut out = String::new();
        for (frame, count) in merged {
            out.push_str(&frame);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(cpu: u32, ctx: &'static str, stage: &'static str, billed: Option<u32>) -> CycleKey {
        CycleKey {
            cpu,
            context: ctx,
            stage,
            billed,
            account: billed.map(|_| "system"),
        }
    }

    #[test]
    fn totals_and_per_billed() {
        let mut a = CycleAccount::new();
        a.add(key(0, "softirq", "ip-input", Some(1)), 100);
        a.add(key(0, "softirq", "ip-input", Some(1)), 50);
        a.add(key(0, "interrupt", "rx-intr", None), 30);
        a.add(key(1, "user", "compute", Some(2)), 20);
        assert_eq!(a.total(), 200);
        let per = a.per_billed();
        assert_eq!(per.get(&1), Some(&150));
        assert_eq!(per.get(&2), Some(&20));
        assert_eq!(a.per_context().get(&"interrupt"), Some(&30));
    }

    #[test]
    fn zero_adds_are_ignored() {
        let mut a = CycleAccount::new();
        a.add(key(0, "user", "compute", Some(1)), 0);
        assert_eq!(a.iter().count(), 0);
    }

    #[test]
    fn iter_is_sorted_and_merged() {
        let mut a = CycleAccount::new();
        a.add(key(1, "user", "compute", Some(2)), 20);
        a.add(key(0, "softirq", "ip-input", Some(1)), 100);
        // Same logical key through a runtime-built address must merge
        // with the literal's entry in exports.
        let ctx: &'static str = Box::leak(String::from("softirq").into_boxed_str());
        a.add(key(0, ctx, "ip-input", Some(1)), 11);
        let got: Vec<(CycleKey, u64)> = a.iter().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0.context, "softirq");
        assert_eq!(got[0].1, 111);
        assert_eq!(got[1].0.context, "user");
        assert_eq!(a.total(), 131);
    }

    #[test]
    fn folded_merges_billed_processes_and_sorts() {
        let mut a = CycleAccount::new();
        a.add(key(0, "softirq", "ip-input", Some(2)), 7);
        a.add(key(0, "softirq", "ip-input", Some(1)), 5);
        a.add(key(0, "interrupt", "rx-intr", None), 3);
        let f = a.folded("hostB");
        assert_eq!(
            f,
            "hostB;cpu0;interrupt;rx-intr 3\nhostB;cpu0;softirq;ip-input 12\n"
        );
    }
}
