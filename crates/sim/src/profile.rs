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
//! hash, no string comparisons), and a key seen recently is summed in a
//! [`Tally`]'s memo without probing the hash map; every
//! export merges and sorts by label content, so iteration order — and
//! therefore every report — stays deterministic even if the compiler
//! hands out several addresses for one literal.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

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

/// A key a [`Tally`] can memoise: `memo_line` spreads keys over the
/// memo's lines (any cheap function of the key will do; a poor one
/// costs hash probes, never correctness).
pub trait MemoKey: Copy + Eq + Hash {
    /// A well-mixed word from the key; its top bits pick the line.
    fn memo_line(&self) -> u64;
}

impl MemoKey for (Option<u32>, u32) {
    fn memo_line(&self) -> u64 {
        let billed = self.0.map_or(0, |p| p as u64 + 1);
        ((billed << 32) | self.1 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Lines in a [`Tally`]'s memo (a power of two).
const MEMO_LINES: usize = 64;

/// Amounts summed by key: a hash map with a direct-mapped write-back
/// memo in front. Interrupt, softirq and process chunks alternate on a
/// busy host, so a one-entry memo would miss on most of them; with one
/// line per recently seen key, an `add` is a multiply, a compare and an
/// add, and the map is probed only to write back the amount of a key a
/// colliding one evicts.
#[derive(Clone, Debug)]
pub struct Tally<K> {
    map: FastHashMap<K, u64>,
    /// Each line: a key and the amount added under it since it came in,
    /// not yet in `map`.
    memo: [Option<(K, u64)>; MEMO_LINES],
}

impl<K: MemoKey> Default for Tally<K> {
    fn default() -> Self {
        Tally {
            map: FastHashMap::default(),
            memo: [None; MEMO_LINES],
        }
    }
}

impl<K: MemoKey> Tally<K> {
    fn line(key: &K) -> usize {
        (key.memo_line() >> (64 - MEMO_LINES.trailing_zeros())) as usize
    }

    /// Adds `n` under `key`.
    #[inline]
    pub fn add(&mut self, key: K, n: u64) {
        match &mut self.memo[Self::line(&key)] {
            Some((k, v)) if *k == key => *v += n,
            line => {
                if let Some((k, v)) = line.replace((key, n)) {
                    *self.map.entry(k).or_insert(0) += v;
                }
            }
        }
    }

    /// Every key with its total, each once, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (K, u64)> + '_ {
        let pending = |k: &K| match self.memo[Self::line(k)] {
            Some((m, v)) if m == *k => v,
            _ => 0,
        };
        let written = self.map.iter().map(move |(k, v)| (*k, v + pending(k)));
        let unwritten = self.memo.iter().flatten().copied();
        written.chain(unwritten.filter(|(k, _)| !self.map.contains_key(k)))
    }
}

/// A [`CycleKey`] that compares by the identity of its labels (address
/// and length), not their contents. It hashes by a word of each label's
/// contents, which equal labels share, so that the hash and memo lines,
/// and with them how often the table grows, do not move with where the
/// binary is loaded.
#[derive(Clone, Copy, Debug)]
struct ById(CycleKey);

/// A label's length and its first and last bytes in one word: two loads,
/// and the same wherever the label lies.
fn label_word(label: &str) -> u64 {
    let b = label.as_bytes();
    let byte = |x: Option<&u8>| x.copied().unwrap_or(0) as u64;
    (b.len() as u64) << 16 | byte(b.first()) << 8 | byte(b.last())
}

impl ById {
    /// The cpu and the billed pid in one word (`None` billed is 0), and
    /// the labels' words (`None` account is 0).
    fn words(&self) -> [u64; 4] {
        let k = &self.0;
        let billed = k.billed.map_or(0, |p| p as u64 + 1);
        [
            ((k.cpu as u64) << 40) ^ billed,
            label_word(k.context),
            label_word(k.stage),
            k.account.map_or(0, label_word),
        ]
    }
}

impl PartialEq for ById {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.0, &other.0);
        a.cpu == b.cpu
            && a.billed == b.billed
            && std::ptr::eq(a.stage, b.stage)
            && std::ptr::eq(a.context, b.context)
            && match (a.account, b.account) {
                (Some(x), Some(y)) => std::ptr::eq(x, y),
                (x, y) => x.is_none() && y.is_none(),
            }
    }
}

impl Eq for ById {}

impl Hash for ById {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for w in self.words() {
            state.write_u64(w);
        }
    }
}

impl MemoKey for ById {
    fn memo_line(&self) -> u64 {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let [cpu_billed, context, stage, account] = self.words();
        let labels = (context ^ stage.rotate_left(21) ^ account.rotate_left(42)).wrapping_mul(K);
        (labels ^ cpu_billed).wrapping_mul(K)
    }
}

/// Deterministic accumulator of charged simulated nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct CycleAccount {
    /// Keyed by label identity; exports merge by content and sort.
    tally: Tally<ById>,
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
        self.tally.add(ById(key), ns);
    }

    /// Every entry by label identity.
    fn entries(&self) -> impl Iterator<Item = (CycleKey, u64)> + '_ {
        self.tally.iter().map(|(k, v)| (k.0, v))
    }

    /// All entries merged by key content, in deterministic (key) order.
    fn merged(&self) -> BTreeMap<CycleKey, u64> {
        let mut out = BTreeMap::new();
        for (k, v) in self.entries() {
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
        self.entries().map(|(_, v)| v).sum()
    }

    /// Nanoseconds recorded per billed pid (unbilled time excluded).
    pub fn per_billed(&self) -> BTreeMap<u32, u64> {
        let mut out = BTreeMap::new();
        for (k, v) in self.entries() {
            if let Some(pid) = k.billed {
                *out.entry(pid).or_insert(0) += v;
            }
        }
        out
    }

    /// Nanoseconds recorded per context label.
    pub fn per_context(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (k, v) in self.entries() {
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
        for (k, v) in self.entries() {
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
    fn tally_totals_equal_a_map_through_evictions() {
        // Far more keys than memo lines, revisited in a scrambled order:
        // every add lands on a hit, a cold line or an eviction.
        let mut t = Tally::default();
        let mut model = BTreeMap::new();
        let mut x: u64 = 1;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (
                (x >> 60 != 0).then_some((x >> 40) as u32 % 7),
                (x >> 33) as u32 % 23,
            );
            t.add(key, i);
            *model.entry(key).or_insert(0) += i;
        }
        let got: Vec<_> = t.iter().collect();
        assert_eq!(got.len(), model.len(), "each key once");
        assert_eq!(got.into_iter().collect::<BTreeMap<_, _>>(), model);
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
