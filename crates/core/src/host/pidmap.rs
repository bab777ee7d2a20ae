//! Per-process host state indexed by pid.
//!
//! Pids are dense: the scheduler hands out `Pid(n)` for its `n`th
//! process. [`PidMap`] therefore keeps one optional slot per pid in a
//! `Vec`, so a lookup on the dispatch path is an index rather than a
//! hash, and the keys come out in ascending pid order.

use lrp_sched::Pid;

/// A map from [`Pid`] to `T`: one `Option<T>` slot per pid.
#[derive(Debug)]
pub(crate) struct PidMap<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for PidMap<T> {
    fn default() -> Self {
        PidMap { slots: Vec::new() }
    }
}

impl<T> PidMap<T> {
    pub(crate) fn get(&self, pid: Pid) -> Option<&T> {
        self.slots.get(pid.0 as usize)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, pid: Pid) -> Option<&mut T> {
        self.slots.get_mut(pid.0 as usize)?.as_mut()
    }

    pub(crate) fn contains_key(&self, pid: Pid) -> bool {
        self.get(pid).is_some()
    }

    /// Stores `value` for `pid`; returns the value it replaces.
    pub(crate) fn insert(&mut self, pid: Pid, value: T) -> Option<T> {
        let i = pid.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i].replace(value)
    }

    pub(crate) fn remove(&mut self, pid: Pid) -> Option<T> {
        self.slots.get_mut(pid.0 as usize)?.take()
    }

    /// The pids with an entry, ascending.
    pub(crate) fn keys(&self) -> impl Iterator<Item = Pid> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .map(|(i, _)| Pid(i as u32))
    }

    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut m = PidMap::default();
        assert_eq!(m.get(Pid(3)), None);
        assert_eq!(m.insert(Pid(3), "a"), None);
        assert_eq!(m.get(Pid(3)), Some(&"a"));
        assert!(m.contains_key(Pid(3)));
        // Slots below a stored pid exist but are empty.
        assert_eq!(m.get(Pid(0)), None);
        assert!(!m.contains_key(Pid(2)));
        *m.get_mut(Pid(3)).expect("stored") = "b";
        assert_eq!(m.remove(Pid(3)), Some("b"));
        assert_eq!(m.remove(Pid(3)), None);
        assert_eq!(m.remove(Pid(99)), None, "beyond the slots");
        assert!(m.get_mut(Pid(99)).is_none());
        assert!(!m.contains_key(Pid(3)));
    }

    #[test]
    fn insert_returns_the_old_value() {
        let mut m = PidMap::default();
        assert_eq!(m.insert(Pid(1), 10), None);
        assert_eq!(m.insert(Pid(1), 11), Some(10));
        assert_eq!(m.get(Pid(1)), Some(&11));
    }

    #[test]
    fn keys_ascend_over_sparse_pids() {
        let mut m = PidMap::default();
        for p in [9, 2, 14, 0, 5] {
            m.insert(Pid(p), ());
        }
        m.remove(Pid(5));
        assert_eq!(
            m.keys().collect::<Vec<_>>(),
            [Pid(0), Pid(2), Pid(9), Pid(14)]
        );
        m.clear();
        assert_eq!(m.keys().count(), 0);
    }
}
