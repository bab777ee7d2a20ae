//! The byte codec of the append-only logs: LEB128 varints, with zigzag
//! for signed deltas.
//!
//! A varint stores a `u64` in 7-bit groups, least significant first, the
//! high bit of each byte set while more follow: values below 128 take one
//! byte, and [`MAX_LEN`] bytes hold any `u64`. Zigzag maps a signed value
//! to an unsigned one whose size follows its magnitude (0, −1, 1, −2, … →
//! 0, 1, 2, 3, …), so a small step either way stays one byte. A log that
//! stores each entry as the [`put_delta`] from the one before pays bytes
//! for how far consecutive entries differ, not for how large they are.

/// The most bytes one varint takes.
pub const MAX_LEN: usize = 10;

/// `v` mapped so that values near zero, of either sign, are small.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// Appends `v` as a varint.
#[inline]
pub fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the varint at `*at`, advancing `*at` past it.
///
/// # Panics
///
/// Panics if `bytes` ends inside the varint: the logs decode only what
/// they wrote.
#[inline]
pub fn get(bytes: &[u8], at: &mut usize) -> u64 {
    let mut v = 0;
    let mut shift = 0;
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Appends `v` as the zigzagged wrapping difference from `prev`, so a
/// step that crosses zero or `u64::MAX` is as small as any other.
#[inline]
pub fn put_delta(out: &mut Vec<u8>, prev: u64, v: u64) {
    put(out, zigzag(v.wrapping_sub(prev) as i64));
}

/// Reads a value written by [`put_delta`] against the same `prev`.
#[inline]
pub fn get_delta(bytes: &[u8], at: &mut usize, prev: u64) -> u64 {
    prev.wrapping_add(unzigzag(get(bytes, at)) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Values at the edges of each varint length, and the extremes.
    fn edge_u64() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(u64::MAX),
            Just(i64::MAX as u64),
            Just(i64::MIN as u64),
            (0u32..64).prop_map(|k| 1u64 << k),
            (1u32..64).prop_map(|k| (1u64 << k) - 1),
            0u64..300,
            any::<u64>(),
        ]
    }

    #[test]
    fn sizes_follow_magnitude() {
        let len = |v| {
            let mut out = Vec::new();
            put(&mut out, v);
            out.len()
        };
        assert_eq!(
            [len(0), len(127), len(128), len(u64::MAX)],
            [1, 1, 2, MAX_LEN]
        );
        assert_eq!([zigzag(0), zigzag(-1), zigzag(1), zigzag(-2)], [0, 1, 2, 3]);
        assert_eq!(
            [zigzag(i64::MAX), zigzag(i64::MIN)],
            [u64::MAX - 1, u64::MAX]
        );
    }

    proptest! {
        /// A sequence written as plain varints, zigzagged signed values
        /// and deltas reads back exactly, each in at most `MAX_LEN`
        /// bytes, with nothing left over: deltas of 0, ±1, `u64::MAX`
        /// and `i64::MIN`/`MAX` included.
        #[test]
        fn varints_and_deltas_round_trip(
            vals in proptest::collection::vec((edge_u64(), edge_u64()), 1..64),
        ) {
            let mut out = Vec::new();
            for &(a, b) in &vals {
                let start = out.len();
                put(&mut out, a);
                put(&mut out, zigzag(a as i64));
                put_delta(&mut out, a, b);
                prop_assert!(out.len() - start <= 3 * MAX_LEN);
            }
            let mut at = 0;
            for &(a, b) in &vals {
                prop_assert_eq!(get(&out, &mut at), a);
                prop_assert_eq!(unzigzag(get(&out, &mut at)), a as i64);
                prop_assert_eq!(get_delta(&out, &mut at, a), b);
            }
            prop_assert_eq!(at, out.len());
        }
    }
}
