//! The frame arena: pooled, reference-counted byte buffers for the
//! simulator's packets.
//!
//! 4.4BSD keeps every packet in mbufs drawn from a global pool; the
//! simulator keeps every frame and UDP payload in buffers drawn from a
//! [`FrameArena`]. Both halves of a buffer — the byte vector and the
//! `Rc` box around it — are recycled, so steady-state traffic does no
//! allocator work, and a burst leaves its boxes cached for the next
//! one. Byte vectors come in exact size classes, eight per power of
//! two, as mbufs and clusters come in fixed sizes: a request takes at
//! most 12.5 % more than it asks for, and any cached vector of its
//! class fits it. A checked-out buffer's one identity is its `Rc`, whose strong
//! count decides when it comes back. `lrp-wire`'s `FrameBuf` is the
//! arena's only front end (see the [`arena`] module).
//!
//! # Examples
//!
//! ```
//! use lrp_mbuf::FrameArena;
//!
//! let mut arena = FrameArena::new();
//! let mut v = arena.take_storage(1500);
//! v.extend_from_slice(b"frame bytes");
//! let buf = arena.adopt(v);
//! assert_eq!(buf.bytes(), b"frame bytes");
//! arena.reclaim(buf);
//! // The next frame of the same size reuses the bytes and the box.
//! let v = arena.take_storage(1500);
//! let again = arena.adopt(v);
//! let s = arena.stats();
//! assert_eq!((s.storage_allocs, s.boxes.made, s.boxes.live()), (1, 1, 1));
//! arena.reclaim(again);
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod spare;

pub use arena::{ArenaStats, FrameArena, PooledBuf};
pub use spare::{SpareList, SpareStats};
