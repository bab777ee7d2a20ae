//! Benchmark support crate: `benches/micro.rs` holds microbenchmarks of
//! the hot kernel paths (demux, checksum, socket buffer, event queue,
//! TCP segment processing). The repository's end-to-end benchmark is the
//! standalone `benchmark/` package.
