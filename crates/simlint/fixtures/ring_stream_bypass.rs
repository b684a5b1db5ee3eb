//! Fixture: direct ring construction bypassing the backend selector
//! (SL109). Scanned as `crates/serve/src/ring_stream_bypass.rs` by the
//! fixture test.

fn build_raw(config: &StreamConfig, board: &Board, seed: u64) -> Result<RingStream, RingError> {
    // Ignores the spec's SourceBackend request and every fallback rule.
    RingStream::build(config, board, seed, None)
}
