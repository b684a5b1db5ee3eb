//! Fixture: channel-topology violations (SL203). Scanned as
//! `crates/serve/src/channel_topology.rs` by the fixture test.

use std::sync::mpsc;
use std::time::Duration;

pub fn unbounded_edge() {
    // Unbounded: a stalled consumer lets the queue grow without
    // limit — the serving layer's backpressure contract is bounded
    // sync_channel everywhere.
    let (tx, rx) = mpsc::channel::<u64>();
    tx.send(1).ok();
    let _ = rx.recv_timeout(Duration::from_millis(1));
}

pub fn send_into_the_void() {
    // The receiver is dropped in the pattern itself: every send on
    // this channel fails from the first one.
    let (tx, _) = mpsc::sync_channel::<u64>(8);
    let _ = tx.send(7);
}
