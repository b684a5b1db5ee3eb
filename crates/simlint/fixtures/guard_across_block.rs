//! Fixture: a mutex guard held across a blocking call (SL202).
//! Scanned as `crates/serve/src/guard_across_block.rs` by the
//! fixture test. The guard stays live while the thread blocks in
//! `recv_timeout`, and again while it sleeps in `thread::park`, so
//! every other thread contending for the queue stalls with it.

use std::collections::VecDeque;
use std::sync::mpsc::Receiver;
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

pub fn drain_under_lock(queue: &Mutex<VecDeque<u64>>, rx: &Receiver<u64>) {
    let mut held = queue.lock().unwrap();
    if let Ok(job) = rx.recv_timeout(Duration::from_millis(5)) {
        held.push_back(job);
    }
    thread::park();
}
