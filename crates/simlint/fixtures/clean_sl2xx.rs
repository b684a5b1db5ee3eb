//! Fixture: every legitimate concurrency pattern the SL2xx rules must
//! accept. Scanned as `crates/serve/src/clean_sl2xx.rs` by the
//! fixture test and must stay quiet under the full rule set, line and
//! semantic: consistently ordered lock pairs, a guard dropped before
//! blocking, bounded channels with both ends alive, a named startup
//! spawn, a dominating nonblocking setup, and a matched join.

use std::collections::VecDeque;
use std::os::unix::net::UnixListener;
use std::sync::{mpsc, Mutex};
use std::time::Duration;

pub struct Shard {
    queue: Mutex<VecDeque<u64>>,
}

pub fn push_local_then_peer(local: &Shard, peer: &Shard) {
    let mut mine = local.queue.lock().unwrap();
    let mut theirs = peer.queue.lock().unwrap();
    if let Some(job) = mine.pop_back() {
        theirs.push_back(job);
    }
}

pub fn rebalance_in_the_same_order(local: &Shard, peer: &Shard) {
    let mut mine = local.queue.lock().unwrap();
    let mut theirs = peer.queue.lock().unwrap();
    if let Some(job) = theirs.pop_front() {
        mine.push_back(job);
    }
}

pub fn drop_the_guard_before_blocking(queue: &Mutex<VecDeque<u64>>, rx: &mpsc::Receiver<u64>) {
    let mut held = queue.lock().unwrap();
    held.push_back(0);
    drop(held);
    if let Ok(job) = rx.recv_timeout(Duration::from_millis(5)) {
        queue.lock().unwrap().push_back(job);
    }
}

pub fn bounded_round_trip() -> Option<u64> {
    let (tx, rx) = mpsc::sync_channel::<u64>(8);
    tx.send(9).ok();
    rx.recv_timeout(Duration::from_millis(1)).ok()
}

pub fn start_worker() -> std::io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name("strent-serve-worker-0".to_owned())
        .spawn(|| {})
}

pub fn accept_ready(listener: &UnixListener) {
    listener.set_nonblocking(true).ok();
    while let Ok((stream, _)) = listener.accept() {
        drop(stream);
    }
}

pub fn reap(worker: std::thread::JoinHandle<u64>) -> u64 {
    match worker.join() {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}
