//! Fixture: a lock pair acquired in both orders (SL201). Scanned as
//! `crates/serve/src/lock_order.rs` by the fixture test. The push path
//! takes local-then-peer, the steal path peer-then-local — the classic
//! work-stealing deadlock: two shards running both paths against each
//! other block forever.

use std::collections::VecDeque;
use std::sync::Mutex;

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

pub fn steal_peer_then_local(local: &Shard, peer: &Shard) {
    let mut theirs = peer.queue.lock().unwrap();
    let mut mine = local.queue.lock().unwrap();
    if let Some(job) = theirs.pop_front() {
        mine.push_back(job);
    }
}
