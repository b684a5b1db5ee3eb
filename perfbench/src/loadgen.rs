//! Load generators speaking the service's wire protocol over its Unix
//! socket: a closed loop (each connection keeps one request
//! outstanding) and a sub-millisecond open loop (requests sent at due
//! instants by one thread, replies decoded by another that polls every
//! connection).
//!
//! `serve::mux` is not used for the open loop: its poll timeout has
//! whole-millisecond resolution, so sends would run up to ~1 ms late
//! and the latency-from-due-instant rule would charge that to the
//! service.

use std::io::{Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use strent_serve::sys::{poll_fds, PollFd, POLLIN};
use strent_serve::wire::{self, FrameDecoder, OP_HELLO, OP_HELLO_OK, OP_OK, OP_REQ};

use crate::stats;

/// Longest a generator waits for any single reply before giving up.
const REPLY_DEADLINE: Duration = Duration::from_secs(60);

/// A decoded reply frame: opcode, payload, and when it was decoded.
type Frame = (u8, Vec<u8>, Instant);

/// One reply as the generator saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Reply opcode (`OP_OK` for a grant).
    pub op: u8,
    /// The granted bytes (empty for a rejection).
    pub bytes: Vec<u8>,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When the request frame was written.
    pub sent: Instant,
    /// When the reply frame was decoded.
    pub decoded: Instant,
}

/// Opens a connection and registers `client_id`.
pub fn connect(path: &Path, client_id: u32) -> Result<UnixStream, String> {
    let mut stream = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_DEADLINE))
        .map_err(|e| e.to_string())?;
    wire::write_frame(&mut stream, OP_HELLO, &client_id.to_le_bytes())
        .map_err(|e| format!("hello: {e}"))?;
    match wire::read_frame(&mut stream) {
        Ok((OP_HELLO_OK, _)) => Ok(stream),
        Ok((op, payload)) => Err(format!(
            "hello refused (0x{op:02x}): {}",
            String::from_utf8_lossy(&payload)
        )),
        Err(e) => Err(format!("hello reply: {e}")),
    }
}

/// Sends one request and blocks for its reply.
pub fn request(stream: &mut UnixStream, nbytes: usize) -> Result<Reply, String> {
    let n = u32::try_from(nbytes).map_err(|e| e.to_string())?;
    let sent = Instant::now();
    wire::write_frame(stream, OP_REQ, &n.to_le_bytes()).map_err(|e| format!("request: {e}"))?;
    let (op, bytes) = wire::read_frame(stream).map_err(|e| format!("reply: {e}"))?;
    Ok(Reply {
        op,
        bytes,
        due: sent,
        sent,
        decoded: Instant::now(),
    })
}

/// Closed loop: one thread per connection, each keeping one request of
/// `nbytes` outstanding until `total` requests have been issued across
/// all of them. Connections are opened before the clock starts. Returns
/// the replies (in no particular order), the wall time from the common
/// start to the last reply, and the CPU seconds the generator's threads
/// used.
pub fn closed_loop(
    path: &Path,
    client_ids: &[u32],
    nbytes: usize,
    total: usize,
) -> Result<(Vec<Reply>, Duration, f64), String> {
    let issued = AtomicUsize::new(0);
    let ready = Barrier::new(client_ids.len() + 1);
    thread::scope(|scope| {
        let workers: Vec<_> = client_ids
            .iter()
            .map(|&id| {
                let (issued, ready) = (&issued, &ready);
                thread::Builder::new()
                    .name(format!("pb-loadgen-{id}"))
                    .spawn_scoped(scope, move || -> Result<(Vec<Reply>, f64), String> {
                        let stream = connect(path, id);
                        ready.wait();
                        let mut stream = stream?;
                        let mut replies = Vec::new();
                        while issued.fetch_add(1, Ordering::Relaxed) < total {
                            replies.push(request(&mut stream, nbytes)?);
                        }
                        Ok((replies, stats::current_thread_cpu_s()))
                    })
                    .expect("spawning a load-generator thread")
            })
            .collect();
        ready.wait();
        let start = Instant::now();
        let mut replies = Vec::with_capacity(total);
        let mut cpu_s = 0.0;
        let mut error = None;
        for worker in workers {
            match worker.join().expect("load-generator thread panicked") {
                Ok((r, cpu)) => {
                    replies.extend(r);
                    cpu_s += cpu;
                }
                Err(e) => error = Some(e),
            }
        }
        let wall = replies
            .iter()
            .map(|r| r.decoded)
            .max()
            .map_or(Duration::ZERO, |last| last - start);
        match error {
            Some(e) => Err(e),
            None => Ok((replies, wall, cpu_s)),
        }
    })
}

/// Open loop over already-registered connections: request `i` of
/// `total` goes out on connection `i % conns` at `start + i / rate`.
/// One sender thread sleeps to each due instant; one receiver thread
/// polls every connection and decodes replies as they arrive. Returns
/// the replies in request order and the CPU seconds both threads used.
pub fn open_loop(
    streams: &[UnixStream],
    nbytes: usize,
    rate_hz: f64,
    total: usize,
    start: Instant,
) -> Result<(Vec<Reply>, f64), String> {
    let n = u32::try_from(nbytes).map_err(|e| e.to_string())?;
    let conns = streams.len();
    let interval = Duration::from_secs_f64(1.0 / rate_hz);
    let due = |i: usize| start + interval * u32::try_from(i).expect("request index fits u32");
    let mut writers = streams
        .iter()
        .map(UnixStream::try_clone)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut readers = streams
        .iter()
        .map(UnixStream::try_clone)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    thread::scope(|scope| {
        let sender = thread::Builder::new()
            .name("pb-loadgen-tx".to_owned())
            .spawn_scoped(scope, move || -> Result<(Vec<Instant>, f64), String> {
                let mut frame = Vec::with_capacity(16);
                wire::encode_frame(&mut frame, OP_REQ, &n.to_le_bytes())
                    .map_err(|e| e.to_string())?;
                let mut sent = Vec::with_capacity(total);
                for i in 0..total {
                    let now = Instant::now();
                    let at = due(i);
                    if at > now {
                        thread::sleep(at - now);
                    }
                    writers[i % conns]
                        .write_all(&frame)
                        .map_err(|e| format!("request {i}: {e}"))?;
                    sent.push(Instant::now());
                }
                Ok((sent, stats::current_thread_cpu_s()))
            })
            .expect("spawning the sender thread");
        let receiver = thread::Builder::new()
            .name("pb-loadgen-rx".to_owned())
            .spawn_scoped(scope, move || -> Result<(Vec<Frame>, f64), String> {
                let mut decoders: Vec<FrameDecoder> =
                    (0..conns).map(|_| FrameDecoder::new()).collect();
                let mut per_conn: Vec<Vec<Frame>> = vec![Vec::new(); conns];
                let mut received = 0;
                let mut buf = vec![0u8; 64 * 1024];
                let mut last_progress = Instant::now();
                while received < total {
                    let mut fds: Vec<PollFd> = readers
                        .iter()
                        .map(|s| PollFd::new(s.as_raw_fd(), POLLIN))
                        .collect();
                    poll_fds(&mut fds, 100).map_err(|e| format!("poll: {e}"))?;
                    for (c, fd) in fds.iter().enumerate() {
                        if !(fd.readable() || fd.failed()) {
                            continue;
                        }
                        // Readable: this read returns what is buffered
                        // without blocking.
                        let got = readers[c]
                            .read(&mut buf)
                            .map_err(|e| format!("read: {e}"))?;
                        if got == 0 {
                            return Err(format!("connection {c} closed by the server"));
                        }
                        let now = Instant::now();
                        decoders[c].feed(&buf[..got]);
                        while let Some((op, payload)) =
                            decoders[c].next_frame().map_err(|e| e.to_string())?
                        {
                            per_conn[c].push((op, payload, now));
                            received += 1;
                        }
                        last_progress = now;
                    }
                    if last_progress.elapsed() > REPLY_DEADLINE {
                        return Err(format!("no reply for {REPLY_DEADLINE:?}"));
                    }
                }
                // Replies on one connection come back in its request
                // order; interleave them back into global order.
                let mut ordered = Vec::with_capacity(total);
                let mut iters: Vec<_> = per_conn.into_iter().map(Vec::into_iter).collect();
                for i in 0..total {
                    ordered.push(iters[i % conns].next().expect("one reply per request"));
                }
                Ok((ordered, stats::current_thread_cpu_s()))
            })
            .expect("spawning the receiver thread");
        let (sent, tx_cpu) = sender.join().expect("sender thread panicked")?;
        let (replies, rx_cpu) = receiver.join().expect("receiver thread panicked")?;
        let replies = replies
            .into_iter()
            .zip(sent)
            .enumerate()
            .map(|(i, ((op, bytes, decoded), sent))| Reply {
                op,
                bytes,
                due: due(i),
                sent,
                decoded,
            })
            .collect();
        Ok((replies, tx_cpu + rx_cpu))
    })
}

/// Whether a reply is a grant of exactly `nbytes`.
pub fn is_grant(reply: &Reply, nbytes: usize) -> bool {
    reply.op == OP_OK && reply.bytes.len() == nbytes
}
