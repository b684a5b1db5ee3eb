//! Fixture: unguarded blocking reads in the serving layer (SL108).
//! Scanned as `crates/serve/src/blocking_recv.rs` by the fixture test.

fn drain(rx: &std::sync::mpsc::Receiver<u8>) -> u8 {
    // No deadline anywhere near: a dead producer pins this thread.
    rx.recv().unwrap_or(0)
}

fn accept_one(listener: &std::os::unix::net::UnixListener) {
    let _ = listener.accept();
}

fn slurp(stream: &mut impl std::io::Read) -> std::io::Result<[u8; 4]> {
    let mut buf = [0u8; 4];
    stream.read_exact(&mut buf)?;
    Ok(buf)
}

// The guard sits two lines above the accept, but in a *sibling* branch:
// on the path where `probe` is false nothing governs the call.
fn accept_with_a_sibling_guard(listener: &std::os::unix::net::UnixListener, probe: bool) {
    if probe {
        listener.set_nonblocking(true).ok();
    }
    let _ = listener.accept();
}
