//! Fixture: per-connection thread spawns in the serving layer (SL110).
//! Scanned as `crates/serve/src/conn_thread_spawn.rs` by the fixture test.

fn accept_loop(listener: std::os::unix::net::UnixListener) {
    for stream in listener.incoming().flatten() {
        // The retired design: one thread per accepted connection, with
        // no lifecycle naming anywhere near the spawn.
        std::thread::spawn(move || handle(stream));
    }
}

fn handle_builder(stream: std::os::unix::net::UnixStream) {
    let builder = std::thread::Builder::new();
    let _ = builder.spawn(move || handle(stream));
}

fn handle(_stream: std::os::unix::net::UnixStream) {}
