//! Fixture: RNG state built from a magic constant instead of the run
//! seed (SL204). Scanned as `crates/sim/src/rng_provenance.rs` by the
//! fixture test. Def-use tracking follows the constant through the
//! binding: neither call site derives from the run seed or an RngTree
//! stream, so neither result is reproducible from the root seed alone.

pub fn hardcoded_stream() -> SimRng {
    SimRng::seed_from_u64(0xD00D_F00D)
}

pub fn laundered_through_a_binding() -> SimRng {
    let magic = 0xCAFE_BABE_u64;
    SimRng::seed_from_u64(magic.rotate_left(13))
}
