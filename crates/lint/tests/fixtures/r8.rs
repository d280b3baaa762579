// Fixture for R8 (wire-taint-allocation), single-file cases. Fed to
// check_sources as `crates/dist/src/proto.rs`; never compiled.
// `FIRE`-marked lines must fire; the rest must not. The wire readers are
// defined here so their summaries carry the taint, as in the real decoder.

fn take_u32(buf: &mut &[u8], what: &str) -> Result<u32, ProtoError> {
    need(buf, 4, what)?;
    Ok(buf.get_u32_le())
}

fn take_u64(buf: &mut &[u8], what: &str) -> Result<u64, ProtoError> {
    need(buf, 8, what)?;
    Ok(buf.get_u64_le())
}

fn decode_unchecked(buf: &mut &[u8]) -> Result<Vec<u64>, ProtoError> {
    let n_edges = take_u64(buf, "n_edges")? as usize;
    let mut out = Vec::with_capacity(n_edges); // FIRE
    for _ in 0..n_edges {
        out.push(0);
    }
    Ok(out)
}

fn decode_unchecked_vec_macro(buf: &mut &[u8]) -> Result<Vec<u8>, ProtoError> {
    let len = take_u32(buf, "len")? as usize;
    Ok(vec![0u8; len]) // FIRE
}

fn decode_unchecked_reserve(buf: &mut &[u8], out: &mut Vec<u64>) -> Result<(), ProtoError> {
    let n = take_u64(buf, "n")? as usize;
    out.reserve(n); // FIRE
    Ok(())
}

fn decode_need_validated(buf: &mut &[u8]) -> Result<Vec<u64>, ProtoError> {
    let n_edges = take_u64(buf, "n_edges")? as usize;
    need(buf, n_edges.checked_mul(8).ok_or(ProtoError::Overflow)?, "edges")?;
    let mut out = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        out.push(0);
    }
    Ok(out)
}

fn decode_compare_validated(buf: &mut &[u8]) -> Result<Vec<u64>, ProtoError> {
    let n = take_u64(buf, "n")? as usize;
    if n > MAX_EDGES {
        return Err(ProtoError::TooLarge);
    }
    let out = Vec::with_capacity(n);
    Ok(out)
}

fn decode_measured_capacity(buf: &mut &[u8], rows: &[Row]) -> Vec<u64> {
    // A measured length of a materialized collection is not a claimed
    // count: `.len()` projections stay clean.
    let out = Vec::with_capacity(rows.len());
    out
}

fn decode_constant_capacity(buf: &mut &[u8]) -> Result<Vec<u64>, ProtoError> {
    let out = Vec::with_capacity(16);
    Ok(out)
}

fn decode_waived(buf: &mut &[u8]) -> Result<Vec<u64>, ProtoError> {
    let n = take_u64(buf, "n")? as usize;
    // lint:allow(wire-taint-allocation) -- fixture: count bounded by MAX_FRAME upstream
    let out = Vec::with_capacity(n);
    Ok(out)
}
