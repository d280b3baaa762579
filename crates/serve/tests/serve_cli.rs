//! Command-line validation of the `dangoron-serve` binary.

use std::process::Command;

#[test]
fn mem_budget_that_overflows_bytes_exits_2() {
    // 2^44 MiB is 2^64 bytes: a shift would wrap it to a zero budget that
    // refuses every session, so the flag must be rejected instead.
    let out = Command::new(env!("CARGO_BIN_EXE_dangoron-serve"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--mem-budget-mb",
            "17592186044416",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --mem-budget-mb"), "{stderr}");
    assert!(!stderr.contains("listening"), "{stderr}");
}
