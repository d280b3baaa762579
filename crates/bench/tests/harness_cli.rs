//! `harness bench` is no longer a subcommand (regression timing lives in
//! `benchmark/`): it must fail as an unknown experiment id and never write
//! a record into the working directory.

use std::process::Command;

#[test]
fn bench_is_an_unknown_experiment_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("harness-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["bench", "--out", "BENCH_8.json"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown experiment id: bench"),
        "{out:?}"
    );
    assert!(written.is_empty(), "bench wrote {written:?}");
}
