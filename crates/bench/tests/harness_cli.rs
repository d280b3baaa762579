//! `harness bench` without `--out` must refuse to run, not write a record
//! under a default name into the working directory (from the repository
//! root that name is the first entry of the BENCH history).

use std::process::Command;

#[test]
fn bench_without_out_exits_2_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("harness-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .arg("bench")
        .current_dir(&dir)
        .output()
        .unwrap();
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--out"),
        "{out:?}"
    );
    assert!(written.is_empty(), "bench wrote {written:?}");
}
