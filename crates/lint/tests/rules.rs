//! Rule-level fixture tests: every rule has positive cases (lines with a
//! `// FIRE` marker must produce exactly one finding), negative cases
//! (idiomatic code must stay clean), and waived cases (a well-formed
//! waiver suppresses the finding). Fixtures live under `tests/fixtures/`
//! — a directory the workspace walker skips, so they never self-lint.

use lint::{check_sources, Finding, R1, R3, R4, R5, R6, R7, R8, R9, UNUSED};

/// 1-based lines carrying the `// FIRE` marker.
fn fire_lines(src: &str) -> Vec<u32> {
    src.lines()
        .enumerate()
        .filter(|(_, l)| l.contains("// FIRE"))
        .map(|(i, _)| i as u32 + 1)
        .collect()
}

fn check_one(rel: &str, src: &str) -> Vec<Finding> {
    check_sources(&[(rel.to_string(), src.to_string())])
}

fn lines_of(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn r1_fires_on_marked_lines_only() {
    let src = include_str!("fixtures/r1.rs");
    let findings = check_one("crates/linalg/src/fixture.rs", src);
    assert_eq!(lines_of(&findings, R1), fire_lines(src), "{findings:?}");
    assert_eq!(findings.len(), fire_lines(src).len(), "{findings:?}");
}

#[test]
fn r1_is_silent_inside_the_kernel_crate() {
    let src = include_str!("fixtures/r1.rs");
    // The same source under crates/kernel: only the (now unused) waivers
    // warn; no R1 findings at all.
    let findings = check_one("crates/kernel/src/fixture.rs", src);
    assert!(lines_of(&findings, R1).is_empty(), "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == UNUSED), "{findings:?}");
}

#[test]
fn r3_fires_on_marked_lines_only() {
    let src = include_str!("fixtures/r3.rs");
    for rel in [
        "crates/dist/src/fixture.rs",
        "crates/serve/src/fixture.rs",
        "crates/obs/src/fixture.rs",
    ] {
        let findings = check_one(rel, src);
        assert_eq!(lines_of(&findings, R3), fire_lines(src), "{findings:?}");
    }
    // Under dist only R3 binds, so the fire lines are the only findings
    // (under obs the fixture's poison-recovery Mutex also trips R6).
    let dist = check_one("crates/dist/src/fixture.rs", src);
    assert_eq!(dist.len(), fire_lines(src).len(), "{dist:?}");
    // Supervision contracts only bind the daemon tiers.
    let elsewhere = check_one("crates/linalg/src/fixture.rs", src);
    assert!(lines_of(&elsewhere, R3).is_empty(), "{elsewhere:?}");
}

#[test]
fn r4_fires_on_marked_lines_only() {
    let src = include_str!("fixtures/r4.rs");
    let findings = check_one("crates/linalg/src/fixture.rs", src);
    assert_eq!(lines_of(&findings, R4), fire_lines(src), "{findings:?}");
    assert_eq!(findings.len(), fire_lines(src).len(), "{findings:?}");
}

#[test]
fn r5_fires_on_backend_ops_missing_from_scalar() {
    let scalar = include_str!("fixtures/r5_scalar.rs");
    let backend = include_str!("fixtures/r5_backend.rs");
    let findings = check_sources(&[
        (
            "crates/kernel/src/scalar.rs".to_string(),
            scalar.to_string(),
        ),
        ("crates/kernel/src/avx2.rs".to_string(), backend.to_string()),
    ]);
    assert_eq!(lines_of(&findings, R5), fire_lines(backend), "{findings:?}");
    assert_eq!(findings.len(), fire_lines(backend).len(), "{findings:?}");
    // A waiver at the rogue op suppresses the parity finding too.
    let waived = backend.replace(
        "pub(crate) unsafe fn rogue_op(x: &[f64]) -> f64 { // FIRE",
        "// lint:allow(backend-parity) -- fixture: op intentionally SIMD-only\npub(crate) unsafe fn rogue_op(x: &[f64]) -> f64 {",
    );
    let findings = check_sources(&[
        (
            "crates/kernel/src/scalar.rs".to_string(),
            scalar.to_string(),
        ),
        ("crates/kernel/src/avx2.rs".to_string(), waived),
    ]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn r6_fires_on_marked_lines_only() {
    let src = include_str!("fixtures/r6.rs");
    for rel in [
        "crates/exec/src/fixture.rs",
        "crates/kernel/src/fixture.rs",
        "crates/obs/src/fixture.rs",
    ] {
        let findings = check_one(rel, src);
        assert_eq!(lines_of(&findings, R6), fire_lines(src), "{findings:?}");
        assert_eq!(findings.len(), fire_lines(src).len(), "{findings:?}");
    }
    // Locks are fine outside the hot path.
    let elsewhere = check_one("crates/dist/src/fixture.rs", src);
    assert!(lines_of(&elsewhere, R6).is_empty(), "{elsewhere:?}");
}

#[test]
fn r7_fires_on_marked_lines_only() {
    let src = include_str!("fixtures/r7.rs");
    let findings = check_one("crates/core/src/fixture.rs", src);
    assert_eq!(lines_of(&findings, R7), fire_lines(src), "{findings:?}");
    assert_eq!(findings.len(), fire_lines(src).len(), "{findings:?}");
}

#[test]
fn r7_findings_carry_a_taint_trace() {
    let src = include_str!("fixtures/r7.rs");
    let findings = check_one("crates/core/src/fixture.rs", src);
    let f = findings
        .iter()
        .find(|f| f.rule == R7)
        .expect("an R7 finding");
    assert!(!f.trace.is_empty(), "R7 finding has no trace: {f:?}");
}

#[test]
fn r8_fires_on_marked_lines_only() {
    let src = include_str!("fixtures/r8.rs");
    let findings = check_one("crates/dist/src/proto.rs", src);
    assert_eq!(lines_of(&findings, R8), fire_lines(src), "{findings:?}");
    assert_eq!(findings.len(), fire_lines(src).len(), "{findings:?}");
}

#[test]
fn r8_is_scoped_to_the_wire_tier_crates() {
    let src = include_str!("fixtures/r8.rs");
    // The same decoder under a compute crate: allocations there are not
    // peer-reachable, so R8 stays silent and only the unused waiver warns.
    let findings = check_one("crates/linalg/src/fixture.rs", src);
    assert!(lines_of(&findings, R8).is_empty(), "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == UNUSED), "{findings:?}");
}

/// The acceptance regression: a `need()` bounds check stripped two call
/// levels above the allocation. One level of summary propagation carries
/// `alloc_rows`'s sink up through `build_table`, so the unvalidated call
/// in `decode_table` fires while the `need()`-guarded twin stays clean.
#[test]
fn r8_fires_across_two_call_levels() {
    let src = include_str!("fixtures/r8_cross.rs");
    let findings = check_one("crates/dist/src/proto.rs", src);
    assert_eq!(lines_of(&findings, R8), fire_lines(src), "{findings:?}");
    assert_eq!(findings.len(), fire_lines(src).len(), "{findings:?}");
}

#[test]
fn r9_fires_on_marked_lines_only() {
    let src = include_str!("fixtures/r9.rs");
    let findings = check_one("crates/obs/src/fixture.rs", src);
    assert_eq!(lines_of(&findings, R9), fire_lines(src), "{findings:?}");
    assert_eq!(findings.len(), fire_lines(src).len(), "{findings:?}");
}

#[test]
fn r9_is_scoped_to_the_daemon_tiers() {
    let src = include_str!("fixtures/r9.rs");
    // Kernel code is single-threaded per shard; ordering discipline is
    // not enforced there, so only the unused waiver warns.
    let findings = check_one("crates/kernel/src/fixture.rs", src);
    assert!(lines_of(&findings, R9).is_empty(), "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == UNUSED), "{findings:?}");
}

/// The self-host gate, enforced by `cargo test` as well as CI: the live
/// workspace must lint clean (no deny findings, no warnings).
#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let files = lint::walk_workspace(&root).expect("walk workspace");
    assert!(
        files.len() > 50,
        "walker found too few files: {}",
        files.len()
    );
    let findings = check_sources(&files);
    assert!(
        findings.is_empty(),
        "workspace has unwaived findings:\n{}",
        findings
            .iter()
            .map(|f| format!("{}:{}: {}: {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
