//! The CLIs on bad input: every unreadable, malformed or structurally
//! invalid trace file given to `tracegen run` is reported as
//! `<file>: <reason>`, and a zero `--cores` or `--scale` given to
//! `paper` or `tracegen` as `--<flag> 0: <reason>`, each with exit
//! status 2, never a panic.

use std::path::PathBuf;
use std::process::Command;

/// Write `text` to a per-test file under the system temp directory.
fn trace_file(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tracegen-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, text).expect("write temp trace");
    path
}

/// Run `tracegen run <path>`; return (exit code, stderr).
fn run(path: &std::path::Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tracegen"))
        .arg("run")
        .arg(path)
        .output()
        .expect("spawn tracegen");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_rejected(path: &std::path::Path, reason: &str) {
    let (code, stderr) = run(path);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    let want = format!("{}: ", path.display());
    assert!(
        stderr.starts_with(&want) && stderr.contains(reason),
        "expected `{want}...{reason}...`, got: {stderr}"
    );
}

#[test]
fn missing_file_is_reported() {
    let path = std::env::temp_dir().join("tracegen-cli-no-such-file.json");
    assert_rejected(&path, "cannot read");
}

#[test]
fn malformed_json_is_reported() {
    let path = trace_file(
        "truncated.json",
        r#"{"name": "t", "threads": [[{"Read": {"addr": 0"#,
    );
    assert_rejected(&path, "not a valid trace");
    std::fs::remove_file(path).ok();
}

#[test]
fn structurally_invalid_trace_is_reported() {
    // Parses fine, but thread 0 ends holding lock 0.
    let path = trace_file(
        "unbalanced.json",
        r#"{"name": "t", "threads": [[{"Acquire": {"lock": 0}}]], "n_locks": 1,
            "n_barriers": 0, "shared_base": 0, "shared_end": 64}"#,
    );
    assert_rejected(&path, "malformed program: thread 0 ends holding 1 lock(s)");
    std::fs::remove_file(path).ok();
}

#[test]
fn valid_trace_runs() {
    let path = trace_file(
        "valid.json",
        r#"{"name": "t", "threads": [[{"Write": {"addr": 0, "len": 8}}],
            [{"Read": {"addr": 0, "len": 8}}]], "n_locks": 0,
            "n_barriers": 0, "shared_base": 0, "shared_end": 64}"#,
    );
    let (code, stderr) = run(&path);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    std::fs::remove_file(path).ok();
}

/// Run `bin` with the whitespace-separated `args` (in the temp
/// directory, so a stray `--out` lands there) and assert it refuses
/// them: exit status 2, the `want` message on stderr and no panic.
fn assert_refused(bin: &str, args: &str, want: &str) {
    let out = Command::new(bin)
        .args(args.split_whitespace())
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "`{args}`: stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "`{args}` panicked: {stderr}");
    assert!(stderr.starts_with(want), "`{args}`: got: {stderr}");
}

const PAPER: &str = env!("CARGO_BIN_EXE_paper");
const TRACEGEN: &str = env!("CARGO_BIN_EXE_tracegen");

#[test]
fn zero_scale_is_refused() {
    for (bin, args) in [
        (PAPER, "report racy_pair CE --scale 0"),
        (PAPER, "table2 --scale 0 --out scale0"),
        (TRACEGEN, "info canneal --scale 0"),
        (TRACEGEN, "dump canneal --scale 0 --out scale0.json"),
    ] {
        assert_refused(bin, args, "--scale 0: ");
    }
}

#[test]
fn zero_cores_is_refused() {
    for (bin, args) in [
        (PAPER, "report racy_pair CE --cores 0"),
        (TRACEGEN, "info canneal --cores 0"),
        (TRACEGEN, "dump canneal --cores 0 --out cores0.json"),
    ] {
        assert_refused(bin, args, "--cores 0: ");
    }
}
