//! The `epi3` binary behind a pipe whose reader hangs up early
//! (`epi3 scan FILE --top 5000 | head -1`): the write that hits the closed
//! pipe must end the command quietly, not panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_exits_quietly() {
    let dir = std::env::temp_dir().join("epi3_cli_pipe_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("pipe-{}.epi3", std::process::id()));
    let epi3 = env!("CARGO_BIN_EXE_epi3");
    let gen = Command::new(epi3)
        .args(["gen", "--snps", "60", "--samples", "64", "--out"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(gen.status.success(), "{gen:?}");

    // C(60, 3) = 34 220 candidate lines, far more than a pipe buffers, so
    // the scan is still writing when its reader goes away
    let mut child = Command::new(epi3)
        .arg("scan")
        .arg(&path)
        .args(["--top", "30000", "--threads", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.contains("combinations"), "{first:?}");
    drop(stdout);

    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    let _ = std::fs::remove_file(path);
}
