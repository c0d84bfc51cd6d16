//! A paper bin whose reader closes the pipe early (`table2_stats | head -1`)
//! must end cleanly: status 0 and no panic message.

use std::process::{Command, Stdio};

#[test]
fn table2_stats_exits_cleanly_when_its_reader_is_gone() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_table2_stats"))
        .args(["--scale", "tiny"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run table2_stats");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}
