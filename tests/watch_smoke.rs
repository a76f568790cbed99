//! End-to-end smoke test of `rat watch`: touch the worksheet while the
//! watcher polls, and check that exactly one re-render happens, that its
//! stderr status line shows the comm stage *hitting* (the re-parse produced
//! identical typed inputs, so no stage's inputs changed since the previous
//! render), and that stdout is byte-identical to two copies of `rat analyze`
//! output.
//!
//! Spawns the real binary: watch is an interactive loop around the solve
//! path, and its stdout/stderr contract is exactly what a user sees.

use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

fn rat_binary() -> PathBuf {
    let mut p = std::env::current_exe().expect("test binary path");
    p.pop(); // deps/
    p.pop(); // <profile>/
    p.push(format!("rat{}", std::env::consts::EXE_SUFFIX));
    p
}

fn worksheet(name: &str) -> String {
    format!("{}/worksheets/{name}.toml", env!("CARGO_MANIFEST_DIR"))
}

/// A scratch path under the temp dir (kept out of the repo tree).
fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rat-watch-{}-{name}", std::process::id()));
    p
}

#[test]
fn watch_rerenders_once_on_touch_with_every_stage_hit() {
    // Copy the worksheet to a scratch path the test may mutate.
    let ws = scratch("pdf1d.toml");
    std::fs::copy(worksheet("pdf1d"), &ws).expect("copy worksheet");

    // The watcher exits after the second render; the toucher appends a
    // comment (a content change that parses to identical typed inputs)
    // until the watcher notices and exits.
    let mut child = Command::new(rat_binary())
        .args(["watch", ws.to_str().expect("utf-8 path")])
        .args(["--poll-ms", "25", "--max-renders", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawning the rat binary (build it with `cargo build -p rat-cli`)");

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        match child.try_wait().expect("poll watcher") {
            Some(_) => break,
            None if std::time::Instant::now() > deadline => {
                child.kill().ok();
                panic!("watcher did not exit within 30s of worksheet touches");
            }
            None => {
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&ws)
                    .expect("open worksheet for append");
                writeln!(f, "# touched").expect("append touch comment");
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    }
    let out = child.wait_with_output().expect("collect watcher output");
    std::fs::remove_file(&ws).ok();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "watch failed: {stderr}");

    // Exactly two renders: the immediate first one and one re-render.
    assert_eq!(
        stderr.matches("watch[").count(),
        2,
        "expected exactly two renders:\n{stderr}"
    );
    // Render 1 is all-miss (no previous render to compare against)...
    assert!(
        stderr.contains("watch[1]: stages comm=miss comp=miss overlap=miss speedup=miss"),
        "first render must miss every stage:\n{stderr}"
    );
    // ...and the re-render hits every stage: the appended comment changed
    // the bytes but not the typed inputs, so nothing was dirtied.
    assert!(
        stderr.contains("watch[2]: stages comm=hit comp=hit overlap=hit speedup=hit"),
        "re-render must hit the comm stage (and every other stage):\n{stderr}"
    );

    // stdout is exactly two copies of the analyze report. The repo worksheet
    // parses to the same typed inputs as the touched scratch copy, so the
    // rendered report is identical.
    let one = Command::new(rat_binary())
        .args(["analyze", &worksheet("pdf1d")])
        .output()
        .expect("analyze for comparison");
    assert!(one.status.success());
    let mut two = String::from_utf8_lossy(&one.stdout).into_owned();
    two.push_str(&String::from_utf8_lossy(&one.stdout));
    assert_eq!(
        stdout, two,
        "watch stdout must be two byte-identical copies of the analyze report"
    );
}
