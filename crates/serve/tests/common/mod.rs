//! Shared helpers for the serve integration suites: a tiny HTTP client,
//! response splitting, and the path to the compiled `rat` binary.

// Each integration-test binary includes this module and uses a subset of it.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use rat_core::telemetry::json::{self, Json};

/// Connect to the server with a generous read timeout.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s
}

/// Send one raw HTTP request and return one full framed response. The read
/// is framed by `Content-Length`, not by connection close, so it works
/// whether the server keeps the connection alive or closes it.
pub fn send_raw(addr: SocketAddr, raw: &str) -> String {
    let mut s = connect(addr);
    s.write_all(raw.as_bytes()).expect("write request");
    read_response(&mut s)
}

/// Read exactly one HTTP response off `s`: headers up to the blank line,
/// then a `Content-Length`-framed body. Panics on EOF before a full
/// response. Reads the head one byte at a time and the body with
/// `read_exact`, so it never consumes bytes of a pipelined next response —
/// that makes it safe to call repeatedly on one kept-alive connection. A
/// read interrupted before any byte arrives (`EINTR`, which a socket with a
/// read timeout returns instead of restarting) is retried, as `read_exact`
/// retries it for the body.
pub fn read_response(s: &mut TcpStream) -> String {
    let mut buf: Vec<u8> = Vec::new();
    while !buf.ends_with(b"\r\n\r\n") {
        let mut byte = [0u8; 1];
        let n = match s.read(&mut byte) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            read => read.expect("read response"),
        };
        assert!(
            n > 0,
            "connection closed before response head: {:?}",
            String::from_utf8_lossy(&buf)
        );
        buf.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&buf).to_string();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().expect("content-length"))
        })
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    s.read_exact(&mut body).expect("read body");
    buf.extend_from_slice(&body);
    String::from_utf8_lossy(&buf).to_string()
}

/// POST `body` to `path` on a fresh connection that asks the server to
/// close afterwards, returning `(status, body)` with headers stripped.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    split_response(&send_raw(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    ))
}

/// GET `path` on a fresh close-per-request connection, returning
/// `(status, body)`.
pub fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    split_response(&send_raw(
        addr,
        &format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n"),
    ))
}

/// Split a raw HTTP response into status code and body.
pub fn split_response(raw: &str) -> (u16, String) {
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Parse a success envelope and return its `report` field.
pub fn report_of(body: &str) -> String {
    let doc = json::parse(body).unwrap_or_else(|e| panic!("bad JSON {e}: {body}"));
    doc.get("report")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no report field: {body}"))
        .to_string()
}

/// Parse an error envelope and return `(error, caused_by)`.
pub fn error_of(body: &str) -> (String, Vec<String>) {
    let doc = json::parse(body).unwrap_or_else(|e| panic!("bad JSON {e}: {body}"));
    let error = doc
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no error field: {body}"))
        .to_string();
    let causes = doc
        .get("caused_by")
        .and_then(Json::as_array)
        .map(|a| {
            a.iter()
                .map(|c| c.as_str().expect("string cause").to_string())
                .collect()
        })
        .unwrap_or_default();
    (error, causes)
}

/// One metric's value out of the plaintext `/metrics` body.
pub fn metric_value(metrics_body: &str, name: &str) -> Option<u64> {
    metrics_body.lines().find_map(|l| {
        l.strip_prefix(name)
            .and_then(|rest| rest.trim().parse().ok())
    })
}

/// The compiled `rat` binary, relative to this test binary
/// (`target/<profile>/deps/...`).
pub fn rat_binary() -> PathBuf {
    let mut p = std::env::current_exe().expect("test binary path");
    p.pop(); // deps/
    p.pop(); // <profile>/
    p.push(format!("rat{}", std::env::consts::EXE_SUFFIX));
    p
}
