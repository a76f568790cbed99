//! A minimal HTTP/1.1 keep-alive client: one request in flight, responses
//! framed by `Content-Length`, reconnecting whenever the server answers
//! `Connection: close` (the daemon closes every connection at its 1,000th
//! request).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest the client waits on a read before the request counts as failed.
pub const READ_TIMEOUT: Duration = Duration::from_secs(20);

pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    request: Vec<u8>,
    buf: Vec<u8>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            request: Vec::with_capacity(4096),
            buf: Vec::with_capacity(8192),
        }
    }

    /// Send one request and read its response; the body lands in `body`.
    /// Returns the status code. On an I/O error the connection is dropped,
    /// so the next call starts on a fresh one.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        payload: &str,
        body: &mut Vec<u8>,
    ) -> io::Result<u16> {
        let result = self
            .write_request(method, path, payload)
            .and_then(|()| self.read_response(body));
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    /// Write one request in a single `write_all`, connecting first if
    /// needed. Several writes before the reads pipeline the requests.
    pub fn write_request(&mut self, method: &str, path: &str, payload: &str) -> io::Result<()> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(READ_TIMEOUT))?;
            self.stream = Some(s);
            self.buf.clear();
        }
        let stream = self.stream.as_mut().expect("connected above");
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            payload.len()
        )?;
        self.request.extend_from_slice(payload.as_bytes());
        stream.write_all(&self.request)
    }

    /// Read one `Content-Length`-framed response; the body lands in `body`.
    pub fn read_response(&mut self, body: &mut Vec<u8>) -> io::Result<u16> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| invalid("no connection to read from"))?;
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            fill(stream, &mut self.buf)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("response head is not UTF-8"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("no status code"))?;
        let mut len = None;
        let mut close = false;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.trim().parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let len = len.ok_or_else(|| invalid("no Content-Length"))?;
        while self.buf.len() < head_end + len {
            fill(stream, &mut self.buf)?;
        }
        body.clear();
        body.extend_from_slice(&self.buf[head_end..head_end + len]);
        self.buf.drain(..head_end + len);
        if close {
            self.stream = None;
        }
        Ok(status)
    }
}

fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 16 * 1024];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed mid-response",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Read one plaintext `/metrics` value (`name value` lines).
pub fn metric(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        if k == name {
            v.trim().parse().ok()
        } else {
            None
        }
    })
}
