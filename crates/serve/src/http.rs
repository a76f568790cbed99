//! Minimal, strict HTTP/1.1 framing over a [`TcpStream`], with persistent
//! connections.
//!
//! A [`Connection`] wraps the socket plus a carry-over read buffer, so bytes
//! a client pipelined behind one request are the prefix of the next instead
//! of being lost. Requests default to keep-alive under HTTP/1.1 (honoring a
//! `Connection: close`/`keep-alive` override, case-insensitively) and to
//! close for HTTP/1.0 or unrecognizable version tokens. The reader stays
//! deliberately paranoid: per-request read deadlines, a header-size cap, and
//! a body-size cap, mapping each failure onto the [`ApiError`] protocol
//! statuses (408/413/400) so a misbehaving client gets a diagnosis instead
//! of killing a worker. No chunked encoding — `Content-Length` framing only.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::api::ApiError;

/// Cap on the request line + headers, generous for hand-written clients.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Cap on request bodies (413 beyond it). Worksheets are a few hundred
/// bytes; a megabyte leaves room for large sweep-value lists without
/// letting a client buffer gigabytes into a resident service.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, path, (possibly empty) body, and whether the
/// client wants the connection kept open afterwards.
#[derive(Debug, Clone)]
pub struct Request {
    /// The HTTP method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// The request path (`/v1/solve`, `/metrics`, ...), query string stripped.
    pub path: String,
    /// The request body, UTF-8 decoded.
    pub body: String,
    /// Whether the connection should persist after this request: HTTP/1.1
    /// defaults to yes, HTTP/1.0 (or garbage versions) to no, and a
    /// `Connection:` header overrides either way.
    pub keep_alive: bool,
}

/// Why a read produced no request.
#[derive(Debug)]
pub enum ReadError {
    /// The connection went quiet between requests — the client closed it or
    /// the idle deadline passed before a first byte arrived. Close silently;
    /// nothing was promised and nothing is owed.
    Idle,
    /// A request was underway (or required) and went wrong; answer with the
    /// mapped status, then close.
    Protocol(ApiError),
}

/// A socket plus the bytes read past the end of the previous request.
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
    /// The read timeout last set on `stream`. A `setsockopt` costs as much
    /// as parsing a small request, so it is made only when a read needs a
    /// different deadline from this one.
    read_timeout: Option<Duration>,
}

impl Connection {
    /// Wrap an accepted stream.
    pub fn new(stream: TcpStream) -> Self {
        Connection {
            stream,
            buf: Vec::new(),
            read_timeout: None,
        }
    }

    /// The underlying stream, for writing responses.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Read one request. `wait` bounds how long to sit for the *first* byte
    /// (when no pipelined bytes are already buffered); `request_timeout`
    /// bounds each subsequent read of the same request. With `idle_wait`
    /// set (a kept-alive connection between requests), first-byte timeout
    /// or clean EOF is [`ReadError::Idle`]; without it (a fresh connection
    /// that owes us a request), the same conditions are protocol errors —
    /// 408 and 400 respectively — exactly as the one-shot parser behaved.
    ///
    /// On success, the returned [`Instant`] is when the request's first
    /// byte was seen, the honest start point for latency accounting on a
    /// connection that may have idled between requests.
    ///
    /// Each deadline is set just before a read that needs it, and only if
    /// the socket holds a different one, so a kept-alive client whose
    /// requests each arrive in one segment costs no `setsockopt` after the
    /// first: the socket stays at `wait`.
    pub fn read_request(
        &mut self,
        wait: Duration,
        request_timeout: Duration,
        max_body: usize,
        idle_wait: bool,
    ) -> Result<(Request, Instant), ReadError> {
        let bad = |what: &str, why: String| ReadError::Protocol(ApiError::bad_request(what, why));

        // Phase A: acquire at least one byte of this request.
        if self.buf.is_empty() {
            self.set_timeout(wait)?;
            let mut chunk = [0u8; 4096];
            match read_restarting(&mut self.stream, &mut chunk) {
                Ok(0) => {
                    return Err(if idle_wait {
                        ReadError::Idle
                    } else {
                        bad(
                            "reading request",
                            "connection closed before headers completed".into(),
                        )
                    })
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) => {
                    return Err(if idle_wait {
                        ReadError::Idle
                    } else {
                        ReadError::Protocol(ApiError::Timeout)
                    })
                }
                Err(e) => return Err(bad("reading request", e.to_string())),
            }
        }
        let started = Instant::now();

        // Phase B: the request is underway; the per-request deadline
        // governs every read from here on.

        // Scan (and grow) the buffer until the blank line ending the headers,
        // each scan resuming where the last one stopped.
        let mut scanned = 0;
        let head_end = loop {
            if let Some(end) = find_head_end(&self.buf, scanned) {
                break end;
            }
            scanned = self.buf.len();
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(ReadError::Protocol(ApiError::TooLarge {
                    limit: MAX_HEAD_BYTES,
                }));
            }
            self.set_timeout(request_timeout)?;
            let mut chunk = [0u8; 4096];
            match read_restarting(&mut self.stream, &mut chunk) {
                Ok(0) => {
                    return Err(bad(
                        "reading request",
                        "connection closed before headers completed".into(),
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) => return Err(ReadError::Protocol(ApiError::Timeout)),
                Err(e) => return Err(bad("reading request", e.to_string())),
            }
        };

        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        self.buf.drain(..head_end);

        let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| bad("reading request", "empty request line".into()))?
            .to_ascii_uppercase();
        let target = parts
            .next()
            .ok_or_else(|| bad("reading request", "request line has no path".into()))?;
        let path = target.split('?').next().unwrap_or(target).to_string();
        // HTTP/1.1 persists by default; 1.0 and unrecognizable versions do
        // not (a client that can't speak 1.1 can't be assumed to frame
        // responses without EOF).
        let mut keep_alive = parts.next() == Some("HTTP/1.1");

        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        bad(
                            "reading request",
                            format!("unparsable Content-Length '{}'", value.trim()),
                        )
                    })?;
                } else if name.eq_ignore_ascii_case("connection") {
                    let value = value.trim();
                    if value.eq_ignore_ascii_case("close") {
                        keep_alive = false;
                    } else if value.eq_ignore_ascii_case("keep-alive") {
                        keep_alive = true;
                    }
                }
            }
        }
        if content_length > max_body {
            return Err(ReadError::Protocol(ApiError::TooLarge { limit: max_body }));
        }

        // Body: drain buffered bytes first, then the socket.
        let take = content_length.min(self.buf.len());
        let mut body = Vec::with_capacity(content_length);
        body.extend_from_slice(&self.buf[..take]);
        self.buf.drain(..take);
        let mut read = body.len();
        body.resize(content_length, 0);
        while read < content_length {
            self.set_timeout(request_timeout)?;
            match read_restarting(&mut self.stream, &mut body[read..]) {
                Ok(0) => {
                    return Err(bad(
                        "reading request body",
                        format!("client disconnected after {read} of {content_length} bytes"),
                    ))
                }
                Ok(n) => read += n,
                Err(e) if is_timeout(&e) => return Err(ReadError::Protocol(ApiError::Timeout)),
                Err(e) => return Err(bad("reading request body", e.to_string())),
            }
        }
        let body = String::from_utf8(body).map_err(|_| {
            bad(
                "reading request body",
                "body is not valid UTF-8".to_string(),
            )
        })?;

        Ok((
            Request {
                method,
                path,
                body,
                keep_alive,
            },
            started,
        ))
    }

    /// Give the socket read timeout `t`, unless it already has it.
    fn set_timeout(&mut self, t: Duration) -> Result<(), ReadError> {
        if self.read_timeout == Some(t) {
            return Ok(());
        }
        self.stream.set_read_timeout(Some(t)).map_err(|e| {
            ReadError::Protocol(ApiError::bad_request(
                "configuring connection",
                e.to_string(),
            ))
        })?;
        self.read_timeout = Some(t);
        Ok(())
    }
}

/// One `read`, restarted on `EINTR`: a socket with a read timeout returns
/// `Interrupted` instead of restarting when the process is stopped and
/// resumed (a cgroup freeze, SIGSTOP then SIGCONT), which is no fault of the
/// client's.
fn read_restarting(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match r.read(buf) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            read => return read,
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::WouldBlock || e.kind() == std::io::ErrorKind::TimedOut
}

/// Index one past the first blank line ending the headers, if present,
/// checking only the ends past `scanned`: a caller that found none in
/// `buf[..scanned]` resumes there once more bytes arrive. Each check looks
/// back at most four bytes, so a terminator split across two reads is still
/// found, and a head trickled in a byte at a time costs one pass.
fn find_head_end(buf: &[u8], scanned: usize) -> Option<usize> {
    (scanned + 1..=buf.len())
        .find(|&end| buf[..end].ends_with(b"\r\n\r\n") || buf[..end].ends_with(b"\n\n"))
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete response and flush, advertising whether the connection
/// stays open. Head and body go out in one `write_all` of one buffer: one
/// syscall and, on a `TCP_NODELAY` socket, one segment for a small response.
/// Errors are returned so the caller can count them, but a failed write to
/// a gone client is not fatal.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // The fixed head text plus the longest reason phrase and a 20-digit
    // length fit in 128 bytes.
    let mut out = Vec::with_capacity(128 + content_type.len() + body.len());
    write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason(status),
        body.len(),
    )?;
    out.extend_from_slice(body.as_bytes());
    stream.write_all(&out)?;
    stream.flush()
}

/// Write a JSON response (`application/json`).
pub fn write_json(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response(stream, status, "application/json", body, keep_alive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Feed `raw` to a fresh connection and read the first request with
    /// first-request semantics (no idle grace).
    fn round_trip(raw: &[u8]) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            // Hold the socket open so the server side sees a timeout (not
            // EOF) if it expects more bytes than were sent.
            std::thread::sleep(Duration::from_millis(300));
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Connection::new(stream);
        let req = conn
            .read_request(
                Duration::from_millis(150),
                Duration::from_millis(150),
                MAX_BODY_BYTES,
                false,
            )
            .map(|(req, _)| req);
        client.join().unwrap();
        req
    }

    fn status_of(err: ReadError) -> u16 {
        match err {
            ReadError::Idle => panic!("expected a protocol error, got Idle"),
            ReadError::Protocol(e) => e.status(),
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = round_trip(b"POST /v1/solve HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/solve");
        assert_eq!(req.body, "abcd");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_get_without_body_and_strips_query() {
        let req = round_trip(b"GET /metrics?x=1 HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.body, "");
    }

    #[test]
    fn connection_header_overrides_the_version_default() {
        let req = round_trip(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(!req.keep_alive, "Connection: close wins over HTTP/1.1");
        let req = round_trip(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(req.keep_alive, "Connection: keep-alive wins over HTTP/1.0");
        let req = round_trip(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
        let req = round_trip(b"GET /\r\n\r\n").unwrap();
        assert!(
            !req.keep_alive,
            "versionless request lines default to close"
        );
    }

    #[test]
    fn pipelined_bytes_become_the_next_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Two complete requests in one write.
            s.write_all(
                b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nonePOST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\ntwo",
            )
            .unwrap();
            std::thread::sleep(Duration::from_millis(200));
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Connection::new(stream);
        let wait = Duration::from_millis(150);
        let (first, _) = conn
            .read_request(wait, wait, MAX_BODY_BYTES, false)
            .unwrap();
        assert_eq!((first.path.as_str(), first.body.as_str()), ("/a", "one"));
        let (second, _) = conn.read_request(wait, wait, MAX_BODY_BYTES, true).unwrap();
        assert_eq!((second.path.as_str(), second.body.as_str()), ("/b", "two"));
        client.join().unwrap();
    }

    #[test]
    fn idle_wait_timeout_is_idle_not_408() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let _s = TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(250));
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Connection::new(stream);
        let wait = Duration::from_millis(60);
        match conn.read_request(wait, wait, MAX_BODY_BYTES, true) {
            Err(ReadError::Idle) => {}
            other => panic!("idle keep-alive wait should be Idle, got {other:?}"),
        }
        // The same silence on a fresh connection is a 408.
        match conn.read_request(wait, wait, MAX_BODY_BYTES, false) {
            Err(ReadError::Protocol(e)) => assert_eq!(e.status(), 408),
            other => panic!("fresh-connection silence should be 408, got {other:?}"),
        }
        client.join().unwrap();
    }

    #[test]
    fn buffered_requests_keep_the_idle_timeout_and_a_stall_still_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let requests = 8;
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut reply = [0u8; 256];
            // One request per segment, each sent once the last is answered.
            for _ in 0..requests {
                s.write_all(b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\none")
                    .unwrap();
                let _ = s.read(&mut reply).unwrap();
            }
            // Then a head whose body stalls past the request deadline.
            s.write_all(b"POST /b HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf")
                .unwrap();
            std::thread::sleep(Duration::from_millis(400));
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Connection::new(stream);
        let (idle, request) = (Duration::from_secs(5), Duration::from_millis(150));
        for i in 0..requests {
            let (req, _) = conn
                .read_request(idle, request, MAX_BODY_BYTES, i > 0)
                .unwrap();
            assert_eq!(req.body, "one");
            assert_eq!(
                conn.stream.read_timeout().unwrap(),
                Some(idle),
                "request {i}"
            );
            write_response(conn.stream(), 200, "text/plain", "ok", true).unwrap();
        }
        match conn.read_request(idle, request, MAX_BODY_BYTES, true) {
            Err(ReadError::Protocol(e)) => assert_eq!(e.status(), 408),
            other => panic!("a stalled body should be 408, got {other:?}"),
        }
        // The stalled read ran under the request deadline (the kernel
        // rounds what it stores to its tick).
        assert_eq!(conn.read_timeout, Some(request));
        assert_ne!(conn.stream.read_timeout().unwrap(), Some(idle));
        client.join().unwrap();
    }

    #[test]
    fn a_head_split_at_any_byte_reads_as_the_same_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let wait = Duration::from_secs(5);
        for raw in [
            &b"POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd"[..],
            b"POST /a HTTP/1.0\nContent-Length: 4\n\nabcd",
        ] {
            let whole = round_trip(raw).unwrap();
            for split in 1..raw.len() {
                // The first part is already read and buffered, so the
                // second read brings the rest: at the terminator's splits,
                // the blank line spans the two.
                let rest = raw[split..].to_vec();
                let client = std::thread::spawn(move || {
                    let mut s = TcpStream::connect(addr).unwrap();
                    s.write_all(&rest).unwrap();
                    s
                });
                let (stream, _) = listener.accept().unwrap();
                let mut conn = Connection::new(stream);
                conn.buf.extend_from_slice(&raw[..split]);
                let (req, _) = conn
                    .read_request(wait, wait, MAX_BODY_BYTES, false)
                    .unwrap_or_else(|e| panic!("split at {split}: {e:?}"));
                assert_eq!(
                    (&req.method, &req.path, &req.body, req.keep_alive),
                    (&whole.method, &whole.path, &whole.body, whole.keep_alive),
                    "split at {split}"
                );
                assert!(conn.buf.is_empty(), "split at {split}");
                drop(client.join().unwrap());
            }
        }
    }

    #[test]
    fn short_body_times_out_instead_of_hanging() {
        let err = round_trip(b"POST /v1/solve HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-some")
            .unwrap_err();
        assert_eq!(status_of(err), 408);
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let err = round_trip(b"POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n").unwrap_err();
        assert_eq!(status_of(err), 413);
    }

    #[test]
    fn garbage_content_length_is_400() {
        let err = round_trip(b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n").unwrap_err();
        assert_eq!(status_of(err), 400);
    }

    #[test]
    fn interrupted_reads_are_restarted() {
        use std::io::ErrorKind::{ConnectionReset, Interrupted};
        /// Fails its first read with the given error, then yields its bytes.
        struct Flaky<'a>(Option<std::io::ErrorKind>, &'a [u8]);
        impl Read for Flaky<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.0.take() {
                    Some(kind) => Err(kind.into()),
                    None => self.1.read(buf),
                }
            }
        }
        let mut buf = [0u8; 16];
        let n = read_restarting(&mut Flaky(Some(Interrupted), b"GET /"), &mut buf).unwrap();
        assert_eq!(&buf[..n], b"GET /");
        let err = read_restarting(&mut Flaky(Some(ConnectionReset), b"GET /"), &mut buf);
        assert_eq!(err.unwrap_err().kind(), ConnectionReset);
    }

    #[test]
    fn a_response_is_its_exact_head_and_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        write_json(&mut server, 200, "{\"ok\": true}", true).unwrap();
        write_response(
            &mut server,
            503,
            "text/plain; charset=utf-8",
            "busy\n",
            false,
        )
        .unwrap();
        drop(server);
        let mut got = String::new();
        client.read_to_string(&mut got).unwrap();
        assert_eq!(
            got,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\
             Connection: keep-alive\r\n\r\n{\"ok\": true}\
             HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: 5\r\nConnection: close\r\n\r\nbusy\n"
        );
    }

    #[test]
    fn reason_phrases_cover_the_status_table() {
        for s in crate::metrics::STATUSES {
            assert_ne!(reason(s), "Unknown", "status {s}");
        }
    }
}
