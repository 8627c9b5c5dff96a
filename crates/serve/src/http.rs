//! A deliberately small HTTP/1.1 layer: enough for `POST /check` with
//! JSON bodies, keep-alive, and bounded request sizes — no chunked
//! encoding, no TLS, no multipart. Hand-rolled on `std::net` so the
//! daemon stays inside the workspace's zero-dependency budget.

use std::io::{self, BufRead, Read, Write};

/// Ceiling on the request line plus all headers, combined. Anything
/// larger is malformed by fiat (real requests are a few hundred bytes).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request head plus its body.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Uppercased method (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string included, verbatim.
    pub path: String,
    /// The request body (empty when no `Content-Length`).
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection (or the server is draining) before
    /// a request line arrived — the normal end of a keep-alive session.
    Closed,
    /// The bytes on the wire are not an HTTP request we understand.
    Malformed(String),
    /// `Content-Length` exceeds the configured body cap. The body has
    /// NOT been consumed; the connection must be closed.
    TooLarge(usize),
    /// The socket failed mid-read.
    Io(io::Error),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads one request off `reader`. Blocks until a full request (or EOF)
/// arrives; the caller bounds patience via socket timeouts. The head is
/// read through a [`MAX_HEAD_BYTES`] budget, so a peer that never sends
/// a newline costs at most that much memory before it gets a 400.
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<HttpRequest, ReadError> {
    let mut budget = MAX_HEAD_BYTES;
    let Some(line) = read_head_line(reader, &mut budget)? else {
        return Err(ReadError::Closed);
    };
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request line".to_string()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("request line missing path".to_string()))?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("unsupported protocol {version:?}")));
    }

    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; `Connection: close` opts out.
    let mut keep_alive = true;
    loop {
        let Some(header) = read_head_line(reader, &mut budget)? else {
            return Err(ReadError::Malformed("connection closed mid-headers".to_string()));
        };
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ReadError::Malformed(format!("header without colon: {header:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| ReadError::Malformed(format!("bad content-length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }

    if content_length > max_body {
        return Err(ReadError::TooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| ReadError::Malformed("body is not UTF-8".to_string()))?;

    Ok(HttpRequest { method, path, body, keep_alive })
}

/// Reads one head line, newline included, and charges it to `budget`.
/// Reads at most one byte past the budget, so an unterminated flood is
/// cut off there. `None` means EOF before any byte.
fn read_head_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
) -> Result<Option<String>, ReadError> {
    let mut line = Vec::new();
    let read = Read::take(&mut *reader, *budget as u64 + 1).read_until(b'\n', &mut line)?;
    if read == 0 {
        return Ok(None);
    }
    *budget = budget
        .checked_sub(read)
        .ok_or_else(|| ReadError::Malformed("request head exceeds 16 KiB".to_string()))?;
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| ReadError::Malformed("request head is not UTF-8".to_string()))
}

/// The standard reason phrase for the statuses the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete response (status line, headers, JSON body) with
/// a single `write_all`, assembled in `buf` (cleared first, so a
/// connection can reuse one buffer for every response). One write means
/// one segment train: with Nagle off, a split head and body would go out
/// as separate small segments, and with it on, the body would wait for
/// the peer's delayed ACK of the head.
pub fn write_response(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    buf.clear();
    write!(
        buf,
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: {connection}\r\n\r\n",
        reason(status),
        body.len(),
    )?;
    buf.extend_from_slice(body.as_bytes());
    w.write_all(buf)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read(raw: &str, max_body: usize) -> Result<HttpRequest, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()), max_body)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = read("POST /check HTTP/1.1\r\ncontent-length: 4\r\n\r\n{{}}", 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/check");
        assert_eq!(req.body, "{{}}");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_is_honored() {
        let req = read("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 1024).unwrap();
        assert!(!req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn eof_before_request_line_is_closed() {
        assert!(matches!(read("", 1024), Err(ReadError::Closed)));
    }

    #[test]
    fn garbage_is_malformed() {
        assert!(matches!(read("NOT AN HTTP LINE\r\n\r\n", 1024), Err(ReadError::Malformed(_))));
        assert!(matches!(
            read("POST /check HTTP/1.1\r\ncontent-length: nope\r\n\r\n", 1024),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            read("POST /check HTTP/1.1\r\nno-colon-here\r\n\r\n", 1024),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_bodies_are_rejected_unread() {
        match read("POST /check HTTP/1.1\r\ncontent-length: 999\r\n\r\n", 16) {
            Err(ReadError::TooLarge(999)) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_header_block_is_malformed() {
        let huge = format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(read(&huge, 1024), Err(ReadError::Malformed(_))));
        // A flood with no newline is cut off at the cap, not read whole.
        let mut flood = std::io::Cursor::new(vec![b'a'; 1 << 20]);
        let mut reader = BufReader::new(&mut flood);
        assert!(matches!(read_request(&mut reader, 1024), Err(ReadError::Malformed(_))));
        assert!(flood.position() < 2 * MAX_HEAD_BYTES as u64, "read past the head cap");
    }

    #[test]
    fn non_utf8_head_is_malformed() {
        let raw: &[u8] = b"GET /\xff HTTP/1.1\r\n\r\n";
        assert!(matches!(
            read_request(&mut BufReader::new(raw), 1024),
            Err(ReadError::Malformed(_))
        ));
    }

    /// A `Write` that accepts everything and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_call() {
        let mut buf = Vec::new();
        for body in ["{\"ok\":true}", &"x".repeat(64 * 1024)] {
            let mut out = CountingWriter::default();
            write_response(&mut out, &mut buf, 200, body, true).unwrap();
            assert_eq!(out.writes, 1);
            assert!(out.bytes.ends_with(body.as_bytes()));
        }
    }

    #[test]
    fn responses_round_trip_through_the_parser() {
        let mut out = Vec::new();
        write_response(&mut out, &mut Vec::new(), 200, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }
}
