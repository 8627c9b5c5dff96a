//! The load generator's HTTP/1.1 client: pre-encoded requests, one
//! `write_all` per request, and the response read with its first byte
//! timed apart from the rest. Speaks the same wire as
//! `ppchecker_serve::Client`, which cannot expose time-to-first-byte.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Encodes `POST /check` with `body`, asking to keep the connection
/// open or, with `close`, to close it after the response.
pub fn check_request(body: &str, close: bool) -> Vec<u8> {
    let connection = if close { "connection: close\r\n" } else { "" };
    let mut out = format!(
        "POST /check HTTP/1.1\r\nhost: ppchecker\r\n{connection}content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// One response as the client saw it.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
    /// When the first response byte arrived.
    pub first_byte: Instant,
    /// When the last body byte arrived.
    pub done: Instant,
}

/// Reads one `Content-Length` response off `reader`.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    if reader.fill_buf()?.is_empty() {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"));
    }
    let first_byte = Instant::now();
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(Response { status, body, first_byte, done: Instant::now() })
}

/// A keep-alive connection.
pub struct KeepAlive {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl KeepAlive {
    /// Connects with Nagle off, like `ppchecker_serve::Client`.
    pub fn connect(addr: SocketAddr) -> io::Result<KeepAlive> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(KeepAlive { writer, reader })
    }

    /// Sends one pre-encoded request and reads its response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Response> {
        self.writer.write_all(request)?;
        read_response(&mut self.reader)
    }
}

/// Opens a fresh connection, sends one pre-encoded `connection: close`
/// request and reads the response.
pub fn one_shot(addr: SocketAddr, request: &[u8]) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(request)?;
    read_response(&mut BufReader::new(stream))
}

/// Sends `GET /metrics` on a fresh connection and returns the body.
pub fn scrape_metrics(addr: SocketAddr) -> io::Result<String> {
    let request = b"GET /metrics HTTP/1.1\r\nhost: ppchecker\r\nconnection: close\r\n\r\n";
    let response = one_shot(addr, request)?;
    String::from_utf8(response.body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 metrics"))
}
