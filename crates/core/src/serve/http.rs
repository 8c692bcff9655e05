//! A deliberately small HTTP/1.1 subset for [`stuc-serve`](super):
//! request parsing and deterministic response rendering over `std::net`
//! only — the container is offline, so no HTTP crate is an option, and the
//! golden protocol test wants byte-exact transcripts anyway.
//!
//! Supported shape: one request per connection (`Connection: close` on
//! every response), `GET`/`POST`, headers up to a fixed count, an optional
//! `Content-Length` body. Responses carry exactly four headers in a fixed
//! order and no date, so a transcript replays identically across runs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on header count per request — beyond this the request is
/// malformed (also the defence against unbounded header streams).
const MAX_HEADERS: usize = 64;

/// One parsed request: method, path, and the (possibly empty) body.
#[derive(Debug, Clone)]
pub struct Request {
    /// The HTTP method verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The request path verbatim (`/query`, `/health`, …).
    pub path: String,
    /// The body, decoded per `Content-Length` (empty when absent).
    pub body: String,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire are not the HTTP subset we speak.
    Malformed(String),
    /// The declared body exceeds the server's `max_body`.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The server's limit.
        limit: usize,
    },
    /// The socket failed (timeout included) before a full request arrived.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds limit {limit}")
            }
            HttpError::Io(error) => write!(f, "i/o while reading request: {error}"),
        }
    }
}

/// Reads one request from the stream (blocking, honouring the stream's
/// read timeout). `max_body` bounds the accepted `Content-Length`.
pub fn read_request(stream: &TcpStream, max_body: usize) -> Result<Request, HttpError> {
    stuc_fault::failpoint!("serve-read", |m| HttpError::Io(std::io::Error::other(m)));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(HttpError::Io)?;
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "request line {:?}",
                line.trim_end()
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("version {version:?}")));
    }

    let mut content_length = 0usize;
    for _ in 0..MAX_HEADERS {
        let mut header = String::new();
        reader.read_line(&mut header).map_err(HttpError::Io)?;
        let header = header.trim_end();
        if header.is_empty() {
            let mut body = vec![0u8; content_length];
            if content_length > 0 {
                reader.read_exact(&mut body).map_err(HttpError::Io)?;
            }
            let body = String::from_utf8(body)
                .map_err(|_| HttpError::Malformed("body is not UTF-8".into()))?;
            return Ok(Request { method, path, body });
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::Malformed(format!("header {header:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed(format!("content-length {value:?}")))?;
            if content_length > max_body {
                return Err(HttpError::BodyTooLarge {
                    declared: content_length,
                    limit: max_body,
                });
            }
        }
    }
    Err(HttpError::Malformed(format!(
        "more than {MAX_HEADERS} headers"
    )))
}

/// One response: status plus a body. Rendering is deterministic —
/// fixed header set, fixed order, no timestamps.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body.
    pub body: String,
    /// The `Content-Type` header value (`application/json` unless built
    /// with [`Response::text`]).
    pub content_type: &'static str,
    /// Optional `Retry-After` header in seconds, rendered only when set —
    /// load-shedding and overload responses carry it so clients can back
    /// off a sensible amount instead of guessing.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A response with the given status and JSON body.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            retry_after: None,
        }
    }

    /// A plain-text response (the Prometheus exposition format of
    /// `GET /metrics` is text, not JSON).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "text/plain; version=0.0.4",
            retry_after: None,
        }
    }

    /// Adds a `Retry-After` header (seconds). The value is a fixed small
    /// integer chosen by policy, so rendering stays deterministic.
    pub fn with_retry_after(mut self, seconds: u32) -> Response {
        self.retry_after = Some(seconds);
        self
    }

    /// A typed error body: `{"error":{"kind":…,"message":…}}`.
    pub fn error(status: u16, kind: &str, message: &str) -> Response {
        Response::json(
            status,
            format!(
                "{{\"error\":{{\"kind\":\"{}\",\"message\":\"{}\"}}}}",
                escape_json(kind),
                escape_json(message)
            ),
        )
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// The exact bytes on the wire. `Retry-After` renders between
    /// `Content-Length` and `Connection` only when set, so responses
    /// without it are byte-identical to earlier releases.
    pub fn to_bytes(&self) -> Vec<u8> {
        let retry_after = match self.retry_after {
            Some(seconds) => format!("Retry-After: {seconds}\r\n"),
            None => String::new(),
        };
        format!(
            "HTTP/1.1 {} {}\r\nServer: stuc-serve\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{}",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            retry_after,
            self.body
        )
        .into_bytes()
    }

    /// Writes the response (best-effort: a peer that hung up mid-write is
    /// its own problem, not the server's).
    pub fn write_to(&self, mut stream: impl Write) {
        stuc_fault::failpoint!("serve-write");
        let _ = stream.write_all(&self.to_bytes());
        let _ = stream.flush();
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(text: &str) -> String {
    let mut escaped = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\r' => escaped.push_str("\\r"),
            '\t' => escaped.push_str("\\t"),
            c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
            c => escaped.push(c),
        }
    }
    escaped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_render_deterministically() {
        let response = Response::error(503, "overload", "queue full");
        let bytes = response.to_bytes();
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Connection: close\r\n\r\n"));
        assert!(text.ends_with("{\"error\":{\"kind\":\"overload\",\"message\":\"queue full\"}}"));
        assert_eq!(bytes, response.to_bytes(), "rendering must be stable");
        // No Retry-After header unless explicitly set.
        assert!(!text.contains("Retry-After"));
    }

    #[test]
    fn retry_after_renders_only_when_set() {
        let shed = Response::error(503, "shed", "cost over ceiling").with_retry_after(1);
        let text = String::from_utf8(shed.to_bytes()).unwrap();
        assert!(
            text.contains("\r\nRetry-After: 1\r\nConnection: close\r\n"),
            "{text}"
        );
        let timeout = Response::error(504, "deadline", "too slow");
        let text = String::from_utf8(timeout.to_bytes()).unwrap();
        assert!(text.starts_with("HTTP/1.1 504 Gateway Timeout\r\n"));
        assert!(!text.contains("Retry-After"));
    }

    #[test]
    fn json_escaping_covers_the_control_set() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("plain"), "plain");
    }
}
