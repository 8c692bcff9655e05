//! A minimal blocking HTTP/1.1 client for the server's one-request-per-
//! connection protocol.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends `POST /query` with `body` on a fresh connection and returns the
/// first `"probability"` of a 200 response; any other outcome is an error.
pub fn query(addr: SocketAddr, body: &str) -> Result<f64, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("no status line")?;
    if status != 200 {
        return Err(format!("status {status}: {response}"));
    }
    let tail = response
        .split_once("\"probability\":")
        .ok_or("no probability in response")?
        .1;
    let end = tail.find([',', '}']).ok_or("unterminated probability")?;
    tail[..end]
        .parse::<f64>()
        .map_err(|e| format!("probability: {e}"))
}
