//! The load generator's HTTP client: one keep-alive connection, one
//! request in flight (closed loop).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The server closes a connection after 256 requests; the client rolls
/// its connection over well before, between two requests.
const REQUESTS_PER_CONNECTION: usize = 200;

pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    served: usize,
    /// Bytes received and not yet consumed.
    buf: Vec<u8>,
    /// TCP connections opened so far.
    pub connects: u64,
}

/// One response: the status and where its body sits in the client's
/// buffer (valid until the next request).
#[derive(Clone, Copy, Debug)]
pub struct Reply {
    pub status: u16,
    pub bytes: usize,
    body_start: usize,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            served: 0,
            buf: Vec::with_capacity(16 << 10),
            connects: 0,
        }
    }

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        self.stream = Some(stream);
        self.served = 0;
        self.connects += 1;
        Ok(())
    }

    /// Connects if needed, outside any timed section.
    pub fn ready(&mut self) -> io::Result<()> {
        if self.stream.is_none() || self.served >= REQUESTS_PER_CONNECTION {
            self.connect()?;
        }
        Ok(())
    }

    /// Sends one fully rendered request and reads its response. A
    /// transport error drops the connection, so the next call reconnects.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.ready()?;
        let result = self.exchange(request);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        let stream = self.stream.as_mut().expect("ready() connected");
        stream.write_all(request)?;
        self.served += 1;
        self.buf.clear();
        let mut chunk = [0u8; 16 << 10];
        loop {
            if let Some(head_end) = find(&self.buf, b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "response head is not UTF-8")
                })?;
                let status: u16 = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status code"))?;
                let length: usize = head
                    .lines()
                    .find_map(|l| {
                        let (name, value) = l.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse().ok())?
                    })
                    .ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "no content-length")
                    })?;
                let total = head_end + 4 + length;
                if self.buf.len() >= total {
                    return Ok(Reply {
                        status,
                        bytes: total,
                        body_start: head_end + 4,
                    });
                }
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// The body of the most recent reply.
    pub fn body(&self, reply: &Reply) -> &str {
        std::str::from_utf8(&self.buf[reply.body_start..reply.bytes]).unwrap_or("")
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}
