//! The benchmark's client: one TCP connection, one request in flight
//! (closed loop), request formatting and reply parsing.
//!
//! Coordinates and estimates cross the wire in Rust's shortest-round-trip
//! `f64` display, so a parsed reply carries the server's exact bits.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use minskew_geom::Rect;

/// Name of the one table every workload serves.
pub const TABLE: &str = "roads";

/// A closed-loop client: [`Client::round_trip`] writes `req` and blocks
/// until the whole reply line is in `reply`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The request line to send (formatted in place by the `format_*`
    /// helpers, newline included).
    pub req: String,
    /// The last reply line, newline included.
    pub reply: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        // A wedged server fails the run instead of hanging it.
        writer.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            req: String::with_capacity(1 << 17),
            reply: String::with_capacity(1 << 15),
        })
    }

    /// Sends `req` and reads one reply line into `reply`.
    pub fn round_trip(&mut self) -> io::Result<()> {
        self.writer.write_all(self.req.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }

    /// Sends one control line (no trailing newline) and returns the reply
    /// without its newline.
    pub fn control(&mut self, line: &str) -> io::Result<&str> {
        self.req.clear();
        self.req.push_str(line);
        self.req.push('\n');
        self.round_trip()?;
        Ok(self.reply.trim_end())
    }

    /// Sends a framed-reply request (`OK <k>` then `k` lines, e.g.
    /// `METRICS`) and returns the body lines joined by newlines.
    pub fn framed(&mut self, line: &str) -> io::Result<String> {
        let head = self.control(line)?.to_string();
        let k: usize = head
            .strip_prefix("OK ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad framed reply {head:?}")))?;
        let mut body = String::new();
        for _ in 0..k {
            let mut l = String::new();
            if self.reader.read_line(&mut l)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "framed reply cut short",
                ));
            }
            body.push_str(&l);
        }
        Ok(body)
    }
}

fn push_rect(buf: &mut String, q: &Rect) {
    let _ = write!(buf, " {} {} {} {}", q.lo.x, q.lo.y, q.hi.x, q.hi.y);
}

pub fn format_estimate(buf: &mut String, q: &Rect) {
    buf.clear();
    buf.push_str("ESTIMATE ");
    buf.push_str(TABLE);
    push_rect(buf, q);
    buf.push('\n');
}

pub fn format_batch(buf: &mut String, qs: &[Rect]) {
    buf.clear();
    let _ = write!(buf, "BATCH {TABLE} {}", qs.len());
    for q in qs {
        push_rect(buf, q);
    }
    buf.push('\n');
}

pub fn format_insert(buf: &mut String, r: &Rect) {
    buf.clear();
    buf.push_str("INSERT ");
    buf.push_str(TABLE);
    push_rect(buf, r);
    buf.push('\n');
}

pub fn format_delete(buf: &mut String, id: u64) {
    buf.clear();
    let _ = writeln!(buf, "DELETE {TABLE} {id}");
}

/// The value of an `OK <f64>` reply.
pub fn parse_value(reply: &str) -> Option<f64> {
    reply.trim_end().strip_prefix("OK ")?.parse().ok()
}

/// The values of an `OK <e1> <e2> ...` batch reply, appended to `out`;
/// `false` on any malformed token.
pub fn parse_batch(reply: &str, out: &mut Vec<f64>) -> bool {
    out.clear();
    let Some(payload) = reply.trim_end().strip_prefix("OK ") else {
        return false;
    };
    for token in payload.split(' ') {
        match token.parse() {
            Ok(v) => out.push(v),
            Err(_) => return false,
        }
    }
    true
}

/// The row id of an `OK <rowid>` insert reply.
pub fn parse_row_id(reply: &str) -> Option<u64> {
    reply.trim_end().strip_prefix("OK ")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_coordinate_bits() {
        let q = Rect::new(0.1, 1e-300, 12345.678901234567, 2.5e7);
        let mut buf = String::new();
        format_estimate(&mut buf, &q);
        let coords: Vec<f64> = buf
            .split_whitespace()
            .skip(2)
            .map(|t| t.parse().unwrap())
            .collect();
        assert_eq!(coords, vec![q.lo.x, q.lo.y, q.hi.x, q.hi.y]);
        format_batch(&mut buf, &[q, q]);
        assert!(buf.starts_with("BATCH roads 2 0.1 "));
        assert!(buf.ends_with('\n'));
    }

    #[test]
    fn replies_parse_or_reject() {
        assert_eq!(parse_value("OK 12.5\n"), Some(12.5));
        assert_eq!(parse_value("ERR 2 usage: x\n"), None);
        let mut out = Vec::new();
        assert!(parse_batch("OK 1 2.5 0\n", &mut out));
        assert_eq!(out, vec![1.0, 2.5, 0.0]);
        assert!(!parse_batch("OK 1 x\n", &mut out));
        assert_eq!(parse_row_id("OK 7\n"), Some(7));
    }
}
