//! A minimal blocking client for the line protocol.
//!
//! Used by the integration tests and the bench load harness; thin enough
//! that external callers can reimplement it in any language from the verb
//! table in the crate docs.

use crate::json::{self, Json};
use crate::proto::{tx_to_json, DecisionRecord, ProtoError};
use proxylog::{DeviceId, Transaction};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

/// One protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

fn proto_io(err: ProtoError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err)
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self { reader: BufReader::new(stream.try_clone()?), writer: BufWriter::new(stream) })
    }

    /// Sends one raw line and reads one raw reply line.
    pub fn request_line(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        while reply.ends_with('\n') || reply.ends_with('\r') {
            reply.pop();
        }
        Ok(reply)
    }

    /// Sends a request object; returns the parsed reply, mapping
    /// `{"ok":false,...}` to an [`io::Error`] wrapping the [`ProtoError`].
    pub fn request(&mut self, request: Json) -> io::Result<Json> {
        let reply = self.request_line(&request.to_line())?;
        let value = json::parse(&reply).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("unparseable reply: {e}"))
        })?;
        match value.get("ok") {
            Some(&Json::Bool(true)) => Ok(value),
            _ => {
                let code = match value.get("error").and_then(Json::as_str) {
                    Some("draining") => "draining",
                    Some("unknown_tenant") => "unknown_tenant",
                    Some("unknown_verb") => "unknown_verb",
                    Some("line_too_long") => "line_too_long",
                    Some("invalid_utf8") => "invalid_utf8",
                    Some("store") => "store",
                    Some("parse") => "parse",
                    Some("internal") => "internal",
                    _ => "bad_request",
                };
                let detail = value
                    .get("detail")
                    .and_then(Json::as_str)
                    .unwrap_or("malformed error reply")
                    .to_string();
                Err(proto_io(ProtoError::new(code, detail)))
            }
        }
    }

    /// `health` — returns the daemon status string (`"up"`/`"draining"`).
    pub fn health(&mut self) -> io::Result<String> {
        let reply = self.request(Json::Obj(vec![("verb".into(), Json::str("health"))]))?;
        Ok(reply.get("status").and_then(Json::as_str).unwrap_or("up").to_string())
    }

    /// `load_profiles` — returns `(profiles, skipped)`.
    pub fn load_profiles(
        &mut self,
        tenant: &str,
        dir: &str,
        lossy: bool,
    ) -> io::Result<(usize, usize)> {
        let reply = self.request(Json::Obj(vec![
            ("verb".into(), Json::str("load_profiles")),
            ("tenant".into(), Json::str(tenant)),
            ("dir".into(), Json::str(dir)),
            ("lossy".into(), Json::Bool(lossy)),
        ]))?;
        let count =
            |key: &str| reply.get(key).and_then(Json::as_num).map(|n| n as usize).unwrap_or(0);
        Ok((count("profiles"), count("skipped")))
    }

    /// `ingest` — returns `(accepted, decided)`.
    pub fn ingest(&mut self, tenant: &str, txs: &[Transaction]) -> io::Result<(usize, usize)> {
        let reply = self.request(Json::Obj(vec![
            ("verb".into(), Json::str("ingest")),
            ("tenant".into(), Json::str(tenant)),
            ("txs".into(), Json::Arr(txs.iter().map(tx_to_json).collect())),
        ]))?;
        let count =
            |key: &str| reply.get(key).and_then(Json::as_num).map(|n| n as usize).unwrap_or(0);
        Ok((count("accepted"), count("decided")))
    }

    /// `decide` — drains buffered decisions, optionally for one device.
    pub fn decide(
        &mut self,
        tenant: &str,
        device: Option<DeviceId>,
    ) -> io::Result<Vec<DecisionRecord>> {
        let mut fields =
            vec![("verb".into(), Json::str("decide")), ("tenant".into(), Json::str(tenant))];
        if let Some(device) = device {
            fields.push(("device".into(), Json::Num(f64::from(device.0))));
        }
        let reply = self.request(Json::Obj(fields))?;
        reply
            .get("decisions")
            .and_then(Json::as_arr)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "decide reply missing decisions")
            })?
            .iter()
            .map(|d| DecisionRecord::from_json(d).map_err(proto_io))
            .collect()
    }

    /// `stats` — the full counter object.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.request(Json::Obj(vec![("verb".into(), Json::str("stats"))]))
    }

    /// `drain` — returns the number of windows flushed.
    pub fn drain(&mut self) -> io::Result<u64> {
        let reply = self.request(Json::Obj(vec![("verb".into(), Json::str("drain"))]))?;
        Ok(reply.get("flushed").and_then(Json::as_num).map(|n| n as u64).unwrap_or(0))
    }
}
