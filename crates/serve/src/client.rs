//! A minimal blocking client for the serve protocol — used by the
//! integration tests, the load generator, and the CLI smoke check. One
//! request in flight per connection (the server supports pipelining;
//! this client simply doesn't).

use crate::json::{obj, Value};
use crate::protocol::{read_frame, write_frame, FrameError, FRAME_HARD_CAP};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (including the server closing mid-reply).
    Io(io::Error),
    /// The reply frame wasn't valid protocol JSON.
    Protocol(String),
    /// The server answered with a typed error.
    Server {
        /// Stable error kind (see [`crate::protocol::err_kind`]).
        kind: String,
        /// Human-readable detail.
        msg: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server { kind, msg } => write!(f, "server error [{kind}]: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::TooLarge(n) => {
                ClientError::Protocol(format!("reply frame of {n} bytes exceeds the cap"))
            }
        }
    }
}

impl ClientError {
    /// The server-side error kind, if this is a typed server error.
    pub fn kind(&self) -> Option<&str> {
        match self {
            ClientError::Server { kind, .. } => Some(kind),
            _ => None,
        }
    }
}

/// One connection to a pimento server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // One small request frame per round trip: Nagle only hurts here.
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    /// Connect with a connect/read/write timeout (`None` blocks forever).
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let resolved = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol("address resolved to nothing".to_string()))?;
        let stream = TcpStream::connect_timeout(&resolved, timeout)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Client { stream })
    }

    /// Send one request object, wait for its reply, and unwrap the
    /// `{"ok": …}` / `{"err": …}` envelope.
    pub fn request(&mut self, req: &Value) -> Result<Value, ClientError> {
        write_frame(&mut self.stream, req.render().as_bytes())?;
        let payload = read_frame(&mut self.stream, FRAME_HARD_CAP)?
            .ok_or_else(|| ClientError::Protocol("server closed before replying".to_string()))?;
        let text = std::str::from_utf8(&payload)
            .map_err(|_| ClientError::Protocol("reply is not UTF-8".to_string()))?;
        let reply = Value::parse(text)
            .map_err(|e| ClientError::Protocol(format!("bad reply JSON: {e}")))?;
        if let Some(body) = reply.get("ok") {
            return Ok(body.clone());
        }
        if let Some(err) = reply.get("err") {
            return Err(ClientError::Server {
                kind: err
                    .get("kind")
                    .and_then(Value::as_str)
                    .unwrap_or("internal")
                    .to_string(),
                msg: err
                    .get("msg")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            });
        }
        Err(ClientError::Protocol(
            "reply has neither `ok` nor `err`".to_string(),
        ))
    }

    /// `register_profile` for `user` from rule-language text.
    pub fn register_profile(&mut self, user: &str, rules: &str) -> Result<Value, ClientError> {
        self.request(&obj([
            ("cmd", "register_profile".into()),
            ("user", user.into()),
            ("rules", rules.into()),
        ]))
    }

    /// Top-`k` search as `user` (`None` = unpersonalized).
    pub fn search(
        &mut self,
        user: Option<&str>,
        query: &str,
        k: usize,
    ) -> Result<Value, ClientError> {
        let mut fields = vec![
            ("cmd".to_string(), Value::from("search")),
            ("query".to_string(), Value::from(query)),
            ("k".to_string(), Value::from(k)),
        ];
        if let Some(u) = user {
            fields.push(("user".to_string(), u.into()));
        }
        self.request(&Value::Obj(fields))
    }

    /// `add_documents`: ingest a batch of XML documents. The response's
    /// `generation` is already visible to every later search (and
    /// durable, when the server persists its corpus).
    pub fn add_documents(&mut self, docs: &[String]) -> Result<Value, ClientError> {
        let docs: Vec<Value> = docs.iter().map(|d| d.as_str().into()).collect();
        self.request(&obj([
            ("cmd", "add_documents".into()),
            ("docs", Value::Arr(docs)),
        ]))
    }

    /// `delete_documents`: tombstone a batch of document ids.
    pub fn delete_documents(&mut self, ids: &[u32]) -> Result<Value, ClientError> {
        let ids: Vec<Value> = ids.iter().map(|&i| u64::from(i).into()).collect();
        self.request(&obj([
            ("cmd", "delete_documents".into()),
            ("ids", Value::Arr(ids)),
        ]))
    }

    /// Metrics snapshot.
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        self.request(&obj([("cmd", "stats".into())]))
    }

    /// Ask the server to drain and stop; returns the final snapshot.
    pub fn shutdown(&mut self) -> Result<Value, ClientError> {
        self.request(&obj([("cmd", "shutdown".into())]))
    }
}
