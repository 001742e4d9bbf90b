//! A minimal blocking client for the serve protocol — used by the
//! integration tests, the load generator, and the CLI smoke check. One
//! request in flight per connection (the server supports pipelining;
//! this client simply doesn't).
//!
//! [`Client::request_with_retry`] adds bounded exponential backoff with
//! deterministic jitter for `overloaded` rejections and transient
//! transport failures (reconnecting for the latter). Retries are
//! at-least-once: the read verbs change nothing and re-registering the
//! same rules installs the same profile, so retrying those is safe; a
//! retried `add_documents` whose first attempt was applied adds the
//! batch twice.

use crate::json::{obj, Value};
use crate::protocol::{read_frame, write_frame, FrameError, FRAME_HARD_CAP};
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::thread;
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

/// Bounded exponential backoff with deterministic jitter, for
/// [`Client::request_with_retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = fail fast).
    pub max_retries: u32,
    /// Delay before the first retry; doubles each attempt.
    pub base_delay: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_delay: Duration,
    /// Jitter seed. The whole backoff schedule is a pure function of
    /// (seed, attempt), so retry timing is reproducible in tests.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(500),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The sleep before retry number `attempt` (0-based):
    /// `min(max_delay, base_delay · 2^attempt)` scaled by a
    /// deterministic jitter factor in `[0.5, 1.0]` — jitter spreads
    /// synchronized retry storms without ever exceeding the cap.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.max_delay);
        // splitmix64 of (seed, attempt) → uniform fraction in [0.5, 1.0).
        let mut z = self.seed ^ (u64::from(attempt)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let frac = 0.5 + ((z >> 11) as f64 / (1u64 << 53) as f64) * 0.5;
        capped.mul_f64(frac)
    }
}

/// What a retry should do about the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetryAction {
    /// Not retryable (typed server errors other than `overloaded`,
    /// malformed replies): the request itself is wrong.
    No,
    /// Retry on the same connection after backing off (`overloaded`:
    /// the connection is fine, the queue was full).
    SameConn,
    /// The connection is suspect (reset, EOF mid-reply, timeout —
    /// frames may be desynchronized): back off, then reconnect.
    Reconnect,
}

fn retry_action(err: &ClientError) -> RetryAction {
    match err {
        ClientError::Server { kind, .. } if kind == "overloaded" => RetryAction::SameConn,
        ClientError::Server { .. } => RetryAction::No,
        ClientError::Io(e) => match e.kind() {
            io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock => RetryAction::Reconnect,
            _ => RetryAction::No,
        },
        // The server (or a proxy) closed before replying — transient by
        // construction: a draining server does exactly this.
        ClientError::Protocol(msg) if msg.starts_with("server closed") => RetryAction::Reconnect,
        ClientError::Protocol(_) => RetryAction::No,
    }
}

/// One connection to a pimento server.
pub struct Client {
    stream: TcpStream,
    /// Resolved peer, kept for reconnects during retry.
    peer: Option<SocketAddr>,
    /// The timeout the connection was configured with, reapplied on
    /// reconnect.
    timeout: Option<Duration>,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // One small request frame per round trip: Nagle only hurts here.
        let _ = stream.set_nodelay(true);
        let peer = stream.peer_addr().ok();
        Ok(Client {
            stream,
            peer,
            timeout: None,
        })
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
        Ok(Client {
            stream,
            peer: Some(resolved),
            timeout: Some(timeout),
        })
    }

    /// Drop the current stream and dial the remembered peer again.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let peer = self.peer.ok_or_else(|| {
            ClientError::Protocol("no peer address remembered for reconnect".to_string())
        })?;
        let stream = match self.timeout {
            Some(t) => TcpStream::connect_timeout(&peer, t)?,
            None => TcpStream::connect(peer)?,
        };
        let _ = stream.set_nodelay(true);
        if let Some(t) = self.timeout {
            stream.set_read_timeout(Some(t))?;
            stream.set_write_timeout(Some(t))?;
        }
        self.stream = stream;
        Ok(())
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

    /// [`Client::request`] under a [`RetryPolicy`]: `overloaded`
    /// rejections back off and retry on the same connection; transient
    /// transport failures back off, reconnect, and retry. Typed server
    /// errors and malformed replies fail immediately. At-least-once:
    /// a retried request may have already executed on the server.
    pub fn request_with_retry(
        &mut self,
        req: &Value,
        policy: &RetryPolicy,
    ) -> Result<Value, ClientError> {
        let mut attempt = 0u32;
        loop {
            let err = match self.request(req) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let action = retry_action(&err);
            if action == RetryAction::No || attempt >= policy.max_retries {
                return Err(err);
            }
            thread::sleep(policy.backoff(attempt));
            if action == RetryAction::Reconnect {
                // Best-effort: a refused reconnect just burns this
                // attempt; the next one dials again.
                let _ = self.reconnect();
            }
            attempt += 1;
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        let p = RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(120),
            seed: 42,
        };
        for attempt in 0..10 {
            let d = p.backoff(attempt);
            assert_eq!(d, p.backoff(attempt), "same (seed, attempt) → same delay");
            assert!(d <= p.max_delay, "attempt {attempt}: {d:?} over cap");
            // Jitter floor: at least half the uncapped exponential.
            let exp = p
                .base_delay
                .saturating_mul(1u32 << attempt.min(16))
                .min(p.max_delay);
            assert!(d >= exp / 2, "attempt {attempt}: {d:?} under jitter floor");
        }
        // A different seed shifts the schedule somewhere.
        let q = RetryPolicy {
            seed: 43,
            ..p.clone()
        };
        assert!((0..10).any(|a| p.backoff(a) != q.backoff(a)));
        // Huge attempt numbers don't overflow.
        let _ = p.backoff(u32::MAX);
    }

    #[test]
    fn retry_classification() {
        let overloaded = ClientError::Server {
            kind: "overloaded".to_string(),
            msg: "queue full".to_string(),
        };
        assert_eq!(retry_action(&overloaded), RetryAction::SameConn);
        let query_err = ClientError::Server {
            kind: "query".to_string(),
            msg: "bad".to_string(),
        };
        assert_eq!(retry_action(&query_err), RetryAction::No);
        let reset = ClientError::Io(io::Error::from(io::ErrorKind::ConnectionReset));
        assert_eq!(retry_action(&reset), RetryAction::Reconnect);
        let perm = ClientError::Io(io::Error::from(io::ErrorKind::PermissionDenied));
        assert_eq!(retry_action(&perm), RetryAction::No);
        let closed = ClientError::Protocol("server closed before replying".to_string());
        assert_eq!(retry_action(&closed), RetryAction::Reconnect);
        let garbage = ClientError::Protocol("bad reply JSON: x".to_string());
        assert_eq!(retry_action(&garbage), RetryAction::No);
    }

    #[test]
    fn none_policy_fails_fast() {
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }
}
