//! Wire protocol: length-delimited JSON frames and the typed commands
//! they carry (DESIGN.md §11).
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. Requests are objects with a `"cmd"` field
//! (`register_profile`, `search`, `explain`, `stats`, `shutdown`);
//! responses are `{"ok": …}` or `{"err": {"kind": …, "msg": …}}`.

use crate::json::{obj, Value};
use pimento::{PlanStrategy, SearchOptions};
use std::io::{self, Read, Write};

/// Hard cap a frame may declare regardless of configuration (16 MiB) —
/// a corrupt length prefix must not turn into an allocation bomb.
pub const FRAME_HARD_CAP: usize = 16 * 1024 * 1024;

/// Typed error kinds the server emits. Stable protocol strings.
pub mod err_kind {
    /// The bounded request queue is full (backpressure).
    pub const OVERLOADED: &str = "overloaded";
    /// The request's deadline expired before evaluation started.
    pub const DEADLINE: &str = "deadline";
    /// Malformed frame / JSON / missing or ill-typed fields.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The query failed to parse or plan.
    pub const QUERY: &str = "query";
    /// The profile failed to parse or its scoping rules conflict.
    pub const PROFILE: &str = "profile";
    /// `search` referenced a user no `register_profile` created.
    pub const UNKNOWN_USER: &str = "unknown_user";
    /// The server is draining and no longer admits connections.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// An ingest write was invalid (bad XML, unknown doc id, empty
    /// batch) or the server has no write path configured.
    pub const INGEST: &str = "ingest";
    /// The disk is full (`ENOSPC`): the write was rejected, the
    /// previous generation is still served, and the request is
    /// retryable once space frees.
    pub const DISK_FULL: &str = "disk_full";
    /// Anything else (I/O mid-response, poisoned state, …).
    pub const INTERNAL: &str = "internal";
}

/// Framing-layer failure.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error (including mid-frame EOF).
    Io(io::Error),
    /// The declared payload length exceeds the limit.
    TooLarge(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds the limit"),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame (length prefix + payload). Header and payload go out
/// as a single write: two small writes per frame interact badly with
/// Nagle + delayed ACK on real sockets (tens of ms of stall per frame).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame. `Ok(None)` on clean EOF at a frame boundary;
/// `max_len` bounds the declared payload (additionally capped by
/// [`FRAME_HARD_CAP`]).
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_len.min(FRAME_HARD_CAP) {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Everything a `search` / `explain` command can carry.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Registered profile to personalize under; `None` = unpersonalized.
    pub user: Option<String>,
    /// The tree-pattern query text.
    pub query: String,
    /// Answers to return (default 10).
    pub k: usize,
    /// Pagination offset.
    pub offset: usize,
    /// Plan strategy override (`None` = the engine default, `PtpkP`).
    pub strategy: Option<PlanStrategy>,
    /// Per-request execution threads override (`None` = server config).
    pub threads: Option<usize>,
    /// Deadline budget in milliseconds, measured from request arrival
    /// (`None` = server default).
    pub timeout_ms: Option<u64>,
}

/// A decoded protocol request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Register (or replace) a user's profile from rule-language text.
    RegisterProfile {
        /// Session key the profile lives under.
        user: String,
        /// Profile in the paper's rule language (`pimento_profile::parse`).
        rules: String,
    },
    /// Execute a personalized top-k search.
    Search(QuerySpec),
    /// Return the plan the engine would run, without executing it.
    Explain(QuerySpec),
    /// Ingest XML documents into the live corpus (back-office write
    /// path): published as an immutable delta segment at the next
    /// corpus generation.
    AddDocuments {
        /// The documents, one XML string each.
        docs: Vec<String>,
    },
    /// Tombstone documents by corpus-global doc id: they vanish from
    /// results at the next corpus generation and are reclaimed by the
    /// background merge.
    DeleteDocuments {
        /// Corpus-global doc ids to delete.
        ids: Vec<u32>,
    },
    /// Metrics snapshot.
    Stats,
    /// Scrubber health report (`ok` / `degraded` / `corrupt` with
    /// per-component detail — DESIGN.md §17).
    Health,
    /// Drain in-flight requests and stop the server.
    Shutdown,
}

/// Decode a request object; the error string is the `bad_request` message.
pub fn parse_request(v: &Value) -> Result<Request, String> {
    let cmd = v
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing string field `cmd`".to_string())?;
    match cmd {
        "register_profile" => {
            let user = req_str(v, "user")?;
            let rules = req_str(v, "rules")?;
            Ok(Request::RegisterProfile { user, rules })
        }
        "search" => Ok(Request::Search(query_spec(v)?)),
        "explain" => Ok(Request::Explain(query_spec(v)?)),
        "add_documents" => {
            let docs = v
                .get("docs")
                .and_then(Value::as_arr)
                .ok_or_else(|| "missing array field `docs`".to_string())?
                .iter()
                .map(|d| {
                    d.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "field `docs` must contain strings".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            if docs.is_empty() {
                return Err("field `docs` must not be empty".to_string());
            }
            Ok(Request::AddDocuments { docs })
        }
        "delete_documents" => {
            let ids = v
                .get("ids")
                .and_then(Value::as_arr)
                .ok_or_else(|| "missing array field `ids`".to_string())?
                .iter()
                .map(|d| {
                    d.as_u64()
                        .filter(|&n| n <= u32::MAX as u64)
                        .map(|n| n as u32)
                        .ok_or_else(|| "field `ids` must contain doc ids (u32)".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            if ids.is_empty() {
                return Err("field `ids` must not be empty".to_string());
            }
            Ok(Request::DeleteDocuments { ids })
        }
        "stats" => Ok(Request::Stats),
        "health" => Ok(Request::Health),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown cmd `{other}`")),
    }
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

fn query_spec(v: &Value) -> Result<QuerySpec, String> {
    let query = req_str(v, "query")?;
    let user = match v.get("user") {
        None | Some(Value::Null) => None,
        Some(u) => Some(
            u.as_str()
                .map(str::to_string)
                .ok_or_else(|| "field `user` must be a string".to_string())?,
        ),
    };
    let strategy = v
        .get("strategy")
        .and_then(Value::as_str)
        .map(str::parse::<PlanStrategy>)
        .transpose()?;
    Ok(QuerySpec {
        user,
        query,
        k: opt_u64(v, "k")?.map_or(SearchOptions::DEFAULT_K, |k| k as usize),
        offset: opt_u64(v, "offset")?.unwrap_or(0) as usize,
        strategy,
        threads: opt_u64(v, "threads")?.map(|n| n as usize),
        timeout_ms: opt_u64(v, "timeout_ms")?,
    })
}

/// Encode a success response frame payload.
pub fn ok_payload(body: Value) -> Vec<u8> {
    obj([("ok", body)]).render().into_bytes()
}

/// Encode a typed error response frame payload.
pub fn err_payload(kind: &str, msg: &str) -> Vec<u8> {
    obj([("err", obj([("kind", kind.into()), ("msg", msg.into())]))])
        .render()
        .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"cmd\":\"stats\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r, 1024).unwrap().unwrap(),
            b"{\"cmd\":\"stats\"}"
        );
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn frame_limits_and_truncation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        assert!(matches!(
            read_frame(&mut io::Cursor::new(&buf), 10),
            Err(FrameError::TooLarge(100))
        ));
        // EOF mid-frame is an I/O error, not a clean close.
        assert!(matches!(
            read_frame(&mut io::Cursor::new(&buf[..50]), 1024),
            Err(FrameError::Io(_))
        ));
        assert!(matches!(
            read_frame(&mut io::Cursor::new(&buf[..2]), 1024),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn parses_commands() {
        let v = Value::parse(
            r#"{"cmd":"search","user":"u1","query":"//car","k":5,"offset":2,"strategy":"sil","threads":2,"timeout_ms":250}"#,
        )
        .unwrap();
        match parse_request(&v).unwrap() {
            Request::Search(s) => {
                assert_eq!(s.user.as_deref(), Some("u1"));
                assert_eq!(s.query, "//car");
                assert_eq!((s.k, s.offset), (5, 2));
                assert_eq!(s.strategy, Some(PlanStrategy::InterleaveSorted));
                assert_eq!(s.threads, Some(2));
                assert_eq!(s.timeout_ms, Some(250));
            }
            other => panic!("wrong request: {other:?}"),
        }
        let v = Value::parse(r#"{"cmd":"search","query":"//car"}"#).unwrap();
        match parse_request(&v).unwrap() {
            Request::Search(s) => {
                assert!(s.user.is_none());
                assert_eq!(s.k, 10);
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert!(matches!(
            parse_request(&Value::parse(r#"{"cmd":"shutdown"}"#).unwrap()).unwrap(),
            Request::Shutdown
        ));
        assert!(matches!(
            parse_request(&Value::parse(r#"{"cmd":"health"}"#).unwrap()).unwrap(),
            Request::Health
        ));
    }

    #[test]
    fn rejects_bad_requests() {
        for bad in [
            r#"{}"#,
            r#"{"cmd":"warp"}"#,
            r#"{"cmd":"search"}"#,
            r#"{"cmd":"search","query":"//a","k":-1}"#,
            r#"{"cmd":"search","query":"//a","strategy":"quantum"}"#,
            r#"{"cmd":"register_profile","user":"u"}"#,
            r#"{"cmd":"add_documents"}"#,
            r#"{"cmd":"add_documents","docs":[]}"#,
            r#"{"cmd":"add_documents","docs":"<a/>"}"#,
            r#"{"cmd":"add_documents","docs":[7]}"#,
            r#"{"cmd":"delete_documents"}"#,
            r#"{"cmd":"delete_documents","ids":[]}"#,
            r#"{"cmd":"delete_documents","ids":["0"]}"#,
            r#"{"cmd":"delete_documents","ids":[1.5]}"#,
            r#"{"cmd":"delete_documents","ids":[4294967296]}"#,
        ] {
            let v = Value::parse(bad).unwrap();
            assert!(parse_request(&v).is_err(), "{bad}");
        }
        let v = Value::parse(r#"{"cmd":"search","query":"//a","strategy":"quantum"}"#).unwrap();
        assert_eq!(
            parse_request(&v).err().as_deref(),
            Some("unknown strategy `quantum` (naive|il|sil|push)")
        );
    }

    #[test]
    fn parses_ingest_requests() {
        let v = Value::parse(r#"{"cmd":"add_documents","docs":["<a/>","<b>x</b>"]}"#).unwrap();
        let Ok(Request::AddDocuments { docs }) = parse_request(&v) else {
            panic!("add_documents should parse");
        };
        assert_eq!(docs, vec!["<a/>".to_string(), "<b>x</b>".to_string()]);
        let v = Value::parse(r#"{"cmd":"delete_documents","ids":[0,7,4294967295]}"#).unwrap();
        let Ok(Request::DeleteDocuments { ids }) = parse_request(&v) else {
            panic!("delete_documents should parse");
        };
        assert_eq!(ids, vec![0, 7, u32::MAX]);
    }

    #[test]
    fn payload_helpers() {
        let ok = String::from_utf8(ok_payload(Value::Num(1.0))).unwrap();
        assert_eq!(ok, r#"{"ok":1}"#);
        let err = String::from_utf8(err_payload(err_kind::OVERLOADED, "queue full")).unwrap();
        assert!(err.contains(r#""kind":"overloaded""#), "{err}");
    }
}
