//! The replay lane of the traced run: after the window, and in this
//! process, make the calls the server made for a recorded request —
//! JSON parse → `parse_request` → `prepare` when uncached →
//! `run_prepared` → reply render; for writes parse → `with_ingested` →
//! `segment_bytes` → `compacted` — each as a span under the request's
//! client round trip. A call the server skipped (a cached `prepare`) is
//! still made, as a `probe` span under no parent, so that the per-call
//! cost of every layer is measured on every workload.

use crate::inputs::Item;
use crate::trace::Recorder;
use pimento::algebra::ExecStats;
use pimento::profile::UserProfile;
use pimento::tpq::parse_tpq;
use pimento::{Engine, SearchOptions};
use pimento_serve::protocol::{ok_payload, parse_request};
use pimento_serve::Value;
use pimento_xml::SymbolTable;
use std::time::Instant;

/// The request and reply of one recorded search, as they crossed the wire.
pub struct Wire<'a> {
    /// Request payload text.
    pub request: &'a str,
    /// Reply body (inside `{"ok": …}`).
    pub body: &'a Value,
}

/// What was recorded about the search to re-execute.
pub struct Recorded<'a> {
    /// The client round-trip span (absent for a pure probe).
    pub root: Option<usize>,
    /// Request number.
    pub request: u64,
    /// Request and reply as they crossed the wire (absent in process).
    pub wire: Option<Wire<'a>>,
    /// The server compiled the plan for this request.
    pub cache_miss: bool,
}

impl Recorded<'_> {
    /// A search nobody sent: every call is made as a probe.
    pub fn probe(request: u64) -> Recorded<'static> {
        Recorded {
            root: None,
            request,
            wire: None,
            cache_miss: false,
        }
    }
}

/// Re-execute one search under `opts`, the options of the call under
/// test. Returns the work counters of the run.
pub fn search(
    rec: &mut Recorder,
    engine: &Engine,
    profile: &UserProfile,
    item: &Item,
    opts: &SearchOptions,
    recorded: &Recorded<'_>,
) -> Option<ExecStats> {
    let Recorded {
        root,
        request,
        wire,
        cache_miss,
    } = recorded;
    let (root, request, cache_miss) = (*root, *request, *cache_miss);
    if let Some(w) = wire {
        let v = rec
            .replay("serve.json_parse", root, request, || {
                Value::parse(w.request)
            })
            .1
            .ok()?;
        rec.replay("serve.parse_request", root, request, || parse_request(&v))
            .1
            .ok()?;
    }

    // `prepare` is one call; its two visible stages are timed on their
    // own first and recorded as its children.
    let t0 = Instant::now();
    let tpq = parse_tpq(&item.query).ok()?;
    let t1 = Instant::now();
    let scoped = profile.enforce_scoping(&tpq);
    let t2 = Instant::now();
    std::hint::black_box(&scoped);
    let prepared = engine.prepare(&item.query, profile);
    let t3 = Instant::now();
    let (lane, parent) = if cache_miss {
        ("replay", root)
    } else {
        ("probe", None)
    };
    let prep = rec.push("core.prepare", lane, parent, request, t2, t3);
    rec.push("tpq.parse", lane, Some(prep), request, t0, t1);
    rec.push("profile.scoping", lane, Some(prep), request, t1, t2);
    let prepared = prepared.ok()?;

    let (_, results) = rec.replay("core.run", root, request, || {
        engine.run_prepared(&prepared, opts)
    });
    let results = results.ok()?;

    if let Some(w) = wire {
        let body = w.body.clone();
        let (_, payload) = rec.replay("serve.render", root, request, || ok_payload(body));
        let text = String::from_utf8(payload).ok()?;
        rec.replay("serve.reply_parse", root, request, || Value::parse(&text))
            .1
            .ok()?;
    }
    Some(results.stats)
}

/// One write batch to re-execute.
pub struct WriteBatch<'a> {
    /// The client round-trip span of the batch, when it crossed the wire.
    pub root: Option<usize>,
    /// Request number.
    pub request: u64,
    /// The documents of the batch.
    pub docs: &'a [String],
}

/// Re-execute write batches in order on top of `base`, compacting after
/// every `merge_every` batches as the server's merger does, and return
/// the engine each batch leaves (segments are shared, so the chain is
/// cheap). Compactions run in the background of the program, so their
/// spans hang under no request. `None` when a call fails.
pub fn writes(
    rec: &mut Recorder,
    base: &Engine,
    batches: &[WriteBatch<'_>],
    merge_every: usize,
) -> Option<Vec<Engine>> {
    let shards = base.shard_count();
    let mut chain: Vec<Engine> = Vec::with_capacity(batches.len());
    for (i, b) in batches.iter().enumerate() {
        let engine = chain.last().unwrap_or(base);
        if b.root.is_some() {
            let text = crate::serve::add_documents_request(b.docs).render();
            let v = rec
                .replay("serve.json_parse", b.root, b.request, || {
                    Value::parse(&text)
                })
                .1
                .ok()?;
            rec.replay("serve.parse_request", b.root, b.request, || {
                parse_request(&v)
            })
            .1
            .ok()?;
        }
        let p0 = Instant::now();
        let mut symbols = SymbolTable::default();
        for d in b.docs {
            std::hint::black_box(pimento_xml::parse_content(d, &mut symbols).ok()?);
        }
        let p1 = Instant::now();
        let (apply, next) = rec.replay("ingest.apply", b.root, b.request, || {
            engine.with_ingested(b.docs)
        });
        rec.push("xml.parse", "replay", Some(apply), b.request, p0, p1);
        let mut engine = next.ok()?;
        let last = engine.shard_count() - 1;
        rec.replay("ingest.encode", b.root, b.request, || {
            engine.segment_bytes(last)
        })
        .1
        .ok()?;
        if merge_every > 0 && (i + 1) % merge_every == 0 {
            let (_, merged) = rec.replay("ingest.compact", None, b.request, || {
                engine.compacted(shards)
            });
            engine = merged.ok()?;
        }
        chain.push(engine);
    }
    Some(chain)
}
