//! The PIMENTO engine: index a collection once, then answer personalized
//! top-k queries against it.

use crate::error::Error;
use crate::result::{SearchOptions, SearchResult, SearchResults};
use crate::segment::{execute_lanes, explain_lanes, resolve_lanes, Segment};
use pimento_algebra::{build_plan, Answer, Database, Matcher, PlanSpec, RankContext};
use pimento_index::ft_contains;
use pimento_faults::vfs::Vfs;
use pimento_index::{
    split_ranges, Collection, DocId, InvertedIndex, ShardManifest, Tokenizer, TombstoneSet,
    MANIFEST_FILE,
};
use pimento_profile::{PersonalizedQuery, UserProfile};
use pimento_tpq::{parse_tpq, Tpq};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The search engine: an indexed corpus plus query-time machinery.
///
/// The corpus lives in one or more doc-range [`Segment`]s: building from
/// XML or a snapshot file yields one segment with doc base 0,
/// [`Engine::reshard`] splits it into `n`, and every published write
/// derives the next engine from this one. Segments are immutable and know
/// nothing of the corpus around them — corpus-wide scoring statistics are
/// summed over them when a query is prepared ([`Engine::prepare`]) — so
/// engines of successive generations share the segments they have in
/// common. One executor runs every layout, a segment being one lane task
/// (see [`crate::segment`] / DESIGN.md §8).
#[derive(Debug)]
pub struct Engine {
    /// Doc-range segments in corpus order. Invariant: never empty, bases
    /// are the prefix sums of segment sizes starting at 0.
    segments: Vec<Arc<Segment>>,
    /// Snapshot format version this engine was opened from (`Some(4)`,
    /// the columnar format), or `None` when built by parsing XML.
    snapshot_format: Option<u32>,
    /// Corpus generation: 0 for a freshly built corpus, bumped by every
    /// published write (ingest, delete, merge compaction).
    generation: u64,
    /// The directory and manifest this engine was opened from (see
    /// [`Engine::opened_from`]).
    opened_from: Option<(PathBuf, ShardManifest)>,
}

impl Engine {
    /// An engine over `segments` (in corpus order, never empty), at
    /// generation 0.
    fn over(segments: Vec<Arc<Segment>>, snapshot_format: Option<u32>) -> Self {
        debug_assert!(!segments.is_empty(), "engine needs at least one segment");
        Engine {
            segments,
            snapshot_format,
            generation: 0,
            opened_from: None,
        }
    }

    /// The same engine stamped with `generation` (builder-style; used by
    /// the write path when publishing a new corpus generation). It no
    /// longer matches a manifest it was opened from.
    #[must_use]
    pub fn at_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self.opened_from = None;
        self
    }

    /// Corpus generation this engine serves (see the `generation` field).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The newest (last) segment. Its collection carries the corpus
    /// symbol table *including* symbols interned by delta segments —
    /// symbol-table extension is append-only, so the newest table is a
    /// superset of every older segment's and ids agree on the shared
    /// prefix. Matchers compile against this segment. Fallible so the
    /// serving path stays panic-free even if the non-empty invariant
    /// were ever broken.
    fn seg_newest(&self) -> Result<&Arc<Segment>, Error> {
        self.segments
            .last()
            .ok_or(Error::Shard("engine has no segments"))
    }

    /// Index an existing collection (plain tokenizer).
    pub fn new(coll: Collection) -> Self {
        Engine::with_tokenizer(coll, Tokenizer::plain())
    }

    /// Index with an explicit tokenizer (e.g. stemming, §7.1).
    pub fn with_tokenizer(coll: Collection, tokenizer: Tokenizer) -> Self {
        Engine::build_sharded(coll, tokenizer, &[])
    }

    /// Convenience: parse and index XML documents.
    pub fn from_xml_docs<S: AsRef<str>>(docs: &[S]) -> Result<Self, Error> {
        let mut coll = Collection::new();
        for d in docs {
            coll.add_xml(d.as_ref())?;
        }
        Ok(Engine::new(coll))
    }

    /// Parse documents on `threads` worker threads, then index.
    pub fn from_xml_docs_parallel<S: AsRef<str> + Sync>(
        docs: &[S],
        threads: usize,
    ) -> Result<Self, Error> {
        let coll = pimento_index::build_collection_parallel(docs, threads)?;
        Ok(Engine::new(coll))
    }

    /// Serialize the engine to a columnar (v4) binary snapshot: documents
    /// plus the already-built indexes, laid out so that
    /// [`Engine::from_snapshot`] decodes them instead of rebuilding them
    /// from the documents. The file holds the *live* corpus as one
    /// segment: a sharded engine flattens and tombstoned documents are
    /// left out (exactly what [`Engine::compacted`]`(1)` holds), so a
    /// reopened engine never serves a deleted document. The segment
    /// store (`pimento_ingest::SegmentStore::save`) keeps the
    /// per-segment layout and the tombstones.
    pub fn save_snapshot(&self) -> bytes::Bytes {
        let rebuilt;
        let db = if self.segments.len() > 1 || self.deleted_docs() > 0 {
            let tokenizer = self.db().inverted.tokenizer();
            rebuilt = Database::index(self.collapse_collection(), tokenizer);
            &rebuilt
        } else {
            self.db()
        };
        pimento_index::save_index(&db.coll, &db.inverted, &db.tags)
    }

    /// Serialize segment `i` to its v4 columnar byte image (the unit the
    /// durable ingest store writes with its temp+fsync+rename discipline).
    pub fn segment_bytes(&self, i: usize) -> Result<bytes::Bytes, Error> {
        let seg = self
            .segments
            .get(i)
            .ok_or(Error::Shard("segment index out of range"))?;
        let db = seg.db();
        Ok(pimento_index::save_index(&db.coll, &db.inverted, &db.tags))
    }

    /// Reopen a sharded snapshot directory written by the segment store
    /// (`pimento_ingest::SegmentStore`): each segment file is validated
    /// and decoded, and that is all — segments carry no corpus-wide
    /// state, so search results are bit-identical to the engine that was
    /// saved.
    pub fn from_sharded_dir(dir: &Path) -> Result<Self, Error> {
        Self::from_sharded_dir_vfs(&pimento_faults::vfs::StdVfs, dir)
    }

    /// [`Engine::from_sharded_dir`] against an explicit [`Vfs`] — the
    /// recovery path the crash harness drives through [`SimVfs`]. Every
    /// decode failure surfaces as a typed error; nothing here panics on
    /// torn or truncated artifacts.
    ///
    /// [`SimVfs`]: pimento_faults::vfs
    pub fn from_sharded_dir_vfs(vfs: &dyn Vfs, dir: &Path) -> Result<Self, Error> {
        let read = |name: &str| {
            let path = dir.join(name);
            vfs.read(&path)
                .map_err(|e| crate::error::classify_io(&path, &e))
        };
        let manifest = read_manifest(vfs, dir)?;
        let mut segments = Vec::with_capacity(manifest.segments.len());
        for entry in &manifest.segments {
            let mut db = Database::open(&read(&entry.file)?)?;
            if db.coll.len() as u32 != entry.docs {
                return Err(Error::Snapshot(pimento_index::PersistError::BadManifest(
                    "segment document count disagrees with its file",
                )));
            }
            if let Some(t) = &entry.tombstones {
                let tombs = entry.parse_tombstones(&read(t)?)?;
                db = db.with_tombstones(Some(Arc::new(tombs)));
            }
            segments.push(Arc::new(Segment::new(db, entry.doc_base)));
        }
        let mut engine = Engine::over(segments, Some(pimento_index::COLUMNAR_VERSION))
            .at_generation(manifest.generation);
        engine.opened_from = Some((dir.to_path_buf(), manifest));
        Ok(engine)
    }

    /// The directory and committed manifest this engine was opened from
    /// by [`Engine::from_sharded_dir_vfs`]; `None` for every other engine,
    /// including each one derived from it. The write path adopts a data
    /// directory's manifest instead of rewriting it only when this names
    /// that directory and that manifest.
    pub fn opened_from(&self) -> Option<(&Path, &ShardManifest)> {
        self.opened_from.as_ref().map(|(dir, m)| (dir.as_path(), m))
    }

    /// Reopen an engine from a columnar (v4) snapshot: every section is
    /// validated and decoded here, once, into the same indexes a build
    /// from XML produces — a malformed file is a typed error from this
    /// call, and queries never see how the engine was obtained. A file in
    /// an earlier format (`PIMCOL1`–`PIMCOL3`) is rejected by magic with
    /// the typed `SnapshotVersion` error; nothing of it is decoded.
    pub fn from_snapshot(data: &[u8]) -> Result<Self, Error> {
        Ok(Engine::over(
            vec![Arc::new(Segment::new(Database::open(data)?, 0))],
            Some(pimento_index::COLUMNAR_VERSION),
        ))
    }

    /// [`Engine::from_snapshot`] for callers holding the file as [`Bytes`];
    /// the buffer is released when this returns.
    ///
    /// [`Bytes`]: bytes::Bytes
    pub fn from_snapshot_bytes(data: bytes::Bytes) -> Result<Self, Error> {
        Self::from_snapshot(&data)
    }

    /// Snapshot format version this engine was opened from, if any.
    pub fn snapshot_format(&self) -> Option<u32> {
        self.snapshot_format
    }

    /// The primary (first) segment's indexed database — the whole corpus
    /// unless the engine was resharded. Panics only if the non-empty
    /// segment invariant is broken, which every constructor enforces;
    /// internal search paths use the fallible accessor instead.
    pub fn db(&self) -> &Database {
        self.segments[0].db()
    }

    /// The doc-range segments in corpus order (one segment, base 0, for
    /// a monolithic engine).
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Number of segments (1 = monolithic).
    pub fn shard_count(&self) -> usize {
        self.segments.len()
    }

    /// Total documents across all segments.
    pub fn num_docs(&self) -> usize {
        self.segments.iter().map(|s| s.doc_count()).sum()
    }

    /// Resolve a corpus-global doc id to its owning segment and the
    /// segment-local doc id. `None` when the id is outside every segment.
    fn locate(&self, doc: DocId) -> Option<(&Arc<Segment>, DocId)> {
        for seg in &self.segments {
            let base = seg.doc_base();
            if doc.0 >= base && ((doc.0 - base) as usize) < seg.doc_count() {
                return Some((seg, DocId(doc.0 - base)));
            }
        }
        None
    }

    /// Flatten every segment back into one collection in corpus order,
    /// carrying the full symbol table. The *newest* segment's table is
    /// the corpus table: delta segments extend it append-only, so it is
    /// a superset of every older segment's copy with identical ids on
    /// the shared prefix. Tombstoned documents are left out, so the
    /// survivors are renumbered in corpus order — exactly the ids a
    /// monolithic build of the live documents assigns.
    fn collapse_collection(&self) -> Collection {
        let symbols = self
            .segments
            .last()
            .map(|seg| seg.db().coll.symbols().clone())
            .unwrap_or_default();
        let mut docs = Vec::with_capacity(self.num_docs());
        for seg in &self.segments {
            let db = seg.db();
            for (doc_id, doc) in db.coll.iter() {
                if db.is_deleted(doc_id) {
                    continue;
                }
                docs.push(doc.clone());
            }
        }
        Collection::from_parts(symbols, docs)
    }

    /// Rebuild this engine's live corpus as `shards` doc-range segments
    /// (the sharded builder). Tombstoned documents are dropped, as in
    /// [`Engine::compacted`]. Each segment is indexed independently over
    /// its slice but carries the full corpus symbol table, so prepared
    /// plans remain valid across segments and scatter-gather results are
    /// bit-identical to the monolithic scan.
    /// `shards <= 1` (or a corpus of at most one document) rebuilds the
    /// monolithic engine.
    pub fn reshard(&self, shards: usize) -> Result<Engine, Error> {
        self.rebuild_live(|n| split_ranges(n, shards))
    }

    /// Like [`Engine::reshard`], but with explicit interior split points
    /// (indexes into the live documents). Out-of-range and duplicate
    /// boundaries are ignored. Exists so equivalence tests can drive
    /// *arbitrary* doc-range partitions, not just the even ones.
    pub fn reshard_at(&self, boundaries: &[usize]) -> Result<Engine, Error> {
        self.rebuild_live(|n| {
            let mut cuts: Vec<usize> = boundaries
                .iter()
                .copied()
                .filter(|&b| b > 0 && b < n)
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut ranges = Vec::with_capacity(cuts.len() + 1);
            let mut start = 0usize;
            for cut in cuts {
                ranges.push(start..cut);
                start = cut;
            }
            ranges.push(start..n);
            ranges
        })
    }

    /// Index the live corpus as the doc-range segments `ranges` cuts from
    /// its document count.
    fn rebuild_live(
        &self,
        ranges: impl FnOnce(usize) -> Vec<Range<usize>>,
    ) -> Result<Engine, Error> {
        let tokenizer = self.seg_newest()?.db().inverted.tokenizer();
        let live = self.collapse_collection();
        let ranges = ranges(live.len());
        Ok(Self::build_sharded(live, tokenizer, &ranges))
    }

    /// Index `full` as one segment per range, or whole as one segment
    /// when `ranges` has at most one — where every engine that indexes
    /// documents is made.
    fn build_sharded(full: Collection, tokenizer: Tokenizer, ranges: &[Range<usize>]) -> Engine {
        let segment = |coll, base| Arc::new(Segment::new(Database::index(coll, tokenizer), base));
        let segments = if ranges.len() <= 1 {
            vec![segment(full, 0)]
        } else {
            ranges
                .iter()
                .map(|r| segment(full.subset(r.clone()), r.start as u32))
                .collect()
        };
        Engine::over(segments, None)
    }

    // ------------------------------------------------------------------
    // The write path (DESIGN.md §16): pure transforms producing the next
    // corpus generation. The engine itself is immutable — `pimento-ingest`
    // owns the swap cell and the durability protocol around these.
    // ------------------------------------------------------------------

    /// A new engine with `docs` appended as one immutable delta segment,
    /// at generation `generation() + 1`.
    ///
    /// The delta's collection starts from the newest segment's symbol
    /// table (append-only extension: existing ids keep their meaning,
    /// new tags intern past the old ceiling). Indexing the batch is the
    /// whole cost: the existing segments are shared with this engine, not
    /// touched, and the grown corpus statistics are summed when the next
    /// query is prepared — which keeps scatter-gather results
    /// bit-identical to a monolithic rebuild of the whole corpus.
    pub fn with_ingested<S: AsRef<str>>(&self, docs: &[S]) -> Result<Engine, Error> {
        if docs.is_empty() {
            return Err(Error::Ingest("empty document batch".to_string()));
        }
        let newest = self.seg_newest()?.db();
        let mut delta = Collection::from_parts(newest.coll.symbols().clone(), Vec::new());
        for doc in docs {
            delta.add_xml(doc.as_ref())?;
        }
        let delta = Database::index(delta, newest.inverted.tokenizer());
        let mut segments = self.segments.clone();
        segments.push(Arc::new(Segment::new(delta, self.num_docs() as u32)));
        Ok(Engine::over(segments, None).at_generation(self.generation + 1))
    }

    /// A new engine with the given corpus-global doc ids tombstoned, at
    /// generation `generation() + 1`, plus the count of documents that
    /// were live before this call.
    ///
    /// Tombstoned documents vanish from query results immediately (they
    /// are dropped at the base of every per-segment scan), but scoring
    /// statistics keep counting them until the next merge compaction
    /// rebuilds the corpus without them — Lucene's delete semantics,
    /// documented in DESIGN.md §16. Unknown ids are a typed error;
    /// deleting an already-deleted document is a no-op.
    pub fn with_deletes(&self, ids: &[u32]) -> Result<(Engine, usize), Error> {
        if ids.is_empty() {
            return Err(Error::Ingest("empty delete batch".to_string()));
        }
        let num_docs = self.num_docs() as u32;
        // Per-segment new tombstone sets, cloned lazily from the current.
        let mut sets: Vec<Option<TombstoneSet>> = vec![None; self.segments.len()];
        let mut newly = 0usize;
        for &id in ids {
            if id >= num_docs {
                return Err(Error::Ingest(format!(
                    "document id {id} outside the corpus (0..{num_docs})"
                )));
            }
            let (index, local) = self
                .segments
                .iter()
                .position(|seg| {
                    id >= seg.doc_base() && ((id - seg.doc_base()) as usize) < seg.doc_count()
                })
                .map(|i| (i, DocId(id - self.segments[i].doc_base())))
                .ok_or(Error::Shard("doc id outside every segment"))?;
            let set = sets[index].get_or_insert_with(|| {
                self.segments[index]
                    .db()
                    .tombstones()
                    .map(|t| (**t).clone())
                    .unwrap_or_default()
            });
            if set.insert(local) {
                newly += 1;
            }
        }
        let segments = self
            .segments
            .iter()
            .zip(sets)
            .map(|(seg, set)| match set {
                Some(set) => Arc::new(Segment::new(
                    seg.db().with_tombstones(Some(Arc::new(set))),
                    seg.doc_base(),
                )),
                None => Arc::clone(seg),
            })
            .collect();
        Ok((
            Engine::over(segments, None).at_generation(self.generation + 1),
            newly,
        ))
    }

    /// Merge compaction: rebuild the live corpus (tombstoned documents
    /// dropped, surviving documents renumbered in corpus order — exactly
    /// the ids a monolithic rebuild would assign) as `shards` doc-range
    /// segments, at generation `generation() + 1`.
    pub fn compacted(&self, shards: usize) -> Result<Engine, Error> {
        let live = self.reshard(shards)?;
        if live.num_docs() == 0 {
            return Err(Error::Ingest(
                "compaction would empty the corpus entirely".to_string(),
            ));
        }
        Ok(live.at_generation(self.generation + 1))
    }

    /// Number of tombstoned (deleted but not yet merged away) documents.
    pub fn deleted_docs(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.db().deleted_count() as usize)
            .sum()
    }

    /// Documents visible to queries: total minus tombstoned.
    pub fn live_docs(&self) -> usize {
        self.num_docs() - self.deleted_docs()
    }

    /// Personalize `query` under `profile`: run the static analyses and
    /// produce the annotated query (flock encoding) without executing it.
    pub fn personalize(
        &self,
        query: &str,
        profile: &UserProfile,
    ) -> Result<PersonalizedQuery, Error> {
        let tpq = parse_tpq(query)?;
        Ok(profile.enforce_scoping(&tpq)?)
    }

    /// Full personalized search: rewrite, plan, execute, rank, top-k.
    pub fn search(
        &self,
        query: &str,
        profile: &UserProfile,
        opts: &SearchOptions,
    ) -> Result<SearchResults, Error> {
        let tpq = parse_tpq(query)?;
        self.search_tpq(&tpq, profile, opts)
    }

    /// Like [`Engine::search`], for an already-built pattern.
    pub fn search_tpq(
        &self,
        query: &Tpq,
        profile: &UserProfile,
        opts: &SearchOptions,
    ) -> Result<SearchResults, Error> {
        let prepared = self.prepare_tpq(query, profile)?;
        self.run_prepared(&prepared, opts)
    }

    /// Compile a query + profile into a reusable [`PreparedSearch`]: the
    /// static analysis, flock encoding, and keyword analysis run once;
    /// [`Engine::run_prepared`] then executes with different options
    /// (k, strategy, pagination) without re-preparing.
    pub fn prepare(&self, query: &str, profile: &UserProfile) -> Result<PreparedSearch, Error> {
        let tpq = parse_tpq(query)?;
        self.prepare_tpq(&tpq, profile)
    }

    fn prepare_tpq(&self, query: &Tpq, profile: &UserProfile) -> Result<PreparedSearch, Error> {
        let pq = profile.enforce_scoping(query)?;
        // Static-verifier consistency (debug builds): scoping succeeded,
        // so the combined verifier must not report an unresolvable SR
        // conflict cycle for the same profile/query pair. (VOR ambiguity
        // is deliberately not asserted here — an ambiguous profile still
        // executes under top-k, over its incomparable frontier; the
        // `pimento lint` subcommand is the gate for those.)
        if cfg!(debug_assertions) {
            let report = profile.verify(query);
            debug_assert!(
                !report.has_sr_cycle(),
                "enforce_scoping succeeded but Profile::verify reports an SR conflict cycle:\n{report}"
            );
        }
        // The matcher resolves names against the *newest* segment's
        // database, but it is valid for *every* segment: symbol ids are
        // corpus-global (the newest table is the append-only superset of
        // every older segment's copy), and each keyword predicate's
        // `nidf` and score ceiling come from document counts summed over
        // all segment indexes, here and nowhere else — so one prepared
        // search runs unchanged on every segment's lane.
        let corpus: Vec<&InvertedIndex> =
            self.segments.iter().map(|s| &s.db().inverted).collect();
        Ok(PreparedSearch {
            matcher: Arc::new(Matcher::new(self.seg_newest()?.db(), pq, &corpus)),
            kors: profile.kors.clone(),
            rank: RankContext::new(profile.vors.clone(), profile.rank_order),
            profile: profile.clone(),
        })
    }

    /// Execute a [`PreparedSearch`] with the given options, on the lane
    /// count `opts.threads` resolves to.
    pub fn run_prepared(
        &self,
        prepared: &PreparedSearch,
        opts: &SearchOptions,
    ) -> Result<SearchResults, Error> {
        self.run_prepared_lanes(prepared, opts, resolve_lanes(opts.threads))
    }

    /// [`Engine::run_prepared`] on exactly `lanes` lanes, ignoring
    /// `opts.threads` and the machine's core count — the entry point for
    /// tests and benches that must force more lanes than cores.
    pub fn run_prepared_lanes(
        &self,
        prepared: &PreparedSearch,
        opts: &SearchOptions,
        lanes: usize,
    ) -> Result<SearchResults, Error> {
        if opts.k == 0 {
            return Err(Error::InvalidK);
        }
        let matcher = &prepared.matcher;
        let run = execute_lanes(
            &self.segments,
            matcher,
            &prepared.kors,
            &prepared.rank,
            Self::plan_spec(opts),
            lanes,
        );
        let hits = run
            .answers
            .into_iter()
            .skip(opts.offset)
            .enumerate()
            .map(|(i, a)| self.materialize_hit(matcher, &prepared.profile, opts.offset + i + 1, a))
            .collect::<Result<Vec<_>, Error>>()?;
        Ok(SearchResults {
            hits,
            stats: run.stats,
            lanes: run.lanes,
            explain: run.explain,
            trace: run.trace,
            applied_rules: matcher.personalized().flock.applied_rules.clone(),
            skipped_rules: matcher.personalized().flock.skipped_rules.clone(),
            flock_size: matcher.personalized().flock.members.len(),
        })
    }

    /// Turn a ranked answer (global doc ids) into a display hit: resolve
    /// the owning segment, materialize snippet/XML against that segment's
    /// database with the segment-local doc id, annotate provenance, then
    /// restore the global id. On a monolithic engine this is the identity
    /// mapping (one segment, base 0).
    fn materialize_hit(
        &self,
        matcher: &Matcher,
        profile: &UserProfile,
        rank: usize,
        mut a: Answer,
    ) -> Result<SearchResult, Error> {
        let (seg, local) = self
            .locate(a.elem.doc)
            .ok_or(Error::Shard("answer references a document outside every segment"))?;
        let global = a.elem.doc;
        a.elem.doc = local;
        let mut hit = SearchResult::from_answer(seg.db(), rank, a);
        Self::annotate_hit(seg.db(), matcher, profile, &mut hit);
        hit.elem.doc = global;
        Ok(hit)
    }
    /// The plan spec `opts` selects, targeting the top `k + offset` so
    /// pruning bounds stay exact under pagination. Shared by
    /// [`Engine::run_prepared`] and [`Engine::explain_prepared`] so what
    /// EXPLAIN shows is what runs.
    fn plan_spec(opts: &SearchOptions) -> PlanSpec {
        PlanSpec {
            k: opts.k + opts.offset,
            strategy: opts.strategy,
            kor_order: opts.kor_order,
            trace: opts.trace,
        }
    }

    /// What [`Engine::run_prepared`] would run for `prepared` under
    /// `opts` — exactly the string its `SearchResults::explain` carries —
    /// without executing it. Backs the `explain` protocol command.
    pub fn explain_prepared(
        &self,
        prepared: &PreparedSearch,
        opts: &SearchOptions,
    ) -> Result<String, Error> {
        if opts.k == 0 {
            return Err(Error::InvalidK);
        }
        Ok(explain_lanes(
            &self.segments,
            &prepared.matcher,
            &prepared.kors,
            &prepared.rank,
            Self::plan_spec(opts),
            resolve_lanes(opts.threads),
        ))
    }

    /// Statically verify the plans [`Engine::run_prepared`] would assemble
    /// for `prepared` at this `k` — one [`pimento_algebra::PlanShape`]
    /// verification per strategy, without executing anything. Used by the
    /// `pimento lint` subcommand.
    pub fn verify_plans(
        &self,
        prepared: &PreparedSearch,
        k: usize,
    ) -> Vec<(
        pimento_algebra::PlanStrategy,
        Result<(), pimento_algebra::PlanVerifyError>,
    )> {
        pimento_algebra::PlanStrategy::all()
            .into_iter()
            .map(|strategy| {
                let plan = build_plan(
                    self.db(),
                    Arc::clone(&prepared.matcher),
                    &prepared.kors,
                    Arc::clone(&prepared.rank),
                    PlanSpec::new(k, strategy),
                );
                (strategy, plan.verify())
            })
            .collect()
    }

    /// Post-hoc provenance: which KORs and which SR-contributed optional
    /// predicates this hit satisfies. Re-evaluating over the top k only is
    /// far cheaper than threading provenance through every operator.
    /// `db` is the owning segment's database and `hit.elem` is addressed
    /// segment-locally at this point.
    fn annotate_hit(db: &Database, matcher: &Matcher, profile: &UserProfile, hit: &mut SearchResult) {
        let elem = pimento_algebra::entry_of(db, hit.elem.doc, hit.elem.node);
        let tag = db
            .coll
            .node(hit.elem)
            .tag()
            .map(|t| db.coll.symbols().name(t))
            .unwrap_or("");
        for kor in &profile.kors {
            if kor.tag != "*" && !kor.tag.eq_ignore_ascii_case(tag) {
                continue;
            }
            let tokens = db.inverted.analyze(&kor.phrase);
            if ft_contains(&db.inverted, &elem, &tokens) {
                hit.satisfied_kors.push(kor.id.clone());
            }
        }
        let mut probes = 0u64;
        for pred in matcher.optional_keywords() {
            if matcher.eval_pred_near(db, &pred, &elem, &mut probes) > 0.0 {
                hit.satisfied_optional.push(pred.describe());
            }
        }
    }
}

/// Read and parse the committed `MANIFEST` of the snapshot directory
/// `dir`: the one manifest reader of the loader and the segment store.
pub fn read_manifest(vfs: &dyn Vfs, dir: &Path) -> Result<ShardManifest, Error> {
    let path = dir.join(MANIFEST_FILE);
    let raw = vfs
        .read(&path)
        .map_err(|e| crate::error::classify_io(&path, &e))?;
    let text = String::from_utf8(raw).map_err(|_| {
        Error::Snapshot(pimento_index::PersistError::BadManifest(
            "manifest is not UTF-8",
        ))
    })?;
    Ok(ShardManifest::parse(&text)?)
}

/// A compiled query + profile pair (see [`Engine::prepare`]). Tied to
/// the engine it was prepared against, and `Send + Sync`: one prepared
/// search is run by the lane tasks of a scatter-gather scan on several
/// threads at once, beside the shared `Arc<Engine>` (a compile-time
/// assertion in the tests pins this guarantee).
pub struct PreparedSearch {
    matcher: Arc<Matcher>,
    kors: Vec<pimento_profile::KeywordOrderingRule>,
    rank: Arc<RankContext>,
    profile: UserProfile,
}

impl PreparedSearch {
    /// Scoping rules that fired during preparation.
    pub fn applied_rules(&self) -> &[String] {
        &self.matcher.personalized().flock.applied_rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimento_profile::{Atom, KeywordOrderingRule, ScopingRule, ValueOrderingRule};

    const CARS: &str = r#"<dealer>
        <car><description>Powerful car. I am selling my 2001 car at the best bid. It is in good condition as I was the only driver. I used it to go to work in NYC.</description><date>2001</date><price>500</price><owner>John Smith</owner><horsepower>200</horsepower></car>
        <car><description>Low mileage. Bought on 11/2005. Eager seller. good condition</description><color>red</color><horsepower>120</horsepower><mileage>50.000</mileage><price>500</price><location>NYC</location></car>
        <car><description>american classic in good condition</description><price>1500</price><color>blue</color><mileage>90000</mileage></car>
        <car><description>rusty</description><price>200</price></car>
    </dealer>"#;

    fn engine() -> Engine {
        Engine::from_xml_docs(&[CARS]).unwrap()
    }

    /// Compile-time pin: the serve layer shares one `Arc<Engine>` across
    /// its worker threads, and the lane tasks of one search borrow the
    /// `PreparedSearch` from several threads at once. If a future change
    /// introduces a non-`Send`/non-`Sync` field (an `Rc`, a `RefCell`),
    /// this stops compiling instead of the server subtly breaking.
    #[test]
    fn prepared_search_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedSearch>();
        assert_send_sync::<Engine>();
    }

    #[test]
    fn unpersonalized_search_ranks_by_s() {
        let e = engine();
        let res = e
            .search(
                r#"//car[ftcontains(., "good condition") and ./price < 2000]"#,
                &UserProfile::new(),
                &SearchOptions::top(3),
            )
            .unwrap();
        assert_eq!(res.hits.len(), 3);
        assert!(res.hits[0].s >= res.hits[1].s);
        assert_eq!(res.flock_size, 1);
    }

    #[test]
    fn paper_running_example_end_to_end() {
        let e = engine();
        // Profile: ρ2 (add "american"), ρ3 (drop "low mileage"), π1 (red
        // preferred), π4/π5 (best bid / NYC KORs).
        let profile = UserProfile::new()
            .with_scoping(ScopingRule::add(
                "rho2",
                vec![
                    Atom::pc("car", "description"),
                    Atom::ft("description", "good condition"),
                ],
                vec![Atom::ft("description", "american")],
            ))
            .with_scoping(ScopingRule::delete(
                "rho3",
                vec![
                    Atom::pc("car", "description"),
                    Atom::ft("description", "good condition"),
                ],
                vec![Atom::ft("description", "low mileage")],
            ))
            .with_vor(ValueOrderingRule::prefer_value(
                "pi1", "car", "color", "red",
            ))
            .with_kor(KeywordOrderingRule::new("pi4", "car", "best bid"))
            .with_kor(KeywordOrderingRule::new("pi5", "car", "NYC"));
        let query = r#"//car[./description[ftcontains(., "good condition") and ftcontains(., "low mileage")] and ./price < 2000]"#;
        let res = e.search(query, &profile, &SearchOptions::top(3)).unwrap();
        // Without the profile only car 2 matches (good condition + low
        // mileage + price). With ρ3 the "low mileage" requirement is
        // optional, so cars 1 and 3 qualify too.
        assert_eq!(res.hits.len(), 3);
        assert_eq!(res.applied_rules, vec!["rho2", "rho3"]);
        // Car 1 satisfies both KORs (best bid + NYC) → ranked first.
        assert!(
            res.hits[0].k >= 2.0 - 1e-9,
            "K of top hit: {}",
            res.hits[0].k
        );
        assert!(res.hits[0].text.contains("best bid"));
    }

    #[test]
    fn vor_breaks_kor_ties() {
        let e = engine();
        let profile = UserProfile::new().with_vor(ValueOrderingRule::prefer_value(
            "pi1", "car", "color", "red",
        ));
        let res = e
            .search(
                r#"//car[ftcontains(., "good condition")]"#,
                &profile,
                &SearchOptions::top(3),
            )
            .unwrap();
        // All tie on K = 0; the red car must beat the blue/colorless ones
        // in its V layer... among answers with equal K the red one leads.
        assert!(res.hits[0].text.contains("red") || res.hits[0].xml.contains("red"));
    }

    #[test]
    fn invalid_inputs() {
        let e = engine();
        assert!(matches!(
            e.search("//car[", &UserProfile::new(), &SearchOptions::top(1)),
            Err(Error::Query(_))
        ));
        assert!(matches!(
            e.search("//car", &UserProfile::new(), &SearchOptions::top(0)),
            Err(Error::InvalidK)
        ));
        assert!(Engine::from_xml_docs(&["<broken>"]).is_err());
    }

    #[test]
    fn explain_is_populated() {
        let e = engine();
        let res = e
            .search("//car", &UserProfile::new(), &SearchOptions::top(1))
            .unwrap();
        assert!(res.explain.contains("QueryEval"));
        assert!(res.explain.contains("topkPrune"));
    }

    #[test]
    fn stats_populated() {
        let e = engine();
        let res = e
            .search("//car", &UserProfile::new(), &SearchOptions::top(2))
            .unwrap();
        assert_eq!(res.stats.base_answers, 4);
        assert_eq!(res.stats.emitted, 2);
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use pimento_profile::UserProfile;

    #[test]
    fn snapshot_roundtrip_preserves_search_results() {
        let docs: Vec<String> = (0..4)
            .map(|i| pimento_datagen::generate_dealer(i, 15))
            .collect();
        let original = Engine::from_xml_docs(&docs).unwrap();
        let snapshot = original.save_snapshot();
        let restored = Engine::from_snapshot(&snapshot).unwrap();
        let q = r#"//car[ftcontains(., "good condition")]"#;
        let a = original
            .search(q, &UserProfile::new(), &SearchOptions::top(10))
            .unwrap();
        let b = restored
            .search(q, &UserProfile::new(), &SearchOptions::top(10))
            .unwrap();
        assert_eq!(a.elem_refs(), b.elem_refs());
        assert!(Engine::from_snapshot(&snapshot[..5]).is_err());
    }

    #[test]
    fn columnar_snapshot_reopens_to_the_built_indexes_and_reports_format() {
        let docs: Vec<String> = (0..3)
            .map(|i| pimento_datagen::generate_dealer(i, 8))
            .collect();
        let original = Engine::from_xml_docs(&docs).unwrap();
        assert_eq!(original.snapshot_format(), None);

        let v4 = original.save_snapshot();
        let opened = Engine::from_snapshot_bytes(bytes::Bytes::from(v4.to_vec())).unwrap();
        assert_eq!(
            opened.snapshot_format(),
            Some(pimento_index::COLUMNAR_VERSION)
        );
        assert_eq!(opened.db().tags, original.db().tags);
        assert_eq!(opened.db().inverted, original.db().inverted);

        let q = r#"//car[ftcontains(., "good condition")]"#;
        let a = original
            .search(q, &UserProfile::new(), &SearchOptions::top(10))
            .unwrap();
        let b = opened
            .search(q, &UserProfile::new(), &SearchOptions::top(10))
            .unwrap();
        assert_eq!(a.elem_refs(), b.elem_refs());
        let bits = |r: &SearchResults| -> Vec<(u64, u64)> {
            r.hits
                .iter()
                .map(|h| (h.s.to_bits(), h.k.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn parallel_ingest_matches_sequential() {
        let docs: Vec<String> = (0..8)
            .map(|i| pimento_datagen::generate_dealer(100 + i, 10))
            .collect();
        let seq = Engine::from_xml_docs(&docs).unwrap();
        let par = Engine::from_xml_docs_parallel(&docs, 4).unwrap();
        let q = r#"//car[./price < 2000]"#;
        let a = seq
            .search(q, &UserProfile::new(), &SearchOptions::top(20))
            .unwrap();
        let b = par
            .search(q, &UserProfile::new(), &SearchOptions::top(20))
            .unwrap();
        assert_eq!(a.elem_refs().len(), b.elem_refs().len());
    }
}

#[cfg(test)]
mod provenance_tests {
    use super::*;
    use pimento_profile::{Atom, KeywordOrderingRule, ScopingRule, UserProfile};

    #[test]
    fn hits_carry_kor_and_sr_provenance() {
        let e = Engine::from_xml_docs(&[r#"<dealer>
            <car><description>good condition in NYC with american flair</description><price>100</price></car>
            <car><description>good condition</description><price>200</price></car>
        </dealer>"#])
        .unwrap();
        let profile = UserProfile::new()
            .with_scoping(ScopingRule::add(
                "rho2",
                vec![Atom::ft("description", "good condition")],
                vec![Atom::ft("description", "american")],
            ))
            .with_kor(KeywordOrderingRule::new("pi5", "car", "NYC"));
        let res = e
            .search(
                r#"//car[ftcontains(./description, "good condition")]"#,
                &profile,
                &SearchOptions::top(2),
            )
            .unwrap();
        assert_eq!(res.applied_rules, vec!["rho2"]);
        let top = &res.hits[0];
        assert!(top.text.contains("NYC"));
        assert_eq!(top.satisfied_kors, vec!["pi5"]);
        assert_eq!(top.satisfied_optional, vec!["american"]);
        let second = &res.hits[1];
        assert!(second.satisfied_kors.is_empty());
        assert!(second.satisfied_optional.is_empty());
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use pimento_profile::{KeywordOrderingRule, UserProfile};

    #[test]
    fn trace_reports_per_operator_rows() {
        let e = Engine::from_xml_docs(&[pimento_datagen::generate_dealer(5, 60)]).unwrap();
        let profile = UserProfile::new().with_kor(KeywordOrderingRule::new("nyc", "car", "NYC"));
        let opts = SearchOptions {
            trace: true,
            ..SearchOptions::top(5)
        };
        let res = e
            .search(r#"//car[ftcontains(., "good condition")]"#, &profile, &opts)
            .unwrap();
        assert!(res.trace.contains("QueryEval"), "{}", res.trace);
        assert!(res.trace.contains("kor[nyc]"), "{}", res.trace);
        assert!(res.trace.contains("topkPrune(final)"), "{}", res.trace);
        // Untraced runs carry no report.
        let res2 = e
            .search(r#"//car"#, &profile, &SearchOptions::top(5))
            .unwrap();
        assert!(res2.trace.is_empty());
    }
}

#[cfg(test)]
mod prepared_tests {
    use super::*;
    use pimento_profile::{KeywordOrderingRule, UserProfile};

    #[test]
    fn prepared_search_reuses_across_options() {
        let e = Engine::from_xml_docs(&[pimento_datagen::generate_dealer(17, 40)]).unwrap();
        let profile = UserProfile::new().with_kor(KeywordOrderingRule::new("nyc", "car", "NYC"));
        let q = r#"//car[ftcontains(., "good condition")]"#;
        let prepared = e.prepare(q, &profile).unwrap();
        let top3 = e.run_prepared(&prepared, &SearchOptions::top(3)).unwrap();
        let top5 = e.run_prepared(&prepared, &SearchOptions::top(5)).unwrap();
        assert_eq!(top3.hits.len().min(3), top3.hits.len());
        assert_eq!(
            top5.elem_refs()[..top3.hits.len()],
            top3.elem_refs()[..],
            "prefix stability across k"
        );
        // Same answers as the unprepared path.
        let direct = e.search(q, &profile, &SearchOptions::top(5)).unwrap();
        assert_eq!(direct.elem_refs(), top5.elem_refs());
        // Invalid k still rejected.
        assert!(e
            .run_prepared(
                &prepared,
                &SearchOptions {
                    k: 0,
                    ..SearchOptions::top(1)
                }
            )
            .is_err());
    }
}

#[cfg(test)]
mod mutate_tests {
    //! Corpus transforms behind the ingest write path: every derived
    //! engine must answer queries bit-identically to a monolithic rebuild
    //! of the same live documents, and the sharded v2 snapshot round-trip
    //! must preserve tombstones and the corpus generation.
    use super::*;

    fn dealer(i: u64) -> String {
        pimento_datagen::generate_dealer(i, 12)
    }

    fn bits(e: &Engine, query: &str) -> Vec<(u32, u32, u64, u64)> {
        let res = e
            .search(query, &UserProfile::new(), &SearchOptions::top(32))
            .unwrap();
        res.hits
            .iter()
            .map(|h| (h.elem.doc.0, h.elem.node.0, h.s.to_bits(), h.k.to_bits()))
            .collect()
    }

    const Q: &str = r#"//car[ftcontains(., "good condition") and ./price < 9000]"#;

    #[test]
    fn ingested_engine_matches_monolithic_rebuild() {
        let base: Vec<String> = (0..3).map(dealer).collect();
        let extra: Vec<String> = (3..5).map(dealer).collect();
        let grown = Engine::from_xml_docs(&base)
            .unwrap()
            .with_ingested(&extra)
            .unwrap();
        assert_eq!(grown.generation(), 1);
        assert_eq!(grown.num_docs(), 5);
        let all: Vec<String> = base.iter().chain(&extra).cloned().collect();
        let monolithic = Engine::from_xml_docs(&all).unwrap();
        assert_eq!(bits(&grown, Q), bits(&monolithic, Q));
    }

    #[test]
    fn deletes_then_compaction_match_a_rebuild_without_the_victims() {
        let docs: Vec<String> = (0..5).map(dealer).collect();
        let (engine, n) = Engine::from_xml_docs(&docs)
            .unwrap()
            .with_ingested(&[dealer(5)])
            .unwrap()
            .with_deletes(&[1, 4])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(engine.generation(), 2);
        assert_eq!(engine.live_docs(), 4);
        assert_eq!(engine.deleted_docs(), 2);

        // Tombstoned docs never appear in results...
        let hits = bits(&engine, Q);
        assert!(hits.iter().all(|h| h.0 != 1 && h.0 != 4), "{hits:?}");
        // ...and deleting the same ids again changes nothing (idempotent).
        let (again, n2) = engine.with_deletes(&[1, 4]).unwrap();
        assert_eq!(n2, 0);
        assert_eq!(again.deleted_docs(), 2);

        // Compaction drops the tombstoned docs physically; surviving docs
        // are renumbered densely, so compare score multisets rather than
        // ids against a rebuild of only the survivors.
        let compacted = engine.compacted(2).unwrap();
        assert_eq!(compacted.num_docs(), 4);
        assert_eq!(compacted.deleted_docs(), 0);
        assert_eq!(compacted.generation(), 3);
        let survivors = vec![docs[0].clone(), docs[2].clone(), docs[3].clone(), dealer(5)];
        let rebuilt = Engine::from_xml_docs(&survivors).unwrap();
        let mut a: Vec<(u64, u64)> = bits(&compacted, Q).iter().map(|h| (h.2, h.3)).collect();
        let mut b: Vec<(u64, u64)> = bits(&rebuilt, Q).iter().map(|h| (h.2, h.3)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "scores survive compaction bit-for-bit");
    }

    /// A publish adds a segment and nothing else: the grown engine holds
    /// the parent's segments themselves, not republished copies.
    #[test]
    fn with_ingested_shares_the_parents_segments() {
        let base: Vec<String> = (0..4).map(dealer).collect();
        let parent = Engine::from_xml_docs(&base).unwrap().reshard(2).unwrap();
        let child = parent.with_ingested(&[dealer(4), dealer(5)]).unwrap();
        assert_eq!(child.shard_count(), parent.shard_count() + 1);
        for (kept, old) in child.segments().iter().zip(parent.segments()) {
            assert!(Arc::ptr_eq(kept, old));
        }
        let delta = &child.segments()[parent.shard_count()];
        assert_eq!((delta.doc_base(), delta.doc_count()), (4, 2));
    }

    /// A flat snapshot holds the live corpus — what `compacted(1)` holds —
    /// whether the tombstones sit on one segment or on several.
    #[test]
    fn snapshot_of_an_engine_with_deletes_omits_the_deleted() {
        let docs: Vec<String> = (0..5).map(dealer).collect();
        let one = Engine::from_xml_docs(&docs).unwrap();
        let many = one.with_ingested(&[dealer(5)]).unwrap();
        for engine in [one, many] {
            let (deleted, _) = engine.with_deletes(&[1, 4]).unwrap();
            let reopened = Engine::from_snapshot(&deleted.save_snapshot()).unwrap();
            let compacted = deleted.compacted(1).unwrap();
            assert_eq!(reopened.num_docs(), deleted.live_docs());
            assert_eq!(reopened.deleted_docs(), 0);
            assert_eq!(bits(&reopened, Q), bits(&compacted, Q));
            assert!(!bits(&reopened, Q).is_empty());
        }
    }

    /// Resharding rebuilds the live corpus: a deleted document is never
    /// served again, whatever the segment count.
    #[test]
    fn reshard_of_an_engine_with_deletes_equals_compaction() {
        let docs: Vec<String> = (0..5).map(dealer).collect();
        let one = Engine::from_xml_docs(&docs).unwrap();
        let many = one.with_ingested(&[dealer(5)]).unwrap();
        for engine in [one, many] {
            let (deleted, _) = engine.with_deletes(&[1, 4]).unwrap();
            let compacted = deleted.compacted(1).unwrap();
            assert!(!bits(&compacted, Q).is_empty());
            for n in [1, 2, 4] {
                let resharded = deleted.reshard(n).unwrap();
                assert_eq!(resharded.num_docs(), deleted.live_docs(), "n={n}");
                assert_eq!(resharded.deleted_docs(), 0, "n={n}");
                assert_eq!(bits(&resharded, Q), bits(&compacted, Q), "n={n}");
            }
        }
    }
}

#[cfg(test)]
mod corpus_stats_tests {
    //! Scoring statistics are summed over segment indexes at prepare
    //! (`pimento_index::score`): over any doc-range partition the sums
    //! must be the integers — and `nidf` the bits — of the one index over
    //! the whole corpus.
    use super::*;
    use pimento_index::score;
    use proptest::prelude::*;

    const WORDS: [&str; 8] = [
        "good", "condition", "low", "mileage", "red", "nyc", "classic", "bid",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn summed_statistics_equal_the_monolithic_index(
            docs in proptest::collection::vec(proptest::collection::vec(0usize..8, 0..7), 1..12),
            cuts in proptest::collection::vec(0usize..12, 0..6),
        ) {
            let xmls: Vec<String> = docs
                .iter()
                .map(|words| {
                    let text: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
                    format!("<d>{}</d>", text.join(" "))
                })
                .collect();
            let mono = Engine::from_xml_docs(&xmls).unwrap();
            let sharded = mono.reshard_at(&cuts).unwrap();
            let whole = [&mono.db().inverted];
            let parts: Vec<&InvertedIndex> =
                sharded.segments().iter().map(|s| &s.db().inverted).collect();
            for word in WORDS.iter().chain(&["unseen"]) {
                prop_assert_eq!(
                    score::doc_freq(&parts, word),
                    mono.db().inverted.doc_freq(word),
                    "df of {} over {} segments", word, parts.len()
                );
                let phrase = [word.to_string(), WORDS[0].to_string()];
                for tokens in [&phrase[..1], &phrase[..]] {
                    prop_assert_eq!(
                        score::nidf(&parts, tokens).to_bits(),
                        score::nidf(&whole, tokens).to_bits(),
                        "nidf of {:?} over {} segments", tokens, parts.len()
                    );
                }
            }
        }
    }
}
