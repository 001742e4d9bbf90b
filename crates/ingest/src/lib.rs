//! # pimento-ingest
//!
//! The online write path of the PIMENTO reproduction (DESIGN.md §16):
//! a back office that turns a read-only scatter-gather engine into a
//! live corpus without giving up any of its reader guarantees.
//!
//! Three pieces:
//!
//! * [`LiveEngine`] — the swap cell. Readers load one `Arc<Engine>`
//!   per request; publication is an atomic pointer swap stamped with a
//!   monotonically increasing **corpus generation**.
//! * [`SegmentStore`] — crash-safe persistence, and the one owner of a
//!   segment directory (writer, names, gc, [`store::verify`]).
//!   Generation-stamped segment files and tombstone sidecars, committed
//!   by an atomic `MANIFEST` rename (temp → fsync → rename → dir-fsync);
//!   a restart recovers exactly the last committed generation.
//! * [`Ingestor`] — the single writer. Adds become immutable delta
//!   segments that reuse the full-corpus symbol table and recompute
//!   corpus-global scoring stats (so compiled plans stay
//!   segment-agnostic and results stay bit-identical to a monolithic
//!   rebuild); deletes become tombstone bitmaps consulted at scatter
//!   time; a background merger compacts both back into the doc-range
//!   layout. Ordering is always persist-then-publish.
//!
//! ```
//! use pimento::Engine;
//! use pimento_index::Collection;
//! use pimento_ingest::{Ingestor, IngestConfig, LiveEngine};
//! use std::sync::Arc;
//!
//! let mut coll = Collection::new();
//! coll.add_xml("<library><book><title>seed</title></book></library>").unwrap();
//! let live = Arc::new(LiveEngine::new(Engine::new(coll)));
//! let ingestor = Ingestor::new(Arc::clone(&live), IngestConfig::default()).unwrap();
//!
//! let receipt = ingestor
//!     .add_documents(&["<library><book><title>new arrival</title></book></library>"])
//!     .unwrap();
//! assert_eq!(receipt.generation, 1);
//! assert_eq!(live.load().num_docs(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod live;
pub mod store;
pub mod writer;

pub use live::LiveEngine;
pub use store::SegmentStore;
pub use writer::{spawn_merger, IngestConfig, IngestReceipt, Ingestor, MergerHandle};

#[cfg(test)]
mod pipeline_tests {
    use super::*;
    use pimento::Engine;
    use pimento_index::Collection;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn doc(i: usize) -> String {
        format!(
            "<book><title>title{i}</title><body>shared word{} extra</body></book>",
            i % 3
        )
    }

    fn seed_engine(n: usize) -> Engine {
        let mut coll = Collection::new();
        for i in 0..n {
            coll.add_xml(&doc(i)).unwrap();
        }
        Engine::new(coll)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pimento-ingest-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Top-k scores against a query, as raw bits — the bit-identity
    /// oracle used across the ingest suite.
    fn score_bits(engine: &Engine, query: &str) -> Vec<(u32, u32, u64)> {
        let results = engine
            .search(
                query,
                &pimento::profile::UserProfile::default(),
                &pimento::SearchOptions::top(64),
            )
            .unwrap();
        results
            .hits
            .iter()
            .map(|h| (h.elem.doc.0, h.elem.node.0, h.s.to_bits()))
            .collect()
    }

    /// Monolithic rebuild of the same live corpus: the ground truth
    /// every published generation must match bit-for-bit.
    fn monolithic(docs: &[String]) -> Engine {
        let mut coll = Collection::new();
        for d in docs {
            coll.add_xml(d).unwrap();
        }
        Engine::new(coll)
    }

    #[test]
    fn adds_publish_and_match_monolithic_rebuild() {
        let live = Arc::new(LiveEngine::new(seed_engine(3)));
        let ing = Ingestor::new(Arc::clone(&live), IngestConfig::default()).unwrap();
        let r1 = ing.add_documents(&[doc(3), doc(4)]).unwrap();
        assert_eq!((r1.generation, r1.docs), (1, 2));
        let r2 = ing.add_documents(&[doc(5)]).unwrap();
        assert_eq!((r2.generation, r2.docs), (2, 1));

        let engine = live.load();
        assert_eq!(engine.num_docs(), 6);
        assert_eq!(engine.shard_count(), 3, "one delta segment per batch");

        let all: Vec<String> = (0..6).map(doc).collect();
        let mono = monolithic(&all);
        for q in ["//book", r#"//book[ftcontains(., "shared")]"#] {
            assert_eq!(score_bits(&engine, q), score_bits(&mono, q), "query {q}");
        }
    }

    #[test]
    fn deletes_hide_immediately_and_merge_compacts() {
        let live = Arc::new(LiveEngine::new(seed_engine(4)));
        let cfg = IngestConfig {
            compact_shards: 2,
            ..IngestConfig::default()
        };
        let ing = Ingestor::new(Arc::clone(&live), cfg).unwrap();
        ing.add_documents(&[doc(4), doc(5)]).unwrap();
        let r = ing.delete_documents(&[1, 4, 1]).unwrap();
        assert_eq!(r.docs, 2, "duplicate ids count once");

        let engine = live.load();
        assert_eq!(engine.num_docs(), 6, "tombstones hide, not renumber");
        assert_eq!(engine.live_docs(), 4);
        let hits = score_bits(&engine, "//book");
        assert_eq!(hits.len(), 4);
        assert!(hits.iter().all(|&(d, _, _)| d != 1 && d != 4));

        let merged = ing.merge_now().unwrap().expect("work to do");
        assert_eq!(merged.docs, 4);
        let engine = live.load();
        assert_eq!(engine.num_docs(), 4, "compaction renumbers");
        assert_eq!(engine.deleted_docs(), 0);
        assert_eq!(engine.shard_count(), 2);

        // Post-merge scores are bit-identical to a monolithic build of
        // the surviving documents in order.
        let survivors: Vec<String> = [0usize, 2, 3, 5].iter().map(|&i| doc(i)).collect();
        let mono = monolithic(&survivors);
        assert_eq!(score_bits(&engine, "//book"), score_bits(&mono, "//book"));
        assert!(ing.merge_now().unwrap().is_none(), "nothing left to merge");
    }

    #[test]
    fn bad_batches_fail_typed_and_change_nothing() {
        let live = Arc::new(LiveEngine::new(seed_engine(2)));
        let ing = Ingestor::new(Arc::clone(&live), IngestConfig::default()).unwrap();
        let empty: &[&str] = &[];
        assert!(matches!(
            ing.add_documents(empty),
            Err(pimento::Error::Ingest(_))
        ));
        assert!(matches!(
            ing.add_documents(&["<unclosed>"]),
            Err(pimento::Error::Xml(_))
        ));
        assert!(matches!(
            ing.delete_documents(&[99]),
            Err(pimento::Error::Ingest(_))
        ));
        let engine = live.load();
        assert_eq!(engine.generation(), 0, "failed writes publish nothing");
        assert_eq!(engine.num_docs(), 2);
    }

    #[test]
    fn persistence_recovers_last_published_generation() {
        let dir = tmp_dir("recover");
        let cfg = IngestConfig {
            data_dir: Some(dir.clone()),
            ..IngestConfig::default()
        };
        let live = Arc::new(LiveEngine::new(seed_engine(3)));
        let ing = Ingestor::new(Arc::clone(&live), cfg.clone()).unwrap();
        ing.add_documents(&[doc(3)]).unwrap();
        ing.delete_documents(&[0]).unwrap();
        let served = live.load();
        assert_eq!(served.generation(), 2);

        // "Restart": recover from the directory alone.
        let store = SegmentStore::open(&dir).unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.generation(), 2);
        assert_eq!(recovered.num_docs(), 4);
        assert_eq!(recovered.deleted_docs(), 1);
        assert_eq!(
            score_bits(&recovered, "//book"),
            score_bits(&served, "//book"),
            "recovered corpus serves identical answers"
        );

        // Re-attaching a writer to the recovered engine adopts the
        // manifest without rewriting anything.
        let live2 = Arc::new(LiveEngine::new(recovered));
        let ing2 = Ingestor::new(Arc::clone(&live2), cfg).unwrap();
        ing2.add_documents(&[doc(9)]).unwrap();
        assert_eq!(live2.load().generation(), 3);
        drop(ing);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A directory is adopted only by the engine opened from it: a
    /// different corpus with the same generation, segment count and
    /// document count is bootstrapped over it, so a restart recovers
    /// what was served.
    #[test]
    fn a_same_count_corpus_is_bootstrapped_not_adopted() {
        let dir = tmp_dir("foreign");
        let cfg = IngestConfig {
            data_dir: Some(dir.clone()),
            ..IngestConfig::default()
        };
        let a = Arc::new(LiveEngine::new(seed_engine(3)));
        drop(Ingestor::new(a, cfg.clone()).unwrap());
        let b_docs: Vec<String> = (10..13).map(doc).collect();
        let b = Arc::new(LiveEngine::new(monolithic(&b_docs)));
        drop(Ingestor::new(Arc::clone(&b), cfg).unwrap());

        let recovered = SegmentStore::open(&dir).unwrap().recover().unwrap();
        let q = r#"//book[ftcontains(., "title10")]"#;
        assert_eq!(score_bits(&recovered, q).len(), 1, "B is on disk");
        assert_eq!(score_bits(&recovered, q), score_bits(&b.load(), q));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merger_thread_compacts_at_threshold_and_shuts_down() {
        let live = Arc::new(LiveEngine::new(seed_engine(2)));
        let cfg = IngestConfig {
            merge_threshold: 2,
            compact_shards: 1,
            ..IngestConfig::default()
        };
        let ing = Arc::new(Ingestor::new(Arc::clone(&live), cfg).unwrap());
        let handle = spawn_merger(&ing).unwrap();
        ing.add_documents(&[doc(2)]).unwrap();
        ing.add_documents(&[doc(3)]).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while ing.merges() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(ing.merges(), 1, "merger compacted at the threshold");
        let engine = live.load();
        assert_eq!(engine.shard_count(), 1);
        assert_eq!(engine.num_docs(), 4);
        ing.shutdown();
        handle.join();
    }

    #[test]
    fn every_publish_bumps_the_live_generation_by_one() {
        let live = Arc::new(LiveEngine::new(seed_engine(2)));
        let ing = Ingestor::new(Arc::clone(&live), IngestConfig::default()).unwrap();
        assert_eq!(live.load().generation(), 0);
        ing.add_documents(&[doc(2)]).unwrap();
        assert_eq!(live.load().generation(), 1);
        ing.delete_documents(&[0]).unwrap();
        assert_eq!(live.load().generation(), 2);
        ing.merge_now().unwrap();
        assert_eq!(live.load().generation(), 3);
    }
}
