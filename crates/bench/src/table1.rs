//! Table 1 — effectiveness on the INEX-like collection (paper §7.1).
//!
//! Per topic, the experiment compares the assessor's relevant components
//! against what the personalized query retrieves (best 5 answers per
//! element type, as in the paper), reporting:
//!
//! * **Missed / Out of** (the paper's precision columns): assessed-relevant
//!   components the run failed to retrieve, out of all assessed-relevant;
//! * **Retrieved / Instead of** (the recall columns): how many components
//!   the run returned, against the assessed count — retrieving more than
//!   assessed is what drives the paper's "poor recall" observation.
//!
//! The personalized run derives the profile from the topic *narrative*
//! exactly as §7.1 describes: one keyword ordering rule per narrative
//! phrase (the shorthand expansion), plus a scoping rule that relaxes the
//! query phrase from a hard requirement into an optional score contributor
//! (so narrative-only components can surface at all — the paper's
//! broadening SRs). A baseline run without the profile is reported too,
//! which the paper discusses qualitatively.

use pimento::index::{Collection, Tokenizer};
use pimento::profile::{Atom, KeywordOrderingRule, ScopingRule, UserProfile};
use pimento::{Engine, SearchOptions};
use pimento_datagen::inex::{InexCorpus, InexTopic};
use std::collections::BTreeSet;

/// Result row for one topic (both runs).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Topic number.
    pub topic: u32,
    /// Personalized run: relevant components missed.
    pub missed: usize,
    /// Total assessed-relevant components ("Out of").
    pub out_of: usize,
    /// Personalized run: components retrieved.
    pub retrieved: usize,
    /// The assessed count again ("Instead of").
    pub instead_of: usize,
    /// Baseline (no profile) misses, for the qualitative comparison.
    pub baseline_missed: usize,
    /// Baseline retrieved count.
    pub baseline_retrieved: usize,
}

/// Element types retrieved per topic: the requested types plus the extra
/// distinguished nodes the paper says it included ("we included
/// distinguished nodes other than the ones requested by the query").
fn retrieval_tags(topic: &InexTopic) -> Vec<&'static str> {
    let mut tags: Vec<&'static str> = topic.target_tags.to_vec();
    for extra in ["p", "sec", "fig"] {
        if !tags.contains(&extra) {
            tags.push(extra);
        }
    }
    tags
}

/// The personalized profile for one topic and one element type.
pub fn topic_profile(topic: &InexTopic, tag: &str) -> UserProfile {
    let mut profile = UserProfile::new().with_scoping(ScopingRule::delete(
        &format!("relax-{}", topic.id),
        vec![Atom::ft(tag, topic.query_phrase)],
        vec![Atom::ft(tag, topic.query_phrase)],
    ));
    for kor in
        KeywordOrderingRule::multi(&format!("narrative-{}", topic.id), tag, topic.related, 1.0)
    {
        profile = profile.with_kor(kor);
    }
    profile
}

/// Run the whole experiment with exact (non-stemmed) keyword matching.
pub fn run(corpus: &InexCorpus, per_type_k: usize) -> Vec<Table1Row> {
    run_with(corpus, per_type_k, Tokenizer::plain())
}

/// Run with an explicit tokenizer — `Tokenizer::stemming()` reproduces the
/// §7.1 relaxation experiment (the paper observed that stemming can
/// *decrease* precision: marginally relevant components with relaxed
/// keyword forms displace exact matches from the top k).
pub fn run_with(corpus: &InexCorpus, per_type_k: usize, tokenizer: Tokenizer) -> Vec<Table1Row> {
    let mut coll = Collection::new();
    for d in &corpus.xml_docs {
        coll.add_xml(d).expect("corpus parses");
    }
    let engine = Engine::with_tokenizer(coll, tokenizer);
    corpus
        .topics
        .iter()
        .map(|topic| run_topic(&engine, corpus, topic, per_type_k))
        .collect()
}

fn run_topic(
    engine: &Engine,
    corpus: &InexCorpus,
    topic: &InexTopic,
    per_type_k: usize,
) -> Table1Row {
    let relevant = &corpus.relevant[&topic.id];
    let mut personalized: BTreeSet<String> = BTreeSet::new();
    let mut baseline: BTreeSet<String> = BTreeSet::new();
    for tag in retrieval_tags(topic) {
        let query = format!(r#"//article//{tag}[about(., "{}")]"#, topic.query_phrase);
        // Baseline: the raw query, no profile.
        baseline.extend(retrieve_cids(
            engine,
            &query,
            &UserProfile::new(),
            per_type_k,
        ));
        // Personalized: relax the phrase + rank by narrative KORs.
        let profile = topic_profile(topic, tag);
        personalized.extend(retrieve_cids(engine, &query, &profile, per_type_k));
    }
    let missed = relevant.difference(&personalized).count();
    let baseline_missed = relevant.difference(&baseline).count();
    Table1Row {
        topic: topic.id,
        missed,
        out_of: relevant.len(),
        retrieved: personalized.len(),
        instead_of: relevant.len(),
        baseline_missed,
        baseline_retrieved: baseline.len(),
    }
}

fn retrieve_cids(engine: &Engine, query: &str, profile: &UserProfile, k: usize) -> Vec<String> {
    let results = engine
        .search(query, profile, &SearchOptions::top(k))
        .expect("query executes");
    let cid_sym = engine.db().coll.symbols().get("cid");
    results
        .hits
        .iter()
        .filter_map(|h| {
            let node = engine.db().coll.node(h.elem);
            cid_sym.and_then(|s| node.attr(s)).map(str::to_string)
        })
        .collect()
}

/// Render the rows in the paper's Table 1 layout.
pub fn render(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 1. INEX results (synthetic INEX-like collection)\n");
    out.push_str("                 Precision              Recall\n");
    out.push_str("Topic   Missed  Out of    Retrieved  Instead Of   (baseline missed/retrieved)\n");
    for r in rows {
        out.push_str(&format!(
            "{:<7} {:<7} {:<9} {:<10} {:<12} ({}/{})\n",
            r.topic,
            r.missed,
            r.out_of,
            r.retrieved,
            r.instead_of,
            r.baseline_missed,
            r.baseline_retrieved,
        ));
    }
    let total_missed: usize = rows.iter().map(|r| r.missed).sum();
    let total_rel: usize = rows.iter().map(|r| r.out_of).sum();
    let base_missed: usize = rows.iter().map(|r| r.baseline_missed).sum();
    out.push_str(&format!(
        "TOTAL   personalized missed {total_missed}/{total_rel}; baseline missed {base_missed}/{total_rel}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimento_datagen::inex::generate;

    #[test]
    fn personalization_recovers_narrative_only_components() {
        let corpus = generate(42);
        let rows = run(&corpus, 5);
        assert_eq!(rows.len(), 8);
        let total_missed: usize = rows.iter().map(|r| r.missed).sum();
        let base_missed: usize = rows.iter().map(|r| r.baseline_missed).sum();
        assert!(
            total_missed < base_missed,
            "personalization must miss fewer components: {total_missed} vs {base_missed}"
        );
        // Good precision on average (the paper's qualitative claim).
        let found = |r: &Table1Row| match r.out_of {
            0 => 1.0,
            n => (n - r.missed) as f64 / n as f64,
        };
        let avg: f64 = rows.iter().map(found).sum::<f64>() / rows.len() as f64;
        assert!(avg > 0.6, "average found fraction {avg}");
        // Recall-style over-retrieval: we retrieve more than assessed.
        assert!(rows.iter().any(|r| r.retrieved > r.instead_of));
    }

    #[test]
    fn render_contains_all_topics() {
        let corpus = generate(1);
        let rows = run(&corpus, 5);
        let text = render(&rows);
        for id in [130, 131, 132, 140, 141, 142, 145, 151] {
            assert!(text.contains(&id.to_string()), "{text}");
        }
        assert!(text.contains("Instead Of"));
    }

    #[test]
    fn retrieval_tags_extend_requested() {
        let topics = pimento_datagen::inex::topics();
        let t130 = &topics[0];
        let tags = retrieval_tags(t130);
        assert!(tags.contains(&"p") && tags.contains(&"sec") && tags.contains(&"fig"));
    }
}
