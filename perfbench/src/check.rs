//! Output checks. A reply is reduced, as it arrives, to its ranked
//! (score bits, element-text hash) list — small enough to keep for the
//! whole window — and compared after the window with a reference
//! computed by a direct `Engine::search` under `PlanStrategy::Naive`.

use crate::inputs::Item;
use pimento::profile::UserProfile;
use pimento::{Engine, PlanStrategy, SearchOptions, SearchResults};
use pimento_serve::Value;

/// A reply as the check keeps it: small enough to hold every reply of a
/// window without the load generator's memory drowning the program's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Reply {
    /// FNV-1a over every hit's `s.to_bits()`, `k.to_bits()` and element
    /// text, in rank order.
    pub digest: u64,
    /// Hits returned.
    pub hits: u32,
    /// Ranks ran 1, 2, 3, … and every hit carried its fields.
    pub well_formed: bool,
    /// The server fell back to unpersonalized answers.
    pub degraded: bool,
    /// The server reported a plan-cache hit.
    pub cache_hit: bool,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn fold_hit(h: u64, s: f64, k: f64, text: &str) -> u64 {
    let h = fnv1a(h, &s.to_bits().to_le_bytes());
    let h = fnv1a(h, &k.to_bits().to_le_bytes());
    // The length keeps adjacent texts from running into each other.
    fnv1a(
        fnv1a(h, &(text.len() as u64).to_le_bytes()),
        text.as_bytes(),
    )
}

/// Reduce an in-process result.
pub fn reduce_results(results: &SearchResults) -> Reply {
    Reply {
        digest: results
            .hits
            .iter()
            .fold(FNV_OFFSET, |h, hit| fold_hit(h, hit.s, hit.k, &hit.text)),
        hits: results.hits.len() as u32,
        well_formed: results
            .hits
            .iter()
            .enumerate()
            .all(|(i, h)| h.rank == i + 1),
        degraded: false,
        cache_hit: false,
    }
}

/// Reduce the body of a `search` reply (`{"hits": […], "cache": …}`).
pub fn reduce_body(body: &Value) -> Reply {
    let mut well_formed = true;
    let mut digest = FNV_OFFSET;
    let mut hits = 0;
    match body.get("hits").and_then(Value::as_arr) {
        None => well_formed = false,
        Some(arr) => {
            for (i, h) in arr.iter().enumerate() {
                let s = h.get("s").and_then(Value::as_f64);
                let k = h.get("k").and_then(Value::as_f64);
                let text = h.get("text").and_then(Value::as_str);
                let rank = h.get("rank").and_then(Value::as_u64);
                well_formed &= rank == Some(i as u64 + 1);
                match (s, k, text) {
                    (Some(s), Some(k), Some(text)) => {
                        digest = fold_hit(digest, s, k, text);
                        hits += 1;
                    }
                    _ => well_formed = false,
                }
            }
        }
    }
    Reply {
        digest,
        hits,
        well_formed,
        degraded: body
            .get("degraded")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        cache_hit: body.get("cache").and_then(Value::as_str) == Some("hit"),
    }
}

/// The reference answer for `item`: a direct search under the naive
/// plan, independent of the strategy, threads, segment layout, cache and
/// protocol under test.
pub fn reference(engine: &Engine, profile: &UserProfile, item: &Item) -> Reply {
    let opts = SearchOptions::top(item.k).with_strategy(PlanStrategy::Naive);
    match engine.search(&item.query, profile, &opts) {
        Ok(results) => reduce_results(&results),
        // No reply can equal this, so the workload reports the failure.
        Err(_) => Reply::default(),
    }
}

/// A reply is right when it is well formed, not degraded, and ranks
/// exactly the reference's hits with bit-identical scores.
pub fn matches(reply: &Reply, reference: &Reply) -> bool {
    reply.well_formed
        && !reply.degraded
        && reference.well_formed
        && (reply.hits, reply.digest) == (reference.hits, reference.digest)
}

/// What a reply must satisfy while the corpus is changing under it.
pub fn plausible(reply: &Reply, k: usize) -> bool {
    reply.well_formed && !reply.degraded && reply.hits as usize <= k
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = r#"{"hits":[{"rank":1,"s":1.5,"k":2,"text":"a b"},{"rank":2,"s":0.25,"k":0,"text":"c"}],"cache":"hit"}"#;

    #[test]
    fn corrupted_reply_fails_the_check() {
        let good = reduce_body(&Value::parse(BODY).unwrap());
        assert!(good.well_formed && good.cache_hit && !good.degraded && good.hits == 2);
        assert!(matches(&good, &good));
        // One bit of one score, two hits swapped, a hit dropped, a word
        // of a text changed, a wrong rank, a degraded answer: each is a
        // mismatch.
        let flipped = BODY.replace("1.5", &f64::from_bits(1.5f64.to_bits() ^ 1).to_string());
        assert_ne!(flipped, BODY);
        for bad in [
            flipped,
            r#"{"hits":[{"rank":1,"s":0.25,"k":0,"text":"c"},{"rank":2,"s":1.5,"k":2,"text":"a b"}]}"#.to_string(),
            r#"{"hits":[{"rank":1,"s":1.5,"k":2,"text":"a b"}]}"#.to_string(),
            BODY.replace("a b", "a c"),
            BODY.replace("\"rank\":2", "\"rank\":3"),
            BODY.replace("\"cache\"", "\"degraded\":true,\"cache\""),
        ] {
            let reply = reduce_body(&Value::parse(&bad).unwrap());
            assert!(!matches(&reply, &good), "{bad}");
        }
    }

    #[test]
    fn wire_reply_reduces_like_the_in_process_result() {
        let engine = Engine::from_xml_docs(&[pimento_datagen::generate_dealer(1, 40)]).unwrap();
        let item = Item {
            user: 0,
            query: crate::inputs::CAR_QUERIES[0].to_string(),
            k: 5,
        };
        let results = engine
            .search(&item.query, &UserProfile::new(), &SearchOptions::top(5))
            .unwrap();
        let hits: Vec<String> = results
            .hits
            .iter()
            .map(|h| {
                pimento_serve::json::obj([
                    ("rank", h.rank.into()),
                    ("s", h.s.into()),
                    ("k", h.k.into()),
                    ("text", h.text.as_str().into()),
                ])
                .render()
            })
            .collect();
        let body = Value::parse(&format!("{{\"hits\":[{}]}}", hits.join(","))).unwrap();
        let reference = reference(&engine, &UserProfile::new(), &item);
        assert!(reference.hits > 0);
        assert!(matches(&reduce_body(&body), &reference));
        assert!(matches(&reduce_results(&results), &reference));
    }
}
