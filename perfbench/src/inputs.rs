//! Seeded inputs. Everything the program under test receives — corpus,
//! rules, queries — is generated here from `--seed`; the seed itself
//! never reaches it.

use std::fmt::Write as _;

/// splitmix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The Fig. 5 XMark query.
pub const FIG5_QUERY: &str = r#"//person[ftcontains(.//business, "Yes")]"#;

/// `lib.xmark`'s fixed 16-variant cycle: KORs 1–4 × with/without VOR π5
/// × k ∈ {10, 100}. Returns (profile index into [`fig5_rules`], k).
pub fn xmark_variants() -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for profile in 0..8 {
        for k in [10, 100] {
            out.push((profile, k));
        }
    }
    out
}

/// The eight Fig. 5 profiles as rule text: index `2 * (kors - 1) + vor`.
pub fn fig5_rules() -> Vec<String> {
    const KORS: [(&str, &str); 4] = [
        ("male", "0.7"),
        ("United States", "2.3"),
        ("College", "1.4"),
        ("Phoenix", "2.3"),
    ];
    let mut out = Vec::new();
    for n_kors in 1..=4 {
        for with_vor in [false, true] {
            let mut rules = String::new();
            for (i, (word, weight)) in KORS.iter().take(n_kors).enumerate() {
                let _ = writeln!(
                    rules,
                    "pi{}: x.tag = person & y.tag = person & ftcontains(x, \"{word}\") -> x < y {{weight {weight}}}",
                    i + 1
                );
            }
            if with_vor {
                rules.push_str(
                    "pi5: x.tag = person & y.tag = person & x.age = 33 & y.age != 33 -> x < y\n",
                );
            }
            out.push(rules);
        }
    }
    out
}

/// `n` seeded dealer documents of `cars` cars each; `first` offsets the
/// per-document generator seed so write batches never repeat a boot
/// document.
pub fn dealer_docs(seed: u64, first: usize, n: usize, cars: usize) -> Vec<String> {
    (first..first + n)
        .map(|i| {
            pimento_datagen::generate_dealer(
                seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
                cars,
            )
        })
        .collect()
}

/// A Fig. 2-style profile for one user: 3 scoping rules, 3 value
/// ordering rules, 2 keyword ordering rules, with seeded keywords,
/// colors and weights.
///
/// Unlike Fig. 2's π3 (`x.make = y.make & x.hp > y.hp`), the three value
/// rules here form a prioritized chain of weak orders, so `≺_V` ranks
/// every pair of cars and the top-k is unique. Under Fig. 2's own π3,
/// `≺_V` is a partial order and the engine's sequential scan linearizes
/// it differently from its parallel and scatter-gather scans (seed 1:
/// 6 of 128 pairs), so no single reference could hold for all of them.
pub fn fig2_style_rules(seed: u64, user: usize) -> String {
    let mut rng = Rng::new(seed, 0x50F1 + user as u64);
    let added = rng.pick(&["american", "best bid", "NYC"]);
    let color = rng.pick(&["red", "blue", "black", "white", "silver", "green"]);
    let ordered = rng.pick(&["mileage", "price"]);
    let kw1 = rng.pick(&["best bid", "american"]);
    let kw2 = rng.pick(&["NYC", "Phoenix", "Salem", "Madison"]);
    let w1 = 1 + rng.below(3);
    let w2 = 1 + rng.below(3);
    format!(
        "rho1: if pc(car, description) & ftcontains(description, \"low mileage\") then remove ftcontains(description, \"good condition\") {{priority 2}}\n\
         rho2: if pc(car, description) & ftcontains(description, \"good condition\") then add ftcontains(description, \"{added}\")\n\
         rho3: if pc(car, description) & ftcontains(description, \"good condition\") then remove ftcontains(description, \"low mileage\") {{priority 1}}\n\
         pi1: x.tag = car & y.tag = car & x.color = \"{color}\" & y.color != \"{color}\" -> x < y {{priority 2}}\n\
         pi2: x.tag = car & y.tag = car & x.{ordered} < y.{ordered} -> x < y {{priority 1}}\n\
         pi3: x.tag = car & y.tag = car & x.horsepower > y.horsepower -> x < y {{priority 3}}\n\
         pi4: x.tag = car & y.tag = car & ftcontains(x, \"{kw1}\") -> x < y {{weight {w1}}}\n\
         pi5: x.tag = car & y.tag = car & ftcontains(x, \"{kw2}\") -> x < y {{weight {w2}}}\n"
    )
}

/// The eight base queries of the serve workloads.
pub const CAR_QUERIES: [&str; 8] = [
    r#"//car[ftcontains(., "good condition")]"#,
    r#"//car[ftcontains(., "good condition") and ./price < 2000]"#,
    r#"//car[./price < 1000]"#,
    r#"//car[ftcontains(., "low mileage")]"#,
    r#"//car[ftcontains(./description, "good condition") and ftcontains(./description, "low mileage")]"#,
    r#"//car[ftcontains(., "american") and ./mileage < 100000]"#,
    r#"//car[ftcontains(., "best bid")]"#,
    r#"//car[./mileage < 50000 and ftcontains(., "good condition")]"#,
];

/// Answers per serve search.
pub const SERVE_K: usize = 10;

/// One search to issue: who asks, what, and how many answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Index of the asking user.
    pub user: usize,
    /// Query text.
    pub query: String,
    /// Answers requested.
    pub k: usize,
}

/// The request stream of a serve workload. Request number `key` always
/// resolves to the same [`Item`], so the check and the replay lane
/// rebuild any request from its key alone.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Seeded order of the `users × 8` (user, query) pairs.
    order: Vec<(usize, usize)>,
    cold: bool,
    seed: u64,
}

impl Stream {
    /// `cold = false`: cycle the pairs in seeded order (fewer than the
    /// plan cache holds, so every measured request hits). `cold = true`:
    /// every request appends a `./price < N` bound that never repeats,
    /// so every request misses the cache whatever its capacity.
    pub fn new(seed: u64, users: usize, cold: bool) -> Stream {
        let mut order: Vec<(usize, usize)> = (0..users)
            .flat_map(|u| (0..CAR_QUERIES.len()).map(move |q| (u, q)))
            .collect();
        Rng::new(seed, 0x0DE4).shuffle(&mut order);
        Stream { order, cold, seed }
    }

    /// Distinct (user, query) pairs of the warm cycle.
    pub fn pairs(&self) -> usize {
        self.order.len()
    }

    /// The request with number `key`.
    pub fn item(&self, key: u64) -> Item {
        let (user, q) = self.order[(key % self.order.len() as u64) as usize];
        let base = CAR_QUERIES[q];
        let query = if self.cold {
            // Prices are whole dollars in 100..6000: the integer part is a
            // seeded selective bound, the six fraction digits are the
            // request number and only make the text unique.
            let bound = 1500 + Rng::new(self.seed, key).below(4000);
            let head = base.strip_suffix(']').unwrap_or(base);
            format!("{head} and ./price < {bound}.{:06}]", key % 1_000_000)
        } else {
            base.to_string()
        };
        Item {
            user,
            query,
            k: SERVE_K,
        }
    }
}

/// The name user `u` registers under.
pub fn user_name(u: usize) -> String {
    format!("u{u}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(fig2_style_rules(7, 3), fig2_style_rules(7, 3));
        assert_ne!(dealer_docs(7, 0, 1, 5), dealer_docs(8, 0, 1, 5));
        let s = Stream::new(7, 4, true);
        assert_eq!(s.item(41), s.item(41));
        assert_ne!(s.item(41).query, s.item(41 + s.pairs() as u64).query);
    }

    #[test]
    fn generated_rules_and_queries_parse() {
        let reg = pimento::profile::PrefRelRegistry::new();
        for rules in fig5_rules() {
            pimento::profile::parse_profile(&rules, &reg).unwrap();
        }
        for u in 0..16 {
            let p = pimento::profile::parse_profile(&fig2_style_rules(11, u), &reg).unwrap();
            assert_eq!((p.scoping.len(), p.vors.len(), p.kors.len()), (3, 3, 2));
        }
        let cold = Stream::new(3, 4, true);
        for key in 0..64 {
            pimento::tpq::parse_tpq(&cold.item(key).query).unwrap();
        }
    }
}
