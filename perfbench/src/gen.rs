//! Seeded workload generation: the database each service workload serves,
//! the standing views it defines, and the request line at every position of
//! its request stream.
//!
//! Everything here is a pure function of `(workload, seed)`. The request at
//! stream position `i` is drawn from an RNG seeded by `(seed, i)`, so any
//! number of client threads can pull positions from a shared counter and the
//! stream stays the same whatever order they pull in.

use provsem_core::prelude::{Database, KRelation, Schema, Tuple, Value};
use provsem_semiring::ring::Integers;

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Combines two words into one RNG seed.
pub fn mix(a: u64, b: u64) -> u64 {
    Rng::new(a ^ b.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// The benchmark's workloads. `BENCHMARK.json` gates all but
/// `serve_write`, which runs by hand only: its commits deep-copy the
/// 100k-row `F` (about 40 ms each, allocation- and pointer-heavy), and on a
/// shared 2-core virtual machine the same code's COMMIT p50 and throughput
/// spread by up to 26% and 28% (interquartile range over median, 10 runs),
/// past the 25% bound. A single-threaded loop of the same commits, with no
/// TCP and no page faults, drifted by ±15% over tens of seconds within one
/// process, so more samples per run would not close the gap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeRead,
    ServeWrite,
    ServeDatalog,
    Provenance,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeRead,
        Workload::ServeWrite,
        Workload::ServeDatalog,
        Workload::Provenance,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRead => "serve_read",
            Workload::ServeWrite => "serve_write",
            Workload::ServeDatalog => "serve_datalog",
            Workload::Provenance => "provenance",
        }
    }
}

/// Rows of the fact relation `F(g, v)`.
pub const F_ROWS: u64 = 100_000;
/// Distinct tags `v` in `F` (and rows of `T(v, c)`).
pub const TAGS: u64 = 1_000;
/// Distinct categories `c` in `T`.
const CATEGORIES: u64 = 20;
/// Layers and nodes per layer of the acyclic edge relation `E(s, t)`.
pub const LAYERS: u64 = 6;
pub const WIDTH: u64 = 24;
/// Stream positions per block of the exact request mix (see `kind`).
const BLOCK: u64 = 200;
/// Zipf exponent of the popularity of query constants (tags, and the rows
/// of point selects): the top 10 of 1,000 draw about 39% of the requests
/// that take a constant, so a hot set repeats.
const ZIPF_S: f64 = 1.0;

/// The command a request line carries, for per-command latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    Query,
    View,
    Read,
    Commit,
    Datalog,
}

impl Command {
    pub fn of(line: &str) -> Command {
        match line.split_once(' ').map_or(line, |(c, _)| c) {
            "QUERY" => Command::Query,
            "VIEW" => Command::View,
            "READ" => Command::Read,
            "COMMIT" => Command::Commit,
            "DATALOG" => Command::Datalog,
            other => panic!("the generator never emits {other}"),
        }
    }
}

/// One service workload, generated from its seed: the database, the
/// standing views, and the request stream.
pub struct ServiceWorkload {
    pub workload: Workload,
    pub seed: u64,
    /// `tag_of[g]`: the tag of `F`'s row `g` (so retractions hit real rows).
    tag_of: Vec<u32>,
    /// Tags by popularity rank (a seeded permutation).
    hot: Vec<u32>,
    /// Cumulative Zipf weights over popularity ranks.
    zipf_cdf: Vec<f64>,
}

fn tag(t: u32) -> String {
    format!("t{t}")
}

/// Standing datalog programs of `serve_datalog`: linear and nonlinear
/// transitive closure, a two-hop join, and reachability from one source.
const LINEAR_TC: &str = "path(x, y) :- E(x, y). path(x, z) :- path(x, y), E(y, z). ? path";
const NONLINEAR_TC: &str = "path(x, y) :- E(x, y). path(x, z) :- path(x, y), path(y, z). ? path";
const TWO_HOP: &str = "hop(x, z) :- E(x, y), E(y, z). ? hop";

impl ServiceWorkload {
    pub fn new(workload: Workload, seed: u64) -> ServiceWorkload {
        assert!(workload != Workload::Provenance, "not a service workload");
        let mut rng = Rng::new(mix(seed, 0xF00D));
        let tag_of = (0..F_ROWS).map(|_| rng.below(TAGS) as u32).collect();
        let mut hot: Vec<u32> = (0..TAGS as u32).collect();
        for i in (1..hot.len()).rev() {
            hot.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut total = 0.0;
        let zipf_cdf = (1..=TAGS)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(ZIPF_S);
                total
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|c| c / total)
            .collect();
        ServiceWorkload {
            workload,
            seed,
            tag_of,
            hot,
            zipf_cdf,
        }
    }

    /// The database the service starts from.
    pub fn database(&self) -> Database<Integers> {
        let mut rng = Rng::new(mix(self.seed, 0xDA7A));
        match self.workload {
            Workload::ServeRead | Workload::ServeWrite => {
                let mut f = KRelation::empty(Schema::new(["g", "v"]));
                for (g, &t) in self.tag_of.iter().enumerate() {
                    f.insert(
                        Tuple::new([
                            ("g", Value::Int(g as i64)),
                            ("v", Value::from(tag(t).as_str())),
                        ]),
                        Integers::new(1 + rng.below(3) as i64),
                    );
                }
                let mut t = KRelation::empty(Schema::new(["v", "c"]));
                for v in 0..TAGS as u32 {
                    t.insert(
                        Tuple::new([
                            ("v", Value::from(tag(v).as_str())),
                            ("c", Value::Int(rng.below(CATEGORIES) as i64)),
                        ]),
                        Integers::new(1),
                    );
                }
                Database::new().with("F", f).with("T", t)
            }
            Workload::ServeDatalog => {
                let mut e = KRelation::empty(Schema::new(["s", "t"]));
                for layer in 0..LAYERS - 1 {
                    for i in 0..WIDTH {
                        for j in 0..WIDTH {
                            if rng.below(2) == 0 {
                                e.insert(
                                    Tuple::new([
                                        ("s", Value::Int((layer * WIDTH + i) as i64)),
                                        ("t", Value::Int(((layer + 1) * WIDTH + j) as i64)),
                                    ]),
                                    Integers::new(1),
                                );
                            }
                        }
                    }
                }
                Database::new().with("E", e)
            }
            Workload::Provenance => unreachable!(),
        }
    }

    /// `DEFINE` lines issued at set-up, in order.
    pub fn view_definitions(&self) -> Vec<String> {
        match self.workload {
            Workload::ServeRead => vec!["DEFINE cats = project[c] (F join T)".to_string()],
            Workload::ServeWrite => vec![
                format!("DEFINE hot = select[v = '{}'] F", tag(self.hot[0])),
                "DEFINE cats = project[c] (F join T)".to_string(),
                "DEFINE tags = project[v] F".to_string(),
                format!(
                    "DEFINE warm = project[g] select[v = '{}'] F",
                    tag(self.hot[1])
                ),
            ],
            Workload::ServeDatalog | Workload::Provenance => Vec::new(),
        }
    }

    /// Read-only requests issued once at set-up so that relation
    /// conversions and first plans are not charged to the measured phases.
    pub fn warmup(&self) -> Vec<String> {
        match self.workload {
            Workload::ServeRead | Workload::ServeWrite => {
                let t = tag(self.hot[0]);
                let mut lines = vec![
                    format!("QUERY select[v = '{t}'] F"),
                    "QUERY project[c] (F join T)".to_string(),
                    "QUERY project[v] F".to_string(),
                    "READ T".to_string(),
                ];
                lines.extend(self.view_definitions().iter().map(|d| {
                    let name = d["DEFINE ".len()..].split(' ').next().expect("view name");
                    format!("VIEW {name}")
                }));
                lines
            }
            Workload::ServeDatalog => vec![
                format!("DATALOG {LINEAR_TC}"),
                format!("DATALOG {TWO_HOP}"),
                "READ E".to_string(),
            ],
            Workload::Provenance => Vec::new(),
        }
    }

    /// A popularity rank in `0..TAGS`, Zipf-distributed.
    fn zipf_rank(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.zipf_cdf
            .partition_point(|&c| c < u)
            .min(self.hot.len() - 1)
    }

    fn zipf_tag(&self, rng: &mut Rng) -> String {
        tag(self.hot[self.zipf_rank(rng)])
    }

    /// A row of `F` drawn from a seeded hot set of `TAGS` rows with the
    /// same Zipf popularity as the tags.
    fn zipf_row(&self, rng: &mut Rng) -> u64 {
        mix(self.seed ^ 0x40E, self.zipf_rank(rng) as u64) % F_ROWS
    }

    /// A one-row change to `F`: insert a new `(g, v)` pair or retract one
    /// copy of an existing row.
    fn f_delta(&self, rng: &mut Rng) -> String {
        let g = rng.below(F_ROWS);
        if rng.below(2) == 0 {
            format!("F({g}, '{}')=-1", tag(self.tag_of[g as usize]))
        } else {
            format!("F({g}, '{}')={}", self.zipf_tag(rng), 1 + rng.below(2))
        }
    }

    /// The request kind at stream position `i`. Each block of `BLOCK`
    /// consecutive positions holds every kind in its exact count, spread
    /// evenly through the block (stride order with a seeded phase per kind
    /// and block): so every phase's mix matches the stated shares, and no
    /// seed bunches slow requests together.
    fn kind(&self, i: u64) -> Kind {
        let mut rng = Rng::new(mix(self.seed ^ 0xB10C, i / BLOCK));
        let mut order: Vec<(f64, Kind)> = Vec::with_capacity(BLOCK as usize);
        for &(count, kind) in mix_of(self.workload) {
            let phase = rng.unit();
            order.extend((0..count).map(|j| ((j as f64 + phase) / count as f64, kind)));
        }
        debug_assert_eq!(order.len() as u64, BLOCK);
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        order[(i % BLOCK) as usize].1
    }

    /// The request at stream position `i`.
    pub fn request(&self, i: u64) -> String {
        let mut rng = Rng::new(mix(self.seed, i.wrapping_add(1)));
        match self.kind(i) {
            Kind::PointSelect => format!("QUERY select[g = {}] F", self.zipf_row(&mut rng)),
            Kind::TagSelect => format!("QUERY select[v = '{}'] F", self.zipf_tag(&mut rng)),
            Kind::TagProject => format!(
                "QUERY project[g] select[v = '{}'] F",
                self.zipf_tag(&mut rng)
            ),
            Kind::TagJoin => format!(
                "QUERY project[c] (select[v = '{}'] F join T)",
                self.zipf_tag(&mut rng)
            ),
            Kind::JoinAll => "QUERY project[c] (F join T)".to_string(),
            Kind::GroupAll => "QUERY project[v] F".to_string(),
            Kind::View(name) => format!("VIEW {name}"),
            Kind::Read(name) => format!("READ {name}"),
            Kind::FactCommit { max_rows } => {
                let rows = 1 + rng.below(max_rows);
                let items: Vec<String> = (0..rows).map(|_| self.f_delta(&mut rng)).collect();
                format!("COMMIT {}", items.join("; "))
            }
            Kind::LinearTc => format!("DATALOG {LINEAR_TC}"),
            Kind::NonlinearTc => format!("DATALOG {NONLINEAR_TC}"),
            Kind::TwoHop => format!("DATALOG {TWO_HOP}"),
            Kind::Reach => {
                let source = rng.below(WIDTH);
                format!("DATALOG r(y) :- E({source}, y). r(z) :- r(y), E(y, z). ? r")
            }
            Kind::EdgeCommit => {
                // Forward edges only, so the graph stays acyclic.
                let layer = rng.below(LAYERS - 1);
                let s = layer * WIDTH + rng.below(WIDTH);
                let t = (layer + 1) * WIDTH + rng.below(WIDTH);
                format!("COMMIT E({s}, {t})={}", 1 + rng.below(2))
            }
        }
    }
}

/// A request template; parameters are drawn per stream position.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    PointSelect,
    TagSelect,
    TagProject,
    TagJoin,
    JoinAll,
    GroupAll,
    View(&'static str),
    Read(&'static str),
    FactCommit { max_rows: u64 },
    LinearTc,
    NonlinearTc,
    TwoHop,
    Reach,
    EdgeCommit,
}

/// Each workload's request mix: kinds with their counts per `BLOCK`.
fn mix_of(workload: Workload) -> &'static [(u64, Kind)] {
    match workload {
        // 75% QUERY, 23% VIEW/READ, 2% COMMIT.
        Workload::ServeRead => &[
            (36, Kind::PointSelect),
            (36, Kind::TagSelect),
            (28, Kind::TagProject),
            (20, Kind::TagJoin),
            (22, Kind::JoinAll),
            (8, Kind::GroupAll),
            (32, Kind::View("cats")),
            (14, Kind::Read("T")),
            (4, Kind::FactCommit { max_rows: 1 }),
        ],
        // 50% COMMIT of 1-4 rows, 40% VIEW, 10% QUERY.
        Workload::ServeWrite => &[
            (100, Kind::FactCommit { max_rows: 4 }),
            (20, Kind::View("hot")),
            (20, Kind::View("cats")),
            (20, Kind::View("tags")),
            (20, Kind::View("warm")),
            (20, Kind::TagSelect),
        ],
        // 80% DATALOG, 10% COMMIT of forward edges, 10% READ.
        Workload::ServeDatalog => &[
            (96, Kind::LinearTc),
            (32, Kind::NonlinearTc),
            (16, Kind::TwoHop),
            (16, Kind::Reach),
            (20, Kind::EdgeCommit),
            (20, Kind::Read("E")),
        ],
        Workload::Provenance => unreachable!("not a service workload"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: Workload, seed: u64, n: u64) -> Vec<String> {
        let gen = ServiceWorkload::new(w, seed);
        (0..n).map(|i| gen.request(i)).collect()
    }

    fn rendered(db: &Database<Integers>) -> String {
        db.iter()
            .map(|(name, rel)| format!("{name}:{:?}", rel.iter().collect::<Vec<_>>()))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in [
            Workload::ServeRead,
            Workload::ServeWrite,
            Workload::ServeDatalog,
        ] {
            assert_eq!(stream(w, 7, 300), stream(w, 7, 300), "{w:?}");
            assert_ne!(stream(w, 7, 300), stream(w, 8, 300), "{w:?}");
            let a = rendered(&ServiceWorkload::new(w, 7).database());
            assert_eq!(a, rendered(&ServiceWorkload::new(w, 7).database()), "{w:?}");
            assert_ne!(a, rendered(&ServiceWorkload::new(w, 8).database()), "{w:?}");
        }
    }

    #[test]
    fn mixes_match_their_stated_shares() {
        let count = |w, c| {
            stream(w, 3, 20_000)
                .iter()
                .filter(|l| Command::of(l) == c)
                .count() as f64
                / 20_000.0
        };
        assert_eq!(count(Workload::ServeRead, Command::Query), 0.75);
        assert_eq!(count(Workload::ServeRead, Command::Commit), 0.02);
        assert_eq!(count(Workload::ServeWrite, Command::Commit), 0.50);
        assert_eq!(count(Workload::ServeDatalog, Command::Datalog), 0.80);
    }
}
