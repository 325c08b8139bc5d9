//! Inputs, all generated before any timing starts. The worlds and the
//! query pool are fixed, like a deployment's corpus; the run's seed
//! draws the traffic: the order queries are asked in, the re-crawl
//! burst schedule and each crawl cycle's crawl order.

use obs_model::{CorpusDelta, PostId, SourceId};
use obs_synth::{QueryWorkload, World, WorldConfig};

/// Seed of the worlds and of the query pool.
pub const WORLD_SEED: u64 = 2012;

/// The serving topology every workload drives.
pub const SHARDS: usize = 2;
pub const CACHE_ENTRIES: usize = 1024;
/// Results per query: the paper's first 20 blogs and forums.
pub const TOP_K: usize = 20;
/// Queries in the pool, four times the cache, so a uniform draw
/// cannot keep its working set cached.
pub const POOL_QUERIES: usize = 4096;
/// The correctness gate checks every `GATE_STRIDE`-th pool query.
pub const GATE_STRIDE: usize = 64;
/// The simulated network round trip of every crawled fetch.
pub const CRAWL_ROUND_TRIP_MS: u64 = 2;
pub const CRAWL_WORKERS: usize = 2;
/// Corpus deltas of the bulk load: posts per delta, deltas per burst.
pub const LOAD_DELTA_POSTS: usize = 512;
pub const LOAD_BURST_DELTAS: usize = 64;
/// Sources re-crawled whole in one burst have at most this many posts,
/// so that a burst stays small: source sizes are heavy-tailed, and one
/// giant source drawn early would dominate a run.
pub const RECRAWL_MAX_POSTS: usize = 32;

/// SplitMix64: a small, seedable stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A rank drawn with weight ∝ 1/rank from `cdf` (see [`zipf_cdf`]).
    pub fn zipf(&mut self, cdf: &[f64]) -> usize {
        let u = self.unit();
        cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
    }
}

/// Cumulative zipf weights (∝ 1/rank) over `n` ranks, normalized.
pub fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|rank| {
            acc += 1.0 / (rank as f64 + 1.0);
            acc
        })
        .collect();
    for c in cdf.iter_mut() {
        *c /= acc;
    }
    cdf
}

/// The study-sized ranking world with roughly `posts` opening posts
/// (the sizing rule of the repository's `live_service` bench).
pub fn study_world(posts: usize) -> World {
    World::generate(WorldConfig {
        sources: (posts as f64 / 5.7).ceil() as usize,
        users: 4_000,
        mean_discussions_per_source: 20.0,
        mean_comments_per_discussion: 1.0,
        interaction_rate: 0.05,
        comment_bodies: false,
        ..WorldConfig::ranking_study(WORLD_SEED)
    })
}

/// The crawl world: about 10k posts over a few hundred blogs and
/// forums, so one sweep makes roughly a thousand fetches.
pub fn crawl_world() -> World {
    World::generate(WorldConfig {
        sources: 340,
        users: 2_000,
        mean_discussions_per_source: 100.0,
        mean_comments_per_discussion: 1.0,
        interaction_rate: 0.05,
        comment_bodies: false,
        kind_mix: [0.85, 0.15, 0.0, 0.0, 0.0],
        ..WorldConfig::ranking_study(WORLD_SEED)
    })
}

/// The Section 4.1 query generator's pool for `world`'s categories.
pub fn query_pool(world: &World) -> Vec<Vec<String>> {
    QueryWorkload::generate(WORLD_SEED, POOL_QUERIES, world.config.categories)
        .queries
        .into_iter()
        .map(|q| q.terms)
        .collect()
}

/// Pool indices in the order a reader asks them: zipf-weighted by
/// pool rank, or uniform.
pub fn query_sequence(rng: &mut Rng, pool: usize, zipf: bool, len: usize) -> Vec<u32> {
    let cdf = zipf_cdf(pool);
    (0..len)
        .map(|_| {
            if zipf {
                rng.zipf(&cdf) as u32
            } else {
                rng.below(pool) as u32
            }
        })
        .collect()
}

/// Every post of `world`, chunked into the bulk-load deltas.
pub fn load_deltas(world: &World) -> Vec<CorpusDelta> {
    let posts: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    posts
        .chunks(LOAD_DELTA_POSTS)
        .map(|chunk| CorpusDelta::for_posts(&world.corpus, chunk).expect("corpus posts resolve"))
        .collect()
}

/// `count` re-crawl bursts. Each re-crawls `sources` (a range) distinct
/// sources of at most [`RECRAWL_MAX_POSTS`] posts, picked zipf over a
/// seed-shuffled source order: the removal of all their posts, then
/// the posts again. The corpus is unchanged after every burst.
pub fn churn_bursts(
    world: &World,
    rng: &mut Rng,
    count: usize,
    sources_per_burst: std::ops::RangeInclusive<usize>,
) -> Vec<Vec<CorpusDelta>> {
    let corpus = &world.corpus;
    let mut sources: Vec<(SourceId, Vec<PostId>)> = corpus
        .sources()
        .iter()
        .map(|s| {
            let posts = corpus
                .discussions_of_source(s.id)
                .iter()
                .map(|&d| corpus.discussion(d).expect("discussion resolves").root_post)
                .collect();
            (s.id, posts)
        })
        .filter(|(_, posts): &(SourceId, Vec<PostId>)| {
            (1..=RECRAWL_MAX_POSTS).contains(&posts.len())
        })
        .collect();
    rng.shuffle(&mut sources);
    let cdf = zipf_cdf(sources.len());
    (0..count)
        .map(|_| {
            let (lo, hi) = (*sources_per_burst.start(), *sources_per_burst.end());
            let n = lo + rng.below(hi - lo + 1);
            let mut picked: Vec<usize> = Vec::with_capacity(n);
            while picked.len() < n {
                let rank = rng.zipf(&cdf);
                if !picked.contains(&rank) {
                    picked.push(rank);
                }
            }
            picked
                .iter()
                .flat_map(|&rank| {
                    let posts = &sources[rank].1;
                    [
                        CorpusDelta::for_removals(corpus, posts).expect("posts resolve"),
                        CorpusDelta::for_posts(corpus, posts).expect("posts resolve"),
                    ]
                })
                .collect()
        })
        .collect()
}
