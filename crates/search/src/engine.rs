//! The blended source-ranking engine.
//!
//! The engine reproduces the baseline the paper measured against —
//! a 2011-era general-purpose Web ranker. Per source it blends:
//!
//! * **content relevance** — best BM25 score among the source's
//!   posts for the query;
//! * **traffic authority** — log daily visitors (toolbar data) and
//!   PageRank over the link graph, *positively*;
//! * **participation and dwell penalties** — comment density and
//!   time-on-site, *negatively*, with small weights. This encodes the
//!   era's documented tilt against heavily user-generated and
//!   slow-consumption pages (content-farm updates) — the mechanism
//!   behind the paper's Table 3 finding that Google rank relates
//!   positively to traffic but negatively to participation and time.
//!
//! The penalties are small: traffic dominates, participation is
//! secondary, dwell is weakest, mirroring the significance ordering
//! (p < 0.001, p < 0.01, p < 0.05) of the paper's regressions.
//!
//! The engine is *maintainable*: [`SearchEngine::apply_delta`] feeds
//! a [`CorpusDelta`] (e.g. one crawl tick) straight into the inverted
//! index and refreshes the static signal blend, recomputing raw
//! participation only for the sources the delta touched.

use crate::blend::{StaticBlend, StaticSignals};
use crate::index::InvertedIndex;
use crate::pagerank::pagerank_converged;
use crate::scatter::{scatter_query, ScatterStats, SourcePartial};
use crate::score::{bm25_scores_with, distinct_terms, Bm25Params};
use obs_analytics::{AlexaPanel, LinkGraph};
use obs_model::{Corpus, CorpusDelta, SourceId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// The dense scorer's per-thread working memory. Each vector only
/// grows, and every query resets exactly the entries it touched, so
/// no query clears or reallocates it in full.
#[derive(Default)]
struct Scratch {
    /// BM25 accumulator by doc ordinal, `0.0` when untouched.
    acc: Vec<f64>,
    /// Whether the query touched each ordinal.
    seen: Vec<bool>,
    /// The ordinals the query touched.
    docs: Vec<u32>,
    /// By source index: the source's slot in the query's partials.
    slot: Vec<Option<u32>>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

pub use crate::blend::BlendWeights;

/// One ranked source in a result list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The source.
    pub source: SourceId,
    /// Blended score.
    pub score: f64,
    /// 1-based result position.
    pub position: usize,
}

/// The search engine: index + per-source static signals.
///
/// Cloning is *cheap*: the inverted index — by far the largest piece
/// — is behind an [`Arc`] shared by the clone, so a clone costs a
/// reference-count bump plus `O(sources)` signal vectors. Mutation
/// stays safe through copy-on-write: [`SearchEngine::apply_delta`]
/// detaches (deep-copies) the index only when clones still share it.
/// That copy is a few flat arrays (the doc table, the forward-index
/// arena and its spans), the posting lists and two hash tables, not
/// one heap block per document; [`InvertedIndex::heap_bytes`] counts
/// its bytes.
/// This is what makes the engine snapshot-friendly — a serving layer
/// can publish an immutable clone per update tick and keep applying
/// deltas to its own copy without ever touching published snapshots.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    index: Arc<InvertedIndex>,
    /// Static signals and their standardized blend, re-blended after
    /// every engagement-carrying delta.
    blend: StaticBlend,
    params: Bm25Params,
}

impl SearchEngine {
    /// Builds the engine over a corpus and its analytics.
    pub fn build(
        corpus: &Corpus,
        panel: &AlexaPanel,
        links: &LinkGraph,
        weights: BlendWeights,
    ) -> SearchEngine {
        let index = InvertedIndex::build(corpus);
        let n = corpus.sources().len();

        let mut signals = StaticSignals {
            visitors: vec![0.0; n],
            dwell: vec![0.0; n],
            pr_log: vec![0.0; n],
            discussions: vec![0.0; n],
            comments: vec![0.0; n],
            participation: vec![0.0; n],
        };
        for (i, t) in panel.all().iter().enumerate() {
            signals.visitors[i] = (1.0 + t.daily_visitors).ln();
            signals.dwell[i] = (1.0 + t.avg_time_on_site).ln();
        }
        // 50 iterations was the fixed budget; with the convergence
        // early-exit the run usually stops well short while staying
        // within 1e-11 of the full-budget scores.
        let pr = pagerank_converged(links, 0.85, 50, 1e-12).scores;
        signals.pr_log = pr.iter().map(|&x| (1e-12 + x).ln()).collect();

        for (i, s) in corpus.sources().iter().enumerate() {
            let discussions = corpus.discussions_of_source(s.id);
            let comments: usize = discussions
                .iter()
                .map(|&d| corpus.comments_of_discussion(d).len())
                .sum();
            signals.discussions[i] = discussions.len() as f64;
            signals.comments[i] = comments as f64;
            signals.refresh(i);
        }

        SearchEngine {
            index: Arc::new(index),
            blend: StaticBlend::new(signals, weights),
            params: Bm25Params::default(),
        }
    }

    /// Applies one change-set — typically what a crawl tick observed
    /// — to the engine in place.
    ///
    /// The inverted index absorbs document adds/removes with one
    /// tombstone sweep; engagement adjustments update the
    /// raw participation inputs of *only the touched sources* before
    /// the static blend is re-standardized. Traffic and PageRank
    /// inputs are untouched (a content delta carries no new panel or
    /// link observations). Applying a delta and its exact inverse
    /// restores the engine's rankings bit-for-bit.
    ///
    /// If clones of this engine still share the index (published
    /// snapshots), the index is detached first — copy-on-write — so
    /// concurrent readers of those clones never observe a
    /// half-applied delta.
    pub fn apply_delta(&mut self, delta: &CorpusDelta) {
        self.apply_deltas(std::iter::once(delta));
    }

    /// Applies a burst of change-sets *in order*, amortizing the
    /// shared costs across the batch: one index detach
    /// ([`Arc::make_mut`]), one tombstone sweep
    /// ([`InvertedIndex::apply_deltas`]) and one static re-blend at
    /// the end, however many deltas the burst carries.
    ///
    /// The rankings are bit-identical to applying the deltas one at
    /// a time: the index ends with the same documents and postings
    /// (only which doc-table rows they occupy may differ), and each
    /// delta's engagement passes through the exact per-delta signal
    /// update (including the zero clamp on engagement counters), so
    /// the final re-blend sees the same final signals. This is what
    /// lets a group-commit serving layer and crash recovery cut the
    /// same records into different batches.
    pub fn apply_deltas<'a>(&mut self, deltas: impl IntoIterator<Item = &'a CorpusDelta>) {
        self.apply_deltas_into(&mut None, deltas);
    }

    /// [`SearchEngine::apply_deltas`], detaching a shared index into
    /// `spare`'s storage ([`Clone::clone_from`]) instead of a fresh
    /// copy: a serving layer hands back the epoch it superseded, so
    /// the detach reuses that epoch's buffers rather than allocating
    /// new ones and freeing the old. The spare is taken only when the
    /// index is shared, and the result says whether it was. An empty
    /// burst touches nothing.
    pub fn apply_deltas_into<'a>(
        &mut self,
        spare: &mut Option<InvertedIndex>,
        deltas: impl IntoIterator<Item = &'a CorpusDelta>,
    ) -> bool {
        let deltas: Vec<&CorpusDelta> = deltas.into_iter().collect();
        if deltas.is_empty() {
            return false;
        }
        let shared = Arc::get_mut(&mut self.index).is_none();
        let recycled = match spare.take_if(|_| shared) {
            Some(mut index) => {
                index.clone_from(&self.index);
                self.index = Arc::new(index);
                true
            }
            None => false,
        };
        Arc::make_mut(&mut self.index).apply_deltas(deltas.iter().copied());
        let mut engagement_touched = false;
        for delta in deltas {
            engagement_touched |= self.blend.apply_engagement(&delta.engagement);
        }
        if engagement_touched {
            self.blend.reblend();
        }
        recycled
    }

    /// Evaluates a query, returning the top `k` sources.
    ///
    /// Query terms pass through the same
    /// [`tokenize`](crate::token::tokenize) pipeline the
    /// index was built with (lowercasing, punctuation splitting,
    /// stopword removal), so `"The Duomo!"` finds what `"duomo"`
    /// finds; duplicate terms are collapsed. Document BM25 scores
    /// aggregate per source by their maximum (the best matching page
    /// represents the site), then blend with the static signal.
    /// Sources with no matching document are not returned — like a
    /// real engine, zero-recall sites don't rank.
    ///
    /// Terms that are already normalized tokens (the common case:
    /// lowercase alphanumeric, non-stopword) are borrowed as-is;
    /// only messy terms pay for re-tokenization, so a clean query
    /// allocates no per-term strings on the hot path.
    ///
    /// Internally this runs the scatter-gather plan over a
    /// one-element shard list ([`scatter_query`]) — the same gather,
    /// partial-scoring and merge phases a sharded serving layer
    /// fans out across N engines — so sharded and unsharded rankings
    /// agree bit-for-bit by construction.
    pub fn query<S: AsRef<str>>(&self, terms: &[S], k: usize) -> Vec<SearchHit> {
        scatter_query(
            &[self],
            terms,
            k,
            |source| self.blend.score(source),
            &self.blend.weights,
        )
    }

    /// The scatter phase of a query: this engine's per-source partial
    /// results (best BM25 document score and match count), computed
    /// against the **explicit** — possibly global — corpus statistics
    /// in `stats` instead of the engine's own.
    ///
    /// `terms` must already be normalized tokens and `stats` must
    /// have been gathered over the same terms; [`scatter_query`]
    /// handles both and is the intended entry point. Partials carry
    /// no static blend and no ordering —
    /// [`merge_partials`](crate::merge_partials) finishes the
    /// ranking.
    ///
    /// This is the **dense fast path**: term-at-a-time into a
    /// per-thread accumulator indexed by doc ordinal, then one pass
    /// over the touched documents into per-source partials. Each
    /// document's score accumulates from `0.0` in first-appearance term
    /// order with the expression of [`bm25_scores_with`], so the
    /// partials are bit-identical to
    /// [`SearchEngine::partial_query_unpruned`] (proptest-pinned at
    /// the workspace level).
    pub fn partial_query<S: AsRef<str>>(
        &self,
        terms: &[S],
        stats: &ScatterStats,
    ) -> Vec<SourcePartial> {
        let params = self.params;
        let avg_len = stats.avg_doc_length().max(1.0);
        // Before the scratch borrow: `as_ref` is caller code.
        let terms = distinct_terms(terms);
        let rows = self.index.rows();
        SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            if s.acc.len() < rows.len() {
                s.acc.resize(rows.len(), 0.0);
                s.seen.resize(rows.len(), false);
            }
            for term in terms {
                let w = stats.idf(term);
                for p in self.index.postings(term) {
                    let ord = p.ord as usize;
                    let tf = p.tf as f64;
                    let len_norm = 1.0 - params.b + params.b * rows[ord].len as f64 / avg_len;
                    let sat = tf * (params.k1 + 1.0) / (tf + params.k1 * len_norm);
                    if !s.seen[ord] {
                        s.seen[ord] = true;
                        s.docs.push(p.ord);
                    }
                    s.acc[ord] += w * sat;
                }
            }
            let mut partials: Vec<SourcePartial> = Vec::new();
            for ord in s.docs.drain(..) {
                let ord = ord as usize;
                let score = std::mem::take(&mut s.acc[ord]);
                s.seen[ord] = false;
                let source = rows[ord].source;
                if s.slot.len() <= source.index() {
                    s.slot.resize(source.index() + 1, None);
                }
                let i = *s.slot[source.index()].get_or_insert_with(|| {
                    partials.push(SourcePartial {
                        source,
                        best: f64::NEG_INFINITY,
                        matches: 0,
                    });
                    (partials.len() - 1) as u32
                });
                let partial = &mut partials[i as usize];
                if score > partial.best {
                    partial.best = score;
                }
                partial.matches += 1;
            }
            for partial in &partials {
                s.slot[partial.source.index()] = None;
            }
            partials
        })
    }

    /// The **reference** scorer: full term-at-a-time BM25 into a
    /// per-document map ([`bm25_scores_with`]), then per-source
    /// aggregation through the post-keyed lookups. Kept callable so
    /// the dense fast path always has an oracle — the facade proptest
    /// `dense_query_equals_reference_query` and the benchmark's
    /// traced shadow run queries through exactly this body.
    pub fn partial_query_unpruned<S: AsRef<str>>(
        &self,
        terms: &[S],
        stats: &ScatterStats,
    ) -> Vec<SourcePartial> {
        let doc_scores = bm25_scores_with(&self.index, terms, self.params, stats);
        let mut best_per_source: HashMap<SourceId, (f64, u32)> = HashMap::new();
        for (doc, score) in doc_scores {
            if let Some(source) = self.index.source_of(doc) {
                let slot = best_per_source
                    .entry(source)
                    .or_insert((f64::NEG_INFINITY, 0));
                if score > slot.0 {
                    slot.0 = score;
                }
                slot.1 += 1;
            }
        }
        best_per_source
            .into_iter()
            .map(|(source, (best, matches))| SourcePartial {
                source,
                best,
                matches,
            })
            .collect()
    }

    /// The query-independent score of a source (inspection hook for
    /// experiments and tests).
    pub fn static_score(&self, source: SourceId) -> f64 {
        self.blend.score(source)
    }

    /// The static blend this engine ranks with. A sharded serving
    /// layer clones this off its (empty) seed engine to maintain the
    /// one global blend beside its per-shard engines.
    pub fn blend(&self) -> &StaticBlend {
        &self.blend
    }

    /// The blend weights this engine ranks with.
    pub fn weights(&self) -> &BlendWeights {
        &self.blend.weights
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.index.doc_count()
    }

    /// Read access to the underlying inverted index (for equivalence
    /// checks and serving-layer diagnostics).
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// This engine's blend and scoring parameters over an empty
    /// index: where a shard of a serving layer starts, holding none of
    /// the rows, spare capacity or `ordinal_of` table `self` kept.
    pub fn without_documents(&self) -> SearchEngine {
        SearchEngine {
            index: Arc::default(),
            blend: self.blend.clone(),
            params: self.params,
        }
    }

    /// The index itself, if no clone of this engine shares it: the
    /// storage a superseded epoch hands back for
    /// [`SearchEngine::apply_deltas_into`] to detach into.
    pub fn into_unshared_index(self) -> Option<InvertedIndex> {
        Arc::try_unwrap(self.index).ok()
    }

    /// Whether this engine and `other` still share the same index
    /// storage (i.e. neither has been mutated since they were
    /// cloned apart). Diagnostics hook for snapshot tests.
    pub fn shares_index_with(&self, other: &SearchEngine) -> bool {
        Arc::ptr_eq(&self.index, &other.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::PostId;
    use obs_synth::{QueryWorkload, World, WorldConfig};

    fn engine() -> (World, SearchEngine) {
        let world = World::generate(WorldConfig {
            sources: 120,
            users: 500,
            ..WorldConfig::small(1001)
        });
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 2);
        let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
        (world, engine)
    }

    #[test]
    fn queries_return_ordered_hits() {
        let (world, engine) = engine();
        let workload = QueryWorkload::generate(7, 20, world.config.categories);
        let mut any_results = false;
        for q in &workload.queries {
            let hits = engine.query(&q.terms, 20);
            assert!(hits.len() <= 20);
            for w in hits.windows(2) {
                assert!(w[0].score >= w[1].score);
                assert_eq!(w[0].position + 1, w[1].position);
            }
            if !hits.is_empty() {
                any_results = true;
                assert_eq!(hits[0].position, 1);
            }
        }
        assert!(any_results, "workload found nothing at all");
    }

    #[test]
    fn hits_match_query_content() {
        let (world, engine) = engine();
        // Query a term we know exists: take it from a post.
        let post = world
            .corpus
            .posts()
            .iter()
            .find(|p| !p.tags.is_empty())
            .expect("tagged post");
        let term = post.tags[0].as_str().to_owned();
        let hits = engine.query(std::slice::from_ref(&term), 50);
        let source = world.corpus.discussion(post.discussion).unwrap().source;
        assert!(
            hits.iter().any(|h| h.source == source),
            "source of a matching post must be retrievable"
        );
    }

    #[test]
    fn raw_queries_are_tokenized_like_the_index() {
        let (world, engine) = engine();
        let post = world
            .corpus
            .posts()
            .iter()
            .find(|p| !p.tags.is_empty())
            .expect("tagged post");
        let term = post.tags[0].as_str();
        // Uppercased, punctuated, stopword-padded — must match what
        // the bare lowercase term matches.
        let raw = format!("The {}!", term.to_uppercase());
        let clean = engine.query(&[term.to_owned()], 50);
        let messy = engine.query(&[raw], 50);
        assert!(!clean.is_empty());
        assert_eq!(clean, messy);
    }

    #[test]
    fn duplicate_query_terms_do_not_inflate_scores() {
        let (world, engine) = engine();
        let post = world
            .corpus
            .posts()
            .iter()
            .find(|p| !p.tags.is_empty())
            .expect("tagged post");
        let term = post.tags[0].as_str().to_owned();
        let once = engine.query(std::slice::from_ref(&term), 50);
        let twice = engine.query(&[term.clone(), term], 50);
        assert_eq!(once, twice);
    }

    #[test]
    // Removing recent posts then streaming them back in must
    // converge to the untouched engine, bit for bit.
    fn delta_and_inverse_restore_rankings_exactly() {
        let (world, engine) = engine();
        let mut live = engine.clone();
        let recent: Vec<PostId> = world
            .corpus
            .posts()
            .iter()
            .filter(|p| p.published.seconds() > world.now.seconds() / 2)
            .map(|p| p.id)
            .collect();
        assert!(!recent.is_empty(), "world has no recent posts");

        let removal = obs_model::CorpusDelta::for_removals(&world.corpus, &recent).unwrap();
        live.apply_delta(&removal);
        assert_eq!(live.doc_count(), engine.doc_count() - recent.len());

        let readd = obs_model::CorpusDelta::for_posts(&world.corpus, &recent).unwrap();
        live.apply_delta(&readd);
        assert_eq!(live.doc_count(), engine.doc_count());

        let workload = QueryWorkload::generate(7, 20, world.config.categories);
        for q in &workload.queries {
            assert_eq!(live.query(&q.terms, 20), engine.query(&q.terms, 20));
        }
        for s in world.corpus.sources() {
            assert_eq!(live.static_score(s.id), engine.static_score(s.id));
        }
    }

    #[test]
    fn apply_deltas_equals_sequential_applies_even_through_the_clamp() {
        let (world, engine) = engine();
        let recent: Vec<PostId> = world
            .corpus
            .posts()
            .iter()
            .rev()
            .take(6)
            .map(|p| p.id)
            .collect();
        // A deliberately *inconsistent* burst: the same posts removed
        // twice in a row, driving some source's engagement counters
        // into the zero clamp mid-burst, then re-added. Summing the
        // burst's engagement first would miss the intermediate clamp;
        // in-order application must not.
        let deltas = vec![
            obs_model::CorpusDelta::for_removals(&world.corpus, &recent).unwrap(),
            obs_model::CorpusDelta::for_removals(&world.corpus, &recent).unwrap(),
            obs_model::CorpusDelta::for_posts(&world.corpus, &recent).unwrap(),
        ];

        let mut sequential = engine.clone();
        for delta in &deltas {
            sequential.apply_delta(delta);
        }
        let mut batched = engine.clone();
        batched.apply_deltas(deltas.iter());

        assert_eq!(batched.doc_count(), sequential.doc_count());
        for s in world.corpus.sources() {
            assert_eq!(batched.static_score(s.id), sequential.static_score(s.id));
        }
        let probe = vec!["duomo".to_owned(), "rooftop".to_owned()];
        assert_eq!(batched.query(&probe, 50), sequential.query(&probe, 50));
        // The batch detached the shared index exactly as a sequence
        // of applies would have: the original is untouched.
        assert!(!batched.shares_index_with(&engine));
        assert_eq!(engine.doc_count(), batched.doc_count());
    }

    #[test]
    fn delta_for_unseen_source_grows_the_signal_vectors() {
        let (world, mut engine) = engine();
        let unseen = SourceId::new(world.corpus.sources().len() as u32 + 5);
        let mut delta = obs_model::CorpusDelta::new();
        delta.add_doc(PostId::new(900_000), unseen, "brand new source post");
        delta.note_engagement(unseen, 1, 0);
        engine.apply_delta(&delta);
        assert!(engine.static_score(unseen).is_finite());
        let hits = engine.query(&["brand".to_owned()], 10);
        assert!(hits.iter().any(|h| h.source == unseen));
    }

    #[test]
    fn traffic_lifts_static_score() {
        let (world, engine) = engine();
        let panel = AlexaPanel::simulate(&world, 1);
        // Compare top-traffic vs bottom-traffic source static scores.
        let mut by_rank: Vec<(usize, SourceId)> = world
            .corpus
            .sources()
            .iter()
            .map(|s| (panel.traffic(s.id).unwrap().traffic_rank, s.id))
            .collect();
        by_rank.sort_unstable();
        let best = by_rank.first().unwrap().1;
        let worst = by_rank.last().unwrap().1;
        assert!(engine.static_score(best) > engine.static_score(worst));
    }

    #[test]
    fn participation_penalty_depresses_engaged_sources() {
        let (world, _) = engine();
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 2);
        let with_penalty =
            SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
        let without_penalty = SearchEngine::build(
            &world.corpus,
            &panel,
            &links,
            BlendWeights {
                participation_penalty: 0.0,
                ..BlendWeights::default()
            },
        );
        // The most engaged source must lose static score under the
        // penalty relative to the penalty-free blend.
        let most_engaged = world
            .source_latents
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.engagement.total_cmp(&b.1.engagement))
            .map(|(i, _)| SourceId::new(i as u32))
            .unwrap();
        assert!(
            with_penalty.static_score(most_engaged) < without_penalty.static_score(most_engaged)
        );
    }

    #[test]
    fn empty_query_returns_nothing() {
        let (_, engine) = engine();
        assert!(engine.query::<String>(&[], 10).is_empty());
        // Stopword-only queries normalize to nothing.
        assert!(engine.query(&["the".to_owned()], 10).is_empty());
    }

    #[test]
    fn borrowed_and_owned_queries_agree() {
        let (world, engine) = engine();
        let post = world
            .corpus
            .posts()
            .iter()
            .find(|p| !p.tags.is_empty())
            .expect("tagged post");
        let term = post.tags[0].as_str();
        // &str terms take the borrow fast path; String terms took the
        // original path. Results must be identical.
        let borrowed = engine.query(&[term], 50);
        let owned = engine.query(&[term.to_owned()], 50);
        assert!(!borrowed.is_empty());
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn clones_share_index_until_mutated() {
        let (world, engine) = engine();
        let snapshot = engine.clone();
        assert!(snapshot.shares_index_with(&engine));

        // Mutating a clone detaches it (copy-on-write) and leaves the
        // original untouched.
        let mut live = engine.clone();
        let last = world.corpus.posts().last().unwrap().id;
        let removal = obs_model::CorpusDelta::for_removals(&world.corpus, &[last]).unwrap();
        live.apply_delta(&removal);
        assert!(!live.shares_index_with(&engine));
        assert!(snapshot.shares_index_with(&engine));
        assert_eq!(snapshot.doc_count(), engine.doc_count());
        assert_eq!(live.doc_count(), engine.doc_count() - 1);
    }

    #[test]
    fn engine_is_deterministic() {
        let (world, engine) = engine();
        let q = vec!["duomo".to_owned()];
        let a = engine.query(&q, 20);
        let b = engine.query(&q, 20);
        assert_eq!(a, b);
        assert!(engine.doc_count() > 0);
        let _ = world;
    }

    #[test]
    fn dense_partial_matches_reference_on_random_corpora() {
        // Dense partials must equal the reference's to the bit. Engines
        // of different sizes take turns on this one thread, so scratch
        // left dirty or sized for another engine would show; the last
        // has just freed ordinals in a removal burst. The facade
        // proptest widens this to sharded topologies.
        let mut engines = Vec::new();
        let mut burst = None;
        for (seed, sources) in [(1001u64, 40usize), (2002, 90), (3003, 15)] {
            let world = World::generate(WorldConfig {
                sources,
                users: 300,
                ..WorldConfig::small(seed)
            });
            let panel = AlexaPanel::simulate(&world, 1);
            let links = LinkGraph::simulate(&world, 2);
            let engine =
                SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
            let workload = QueryWorkload::generate(seed, 25, world.config.categories);
            if burst.is_none() {
                let mut burst_engine = engine.clone();
                let removed: Vec<PostId> = world
                    .corpus
                    .posts()
                    .iter()
                    .step_by(3)
                    .map(|p| p.id)
                    .collect();
                let delta = obs_model::CorpusDelta::for_removals(&world.corpus, &removed);
                burst_engine.apply_delta(&delta.unwrap());
                assert!(!burst_engine.index().free_ordinals().is_empty());
                burst = Some((burst_engine, workload.clone()));
            }
            engines.push((engine, workload));
        }
        engines.extend(burst);

        let bits = |partials: Vec<SourcePartial>| {
            let mut v: Vec<_> = (partials.iter())
                .map(|p| (p.source, p.matches, p.best.to_bits()))
                .collect();
            v.sort_unstable();
            v
        };
        for i in 0..25 {
            for (engine, workload) in &engines {
                let normalized = crate::scatter::normalize_query(&workload.queries[i].terms);
                let stats = ScatterStats::gather(&[engine.index()], &normalized);
                assert_eq!(
                    bits(engine.partial_query(&normalized, &stats)),
                    bits(engine.partial_query_unpruned(&normalized, &stats)),
                    "query {i}"
                );
            }
        }
    }
}
