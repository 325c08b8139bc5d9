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

use crate::blend::{PageRank, StaticBlend, StaticSignals, Traffic};
use crate::index::{Detach, InvertedIndex};
use crate::scatter::{scatter_query, ScatterStats, SourcePartial};
use crate::score::{bm25_scores_with, distinct_terms, Bm25Params};
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
/// — and the static blend are each behind an [`Arc`] shared by the
/// clone, so a clone costs two reference-count bumps. Mutation stays
/// safe through copy-on-write: [`SearchEngine::apply_delta`] detaches
/// what clones still share and the delta changes. That copy is a few
/// flat arrays (the doc table, the forward-index arena and its spans)
/// and `ordinal_of`, plus only the posting lists the delta touches;
/// untouched lists stay shared ([`InvertedIndex::apply_shared`]).
/// This is what makes the engine snapshot-friendly — a serving layer
/// can publish an immutable clone per update tick and keep applying
/// deltas to its own copy without ever touching published snapshots.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    index: Arc<InvertedIndex>,
    /// Static signals and their standardized blend, re-blended after
    /// every engagement-carrying delta.
    blend: Arc<StaticBlend>,
    params: Bm25Params,
}

impl SearchEngine {
    /// Builds the engine over a corpus and its per-source analytics:
    /// traffic figures and PageRank scores, or anything that converts
    /// into them (`obs_analytics` converts its `AlexaPanel` and
    /// `LinkGraph`). The raw signals are `ln(1 + visitors)`,
    /// `ln(1 + time on site)` and `ln(1e-12 + PageRank)`.
    pub fn build(
        corpus: &Corpus,
        traffic: impl Into<Traffic>,
        pagerank: impl Into<PageRank>,
        weights: BlendWeights,
    ) -> SearchEngine {
        let (traffic, pagerank) = (traffic.into(), pagerank.into());
        let index = InvertedIndex::build(corpus);
        let n = corpus.sources().len();

        let mut signals = StaticSignals {
            visitors: vec![0.0; n],
            dwell: vec![0.0; n],
            pr_log: pagerank.scores.iter().map(|&x| (1e-12 + x).ln()).collect(),
            discussions: vec![0.0; n],
            comments: vec![0.0; n],
            participation: vec![0.0; n],
        };
        for (v, &x) in signals.visitors.iter_mut().zip(&traffic.daily_visitors) {
            *v = (1.0 + x).ln();
        }
        for (d, &x) in signals.dwell.iter_mut().zip(&traffic.avg_time_on_site) {
            *d = (1.0 + x).ln();
        }

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
            blend: Arc::new(StaticBlend::new(signals, weights)),
            params: Bm25Params::default(),
        }
    }

    /// Applies one change-set — typically what a crawl tick observed
    /// — to the engine in place: the index absorbs document
    /// adds/removes with one tombstone sweep, and engagement updates
    /// the raw participation inputs of *only the touched sources*
    /// before the static blend is re-standardized. Traffic and
    /// PageRank inputs are untouched (a content delta carries no new
    /// panel or link observations). Applying a delta and its exact
    /// inverse restores the engine's rankings bit-for-bit. What clones
    /// still share is detached first, so readers of those clones never
    /// observe a half-applied delta.
    pub fn apply_delta(&mut self, delta: &CorpusDelta) {
        self.apply_deltas(std::iter::once(delta));
    }

    /// Applies a burst of change-sets *in order*, amortizing the
    /// shared costs across the batch: one index detach and tombstone
    /// sweep ([`SearchEngine::apply_documents_into`]) and one
    /// copy-on-write re-blend ([`StaticBlend::absorb`]).
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
        let deltas: Vec<&CorpusDelta> = deltas.into_iter().collect();
        self.apply_documents_into(&mut None, deltas.iter().copied());
        StaticBlend::absorb(&mut self.blend, deltas.iter().flat_map(|d| &d.engagement));
    }

    /// [`SearchEngine::apply_deltas`] without the engagement, which
    /// the caller's blend owns, through
    /// [`InvertedIndex::apply_shared`]: a shared index is detached
    /// into `spare`'s storage instead of a fresh copy, so a serving
    /// layer that hands back the epoch it superseded reuses that
    /// epoch's buffers. The spare is taken only when the index is
    /// shared. A burst that adds and removes no document (empty, or
    /// engagement only) touches nothing: the index stays shared and
    /// the spare stays put.
    pub fn apply_documents_into<'a>(
        &mut self,
        spare: &mut Option<InvertedIndex>,
        deltas: impl IntoIterator<Item = &'a CorpusDelta>,
    ) -> Detach {
        InvertedIndex::apply_shared(&mut self.index, spare, deltas)
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
    /// layer copies this off its (empty) seed engine to start the one
    /// global blend it publishes beside its per-shard engines.
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

    /// This engine's shared blend and scoring parameters over an empty
    /// index: where a shard of a serving layer starts, holding none of
    /// the rows, spare capacity or `ordinal_of` table `self` kept.
    pub fn without_documents(&self) -> SearchEngine {
        self.with_index(InvertedIndex::default())
    }

    /// This engine's shared blend and scoring parameters over `index`:
    /// where a shard of a serving layer resumes from a checkpoint
    /// image of its index.
    pub fn with_index(&self, index: InvertedIndex) -> SearchEngine {
        SearchEngine {
            index: Arc::new(index),
            blend: Arc::clone(&self.blend),
            params: self.params,
        }
    }

    /// The index itself, if no clone of this engine shares it: the
    /// storage a superseded epoch hands back for
    /// [`SearchEngine::apply_documents_into`] to detach into.
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
