//! Scatter-gather query evaluation over partitioned indexes.
//!
//! BM25 is built on *global* corpus statistics — total document
//! count, average document length, per-term document frequencies —
//! so naively scoring each shard against its own statistics would
//! drift from the unsharded ranking as soon as shards grow unevenly.
//! All three statistics are exact integer sums, though, so a query
//! runs in three phases that reproduce the single-index arithmetic
//! bit-for-bit:
//!
//! 1. **gather** — [`ScatterStats::gather`] sums document counts,
//!    token totals and per-term document frequencies across every
//!    shard index;
//! 2. **scatter** — each shard scores its own postings against those
//!    global statistics
//!    ([`SearchEngine::partial_query`](crate::SearchEngine::partial_query)),
//!    yielding per-source partial results (a source lives wholly in
//!    one shard, so per-source aggregation is exact);
//! 3. **merge** — [`merge_partials`] blends every partial with the
//!    global static score and produces the final top-k ranking.
//!
//! [`SearchEngine::query`](crate::SearchEngine::query) itself runs
//! this plan over a one-element shard list, so "sharded equals
//! unsharded" holds by construction, not by parallel maintenance of
//! two scorers — and is additionally pinned by workspace-level
//! property tests.

// lint:deterministic — the merge must rank identically on every
// node that gathers the same shard snapshots, or scatter-gather
// stops being bit-identical to the unsharded scorer.

use crate::blend::BlendWeights;
use crate::engine::{SearchEngine, SearchHit};
use crate::index::InvertedIndex;
use crate::score::idf_from_counts;
use crate::token::{is_normalized_token, tokenize};
use obs_model::SourceId;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Global corpus statistics gathered across shard indexes — the
/// inputs BM25 needs beyond a single shard's postings.
///
/// All fields are exact integer sums, so gathering over one index
/// yields that index's own statistics and gathering over N disjoint
/// shards yields exactly the statistics of their union.
#[derive(Debug, Clone, Default)]
pub struct ScatterStats {
    doc_count: usize,
    total_tokens: u64,
    /// Per-term document frequency summed across shards (distinct
    /// query terms only). BTreeMap keeps any iteration over it
    /// ordered identically across nodes.
    df: BTreeMap<String, usize>,
}

impl ScatterStats {
    /// Sums document counts, token totals and the document frequency
    /// of every distinct query term across `indexes`.
    pub fn gather<S: AsRef<str>>(indexes: &[&InvertedIndex], terms: &[S]) -> ScatterStats {
        let mut stats = ScatterStats::default();
        for index in indexes {
            stats.doc_count += index.doc_count();
            stats.total_tokens += index.total_token_length();
        }
        for term in terms {
            let term = term.as_ref();
            if stats.df.contains_key(term) {
                continue;
            }
            let df = indexes.iter().map(|i| i.doc_frequency(term)).sum();
            stats.df.insert(term.to_owned(), df);
        }
        stats
    }

    /// Total documents across every gathered index.
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Average document length across every gathered index — the
    /// same value
    /// [`InvertedIndex::avg_doc_length`](crate::InvertedIndex::avg_doc_length)
    /// reports for the union (0.0 when empty).
    pub fn avg_doc_length(&self) -> f64 {
        if self.doc_count == 0 {
            0.0
        } else {
            self.total_tokens as f64 / self.doc_count as f64
        }
    }

    /// Gathered document frequency of a term (0 when the term was
    /// not part of the gather).
    pub fn doc_frequency(&self, term: &str) -> usize {
        self.df.get(term).copied().unwrap_or(0)
    }

    /// Smoothed global IDF of a term — the same formula as
    /// [`idf`](crate::score::idf), fed by the gathered counts.
    pub fn idf(&self, term: &str) -> f64 {
        idf_from_counts(self.doc_count as f64, self.doc_frequency(term) as f64)
    }
}

/// One source's contribution from a single shard: its best BM25
/// document score for the query and how many of its documents
/// matched. The blend with static signals happens in
/// [`merge_partials`], not here — partials carry only what the shard
/// can compute locally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourcePartial {
    /// The source.
    pub source: SourceId,
    /// Best BM25 score among the source's matching documents.
    pub best: f64,
    /// Number of the source's documents matching the query.
    pub matches: u32,
}

/// Merges per-shard partial results into the final top-k ranking:
/// each partial is blended with its source's static score, the top
/// `k` are selected and sorted by the documented **total order** —
/// blended score descending, then match count descending, then
/// source id ascending — and numbered with 1-based positions.
///
/// The order is total over any legal partial set (sources are
/// distinct, so the final key never ties), which is what makes the
/// ranking independent of partial *arrival order*: however a
/// scatter plan interleaves its per-shard outputs, and whatever the
/// shard count, equal-scored sources land in the same positions.
/// Match count ranks above source id so that, at equal blended
/// score, the source with broader query coverage wins rather than
/// whichever happens to have the smaller id.
///
/// Sources must be disjoint across the merged partials — the shard
/// router guarantees this by routing each source to exactly one
/// shard. Under that invariant the merge is *exactly* the final
/// phase of [`SearchEngine::query`](crate::SearchEngine::query), so
/// sharded and unsharded rankings are bit-identical.
///
/// ```
/// use obs_model::SourceId;
/// use obs_search::{merge_partials, BlendWeights, SourcePartial};
///
/// // Partials as three shards might report them, in arrival order.
/// let partials = vec![
///     SourcePartial { source: SourceId::new(3), best: 1.0, matches: 1 },
///     SourcePartial { source: SourceId::new(1), best: 2.0, matches: 2 },
///     SourcePartial { source: SourceId::new(2), best: 2.0, matches: 2 },
/// ];
/// let hits = merge_partials(partials, |_| 0.0, &BlendWeights::default(), 2);
///
/// // Top-2 by blended score; at equal score and equal matches the
/// // tie breaks toward the lower source id, and positions are
/// // 1-based.
/// assert_eq!(hits.len(), 2);
/// assert_eq!(hits[0].source, SourceId::new(1));
/// assert_eq!(hits[1].source, SourceId::new(2));
/// assert_eq!((hits[0].position, hits[1].position), (1, 2));
/// assert!(hits[0].score >= hits[1].score);
/// ```
pub fn merge_partials(
    partials: impl IntoIterator<Item = SourcePartial>,
    static_score: impl Fn(SourceId) -> f64,
    weights: &BlendWeights,
    k: usize,
) -> Vec<SearchHit> {
    if k == 0 {
        return Vec::new();
    }
    let mut blended: Vec<(SearchHit, u32)> = partials
        .into_iter()
        .map(|p| {
            (
                SearchHit {
                    source: p.source,
                    score: weights.content * p.best
                        + weights.depth * (1.0 + p.matches as f64).ln()
                        + static_score(p.source),
                    position: 0,
                },
                p.matches,
            )
        })
        .collect();
    let order = |(a, a_matches): &(SearchHit, u32), (b, b_matches): &(SearchHit, u32)| {
        b.score
            .total_cmp(&a.score)
            .then(b_matches.cmp(a_matches))
            .then(a.source.cmp(&b.source))
    };
    // Select the top k under the total order, then sort only those.
    if k < blended.len() {
        blended.select_nth_unstable_by(k - 1, order);
        blended.truncate(k);
    }
    blended.sort_by(order);
    blended
        .into_iter()
        .enumerate()
        .map(|(i, (mut h, _))| {
            h.position = i + 1;
            h
        })
        .collect()
}

/// Observer hooks for the phases of one scatter-gather evaluation.
///
/// This module is `lint:deterministic`, so the query plan cannot
/// read a wall clock itself; instead it announces each phase
/// boundary through these callbacks and an *untagged* implementation
/// (see [`SearchMetrics`](crate::trace::SearchMetrics)) turns the
/// boundaries into latency histograms. The hooks carry only plan
/// facts (shard index, result counts) — never time — and every
/// method defaults to a no-op, so tracing is strictly additive: the
/// plan's arithmetic and ranking are byte-identical with or without
/// a trace attached.
pub trait ScatterTrace {
    /// Global statistics gathered across every shard.
    fn gathered(&mut self) {}
    /// Shard `shard` finished scoring, contributing `partials`
    /// per-source partial results.
    fn shard_scored(&mut self, _shard: usize, _partials: usize) {}
    /// The merge produced the final `hits`-element ranking.
    fn merged(&mut self, _hits: usize) {}
}

/// The do-nothing trace behind the untraced [`scatter_query`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NopTrace;

impl ScatterTrace for NopTrace {}

/// Evaluates a query across shard engines with the full
/// gather → scatter → merge plan, blending with an externally owned
/// (global) static score — typically
/// [`StaticBlend::score`](crate::StaticBlend::score) from the
/// serving layer's one global blend.
///
/// Query terms pass through the same normalization as
/// [`SearchEngine::query`](crate::SearchEngine::query) (tokenize
/// messy terms, borrow already-normalized ones). With a single shard
/// and that shard's own blend this *is* `query`; with N shards
/// holding disjoint sources it returns the identical ranking. An
/// empty shard list yields no hits.
pub fn scatter_query<S: AsRef<str>>(
    shards: &[&SearchEngine],
    terms: &[S],
    k: usize,
    static_score: impl Fn(SourceId) -> f64,
    weights: &BlendWeights,
) -> Vec<SearchHit> {
    scatter_query_traced(shards, terms, k, static_score, weights, &mut NopTrace)
}

/// [`scatter_query`] with a [`ScatterTrace`] observing each phase
/// boundary. Results are identical to the untraced call — the trace
/// only *watches* (shards are scored sequentially, so between-hook
/// intervals attribute cleanly to one shard). The empty-shard early
/// return fires no hooks: there is no plan to observe.
pub fn scatter_query_traced<S: AsRef<str>>(
    shards: &[&SearchEngine],
    terms: &[S],
    k: usize,
    static_score: impl Fn(SourceId) -> f64,
    weights: &BlendWeights,
    trace: &mut dyn ScatterTrace,
) -> Vec<SearchHit> {
    if shards.is_empty() {
        return Vec::new();
    }
    let normalized = normalize_query(terms);
    let indexes: Vec<&InvertedIndex> = shards.iter().map(|s| s.index()).collect();
    let stats = ScatterStats::gather(&indexes, &normalized);
    trace.gathered();
    let mut partials = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        let before = partials.len();
        partials.extend(shard.partial_query(&normalized, &stats));
        trace.shard_scored(i, partials.len() - before);
    }
    let hits = merge_partials(partials, static_score, weights, k);
    trace.merged(hits.len());
    hits
}

/// [`scatter_query`] with every shard scored through the
/// **reference** scorer
/// ([`SearchEngine::partial_query_unpruned`](crate::SearchEngine::partial_query_unpruned))
/// instead of the dense fast path. Same gather, same merge, same
/// normalization — this is the oracle lane for the
/// dense-equals-reference property suite and the benchmark's
/// correctness gate; production readers never call it.
pub fn scatter_query_unpruned<S: AsRef<str>>(
    shards: &[&SearchEngine],
    terms: &[S],
    k: usize,
    static_score: impl Fn(SourceId) -> f64,
    weights: &BlendWeights,
) -> Vec<SearchHit> {
    if shards.is_empty() {
        return Vec::new();
    }
    let normalized = normalize_query(terms);
    let indexes: Vec<&InvertedIndex> = shards.iter().map(|s| s.index()).collect();
    let stats = ScatterStats::gather(&indexes, &normalized);
    let mut partials = Vec::new();
    for shard in shards {
        partials.extend(shard.partial_query_unpruned(&normalized, &stats));
    }
    merge_partials(partials, static_score, weights, k)
}

/// Normalizes raw query terms the way the index was tokenized:
/// terms that are already normalized tokens (lowercase alphanumeric,
/// non-stopword) are borrowed as-is, everything else is re-tokenized
/// — so a clean query allocates no per-term strings on the hot path.
/// Duplicates are left in; the scorer collapses them. Public so a
/// caching layer can key entries by exactly the terms the plan will
/// score — two raw queries normalizing identically share one cache
/// entry and one result.
pub fn normalize_query<S: AsRef<str>>(terms: &[S]) -> Vec<Cow<'_, str>> {
    let mut normalized: Vec<Cow<'_, str>> = Vec::with_capacity(terms.len());
    for term in terms {
        let term = term.as_ref();
        if is_normalized_token(term) {
            normalized.push(Cow::Borrowed(term));
        } else {
            normalized.extend(tokenize(term).into_iter().map(Cow::Owned));
        }
    }
    normalized
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::PostId;

    fn index_from(docs: &[(u32, u32, &str)]) -> InvertedIndex {
        let mut idx = InvertedIndex::default();
        for &(doc, source, text) in docs {
            idx.add_document(PostId::new(doc), SourceId::new(source), text);
        }
        idx
    }

    #[test]
    fn gathered_stats_over_one_index_match_its_own() {
        let idx = index_from(&[
            (0, 0, "duomo duomo rooftop"),
            (1, 1, "castle gardens fountain"),
        ]);
        let stats = ScatterStats::gather(&[&idx], &["duomo", "castle", "zzz"]);
        assert_eq!(stats.doc_count(), idx.doc_count());
        assert_eq!(stats.avg_doc_length(), idx.avg_doc_length());
        assert_eq!(stats.doc_frequency("duomo"), idx.doc_frequency("duomo"));
        assert_eq!(stats.doc_frequency("zzz"), 0);
        assert_eq!(stats.idf("duomo"), crate::score::idf(&idx, "duomo"));
        assert_eq!(stats.idf("zzz"), crate::score::idf(&idx, "zzz"));
    }

    #[test]
    fn gathered_stats_over_shards_match_the_union() {
        let union = index_from(&[
            (0, 0, "duomo duomo rooftop"),
            (1, 1, "castle gardens fountain gardens"),
            (2, 2, "duomo castle"),
        ]);
        let a = index_from(&[(0, 0, "duomo duomo rooftop"), (2, 2, "duomo castle")]);
        let b = index_from(&[(1, 1, "castle gardens fountain gardens")]);
        let terms = ["duomo", "castle", "gardens"];
        let sharded = ScatterStats::gather(&[&a, &b], &terms);
        let whole = ScatterStats::gather(&[&union], &terms);
        assert_eq!(sharded.doc_count(), whole.doc_count());
        assert_eq!(sharded.avg_doc_length(), whole.avg_doc_length());
        for t in terms {
            assert_eq!(sharded.doc_frequency(t), whole.doc_frequency(t));
            assert_eq!(sharded.idf(t), whole.idf(t));
        }
    }

    #[test]
    fn merge_is_empty_for_no_partials_and_caps_at_k() {
        let none: Vec<SourcePartial> = Vec::new();
        assert!(merge_partials(none, |_| 0.0, &BlendWeights::default(), 5).is_empty());
        // The top-k select equals a full sort plus truncate at every
        // cutoff, over partials that tie on blended score (four
        // `best` values, zero depth weight) and on match count.
        let weights = BlendWeights {
            depth: 0.0,
            ..BlendWeights::default()
        };
        let partials: Vec<SourcePartial> = (0..23u32)
            .map(|i| SourcePartial {
                source: SourceId::new(i * 7 % 23),
                best: (i % 4) as f64,
                matches: 1 + i % 3,
            })
            .collect();
        let mut sorted = partials.clone();
        sorted.sort_by(|a, b| {
            (b.best.total_cmp(&a.best))
                .then(b.matches.cmp(&a.matches))
                .then(a.source.cmp(&b.source))
        });
        for k in [0, 1, 22, 23, 26] {
            let hits = merge_partials(partials.clone(), |_| 0.0, &weights, k);
            let got: Vec<_> = hits.iter().map(|h| (h.source, h.position)).collect();
            let want: Vec<_> = (sorted.iter().take(k).enumerate())
                .map(|(i, p)| (p.source, i + 1))
                .collect();
            assert_eq!(got, want, "k = {k}");
        }
    }

    /// Regression fixture for the merge's documented total order
    /// (score desc, matches desc, source asc). With a zero depth
    /// weight two sources blend to the *identical* score while their
    /// match counts differ; the old ordering (score, then source id)
    /// put source 5 first regardless, reordering equal-scored
    /// sources away from query coverage — and, worse, leaving the
    /// outcome to whichever key the sort happened to consult. The
    /// source with more matching documents must win the tie.
    #[test]
    fn merge_ties_break_by_matches_before_source_id() {
        let weights = BlendWeights {
            depth: 0.0,
            ..BlendWeights::default()
        };
        let partials = vec![
            SourcePartial {
                source: SourceId::new(5),
                best: 1.0,
                matches: 1,
            },
            SourcePartial {
                source: SourceId::new(9),
                best: 1.0,
                matches: 7,
            },
        ];
        let hits = merge_partials(partials, |_| 0.0, &weights, 2);
        assert_eq!(hits[0].score, hits[1].score, "fixture must tie on score");
        assert_eq!(hits[0].source, SourceId::new(9), "more matches wins");
        assert_eq!(hits[1].source, SourceId::new(5));

        // At equal score *and* equal matches, lower source id wins —
        // the final, always-distinct key.
        let partials = vec![
            SourcePartial {
                source: SourceId::new(9),
                best: 1.0,
                matches: 3,
            },
            SourcePartial {
                source: SourceId::new(5),
                best: 1.0,
                matches: 3,
            },
        ];
        let hits = merge_partials(partials, |_| 0.0, &weights, 2);
        assert_eq!(hits[0].source, SourceId::new(5));
    }

    #[test]
    fn merge_applies_the_static_score() {
        let partials = vec![
            SourcePartial {
                source: SourceId::new(0),
                best: 1.0,
                matches: 1,
            },
            SourcePartial {
                source: SourceId::new(1),
                best: 1.0,
                matches: 1,
            },
        ];
        // An enormous static boost for source 1 flips the tie.
        let hits = merge_partials(
            partials,
            |s| if s == SourceId::new(1) { 100.0 } else { 0.0 },
            &BlendWeights::default(),
            2,
        );
        assert_eq!(hits[0].source, SourceId::new(1));
    }
}
