//! Query-independent static scoring: raw per-source signals and the
//! standardized blend derived from them.
//!
//! The static half of the ranking is **global by definition**: every
//! signal is standardized (z-scored) against the *whole* population
//! of sources before it is weighted, so a source's static score
//! depends on every other source's signals. That makes the blend the
//! one piece of engine state that cannot be partitioned — a sharded
//! serving layer publishes exactly one [`StaticBlend`], the only one
//! that absorbs engagement, and feeds [`StaticBlend::score`] to the
//! scatter-gather merge. Because engagement adjustments touch only
//! the adjusted source's cells (and per-source application order is
//! preserved by source-hash routing), applying each shard's routed
//! engagement to the one global blend reproduces the unsharded
//! signal vectors bit-for-bit.

// Checked indexing only: every re-blend runs through here.
#![warn(clippy::indexing_slicing)]

use obs_model::{EngagementDelta, SourceId};
use obs_stats::normalize::z_scores;
use std::sync::Arc;

/// Signal weights of the blended ranker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlendWeights {
    /// Weight of the BM25 content score.
    pub content: f64,
    /// Weight of the traffic signal (log visitors, positively).
    pub traffic: f64,
    /// Weight of PageRank (positively).
    pub pagerank: f64,
    /// Weight of the participation penalty (comment density,
    /// negatively applied).
    pub participation_penalty: f64,
    /// Weight of the dwell penalty (time-on-site, negatively
    /// applied).
    pub dwell_penalty: f64,
    /// Weight of the topical-depth bonus: `ln(1 + matching docs)`,
    /// the site-level aggregation real engines apply (a site with
    /// many relevant pages outranks a one-hit site).
    pub depth: f64,
}

impl Default for BlendWeights {
    fn default() -> Self {
        BlendWeights {
            content: 4.5,
            traffic: 0.55,
            pagerank: 0.30,
            participation_penalty: 0.22,
            dwell_penalty: 0.12,
            depth: 3.0,
        }
    }
}

/// Raw (pre-standardization) per-source signal vectors, retained so
/// incremental updates can refresh one source without re-deriving
/// the others from a corpus walk.
#[derive(Debug, Clone, Default)]
pub(crate) struct StaticSignals {
    /// `ln(1 + daily visitors)` from the traffic panel.
    pub(crate) visitors: Vec<f64>,
    /// `ln(1 + avg time on site)` from the traffic panel.
    pub(crate) dwell: Vec<f64>,
    /// `ln(pagerank)` over the link graph.
    pub(crate) pr_log: Vec<f64>,
    /// Hosted discussion count (participation input).
    pub(crate) discussions: Vec<f64>,
    /// Comment count across the source's discussions.
    pub(crate) comments: Vec<f64>,
    /// Derived participation signal (see [`StaticSignals::refresh`]).
    pub(crate) participation: Vec<f64>,
}

impl StaticSignals {
    /// Participation density as a crawler would see it: comments per
    /// discussion plus discussion-opening rate.
    pub(crate) fn refresh(&mut self, source: usize) {
        let (d, c) = (self.discussions.get(source), self.comments.get(source));
        if let (Some(&d), Some(&c), Some(p)) = (d, c, self.participation.get_mut(source)) {
            let density = if d == 0.0 { 0.0 } else { c / d };
            *p = (1.0 + density).ln() + (1.0 + d).ln() * 0.3;
        }
    }

    /// Grows every vector so `source` is addressable, with neutral
    /// (zero) raw signals for the newly appeared sources.
    pub(crate) fn ensure(&mut self, source: usize) {
        let n = source + 1;
        if self.visitors.len() < n {
            self.visitors.resize(n, 0.0);
            self.dwell.resize(n, 0.0);
            self.pr_log.resize(n, 0.0);
            self.discussions.resize(n, 0.0);
            self.comments.resize(n, 0.0);
            self.participation.resize(n, 0.0);
        }
    }
}

/// The query-independent half of the ranking: raw per-source signal
/// vectors plus the standardized, weighted static scores derived
/// from them.
///
/// A [`SearchEngine`](crate::SearchEngine) shares its blend with its
/// clones. A sharded serving layer publishes one **global** blend and
/// folds every committed engagement adjustment into it with
/// [`StaticBlend::absorb`] (the exact code path the unsharded engine
/// uses), re-standardizing once per burst — which is what keeps
/// sharded rankings bit-identical to the unsharded scorer.
#[derive(Debug, Clone)]
pub struct StaticBlend {
    pub(crate) signals: StaticSignals,
    /// Static (query-independent) score component per source,
    /// re-blended from `signals` after every engagement burst.
    pub(crate) static_score: Vec<f64>,
    pub(crate) weights: BlendWeights,
}

impl StaticBlend {
    /// Blends freshly derived signals under `weights` (standardizing
    /// immediately, so [`StaticBlend::score`] is valid right away).
    pub(crate) fn new(signals: StaticSignals, weights: BlendWeights) -> StaticBlend {
        let mut blend = StaticBlend {
            signals,
            static_score: Vec::new(),
            weights,
        };
        blend.reblend();
        blend
    }

    /// Applies a burst of engagement adjustments to the raw signal
    /// cells of the touched sources (with the zero clamp the live
    /// engine applies per delta), returning whether anything changed.
    ///
    /// The standardized scores are **not** refreshed: call
    /// [`StaticBlend::reblend`] once after a burst, as
    /// [`StaticBlend::absorb`] does.
    pub fn apply_engagement<'a>(
        &mut self,
        entries: impl IntoIterator<Item = &'a EngagementDelta>,
    ) -> bool {
        let s = &mut self.signals;
        let mut touched = false;
        for e in entries {
            let i = e.source.index();
            s.ensure(i);
            if let (Some(d), Some(c)) = (s.discussions.get_mut(i), s.comments.get_mut(i)) {
                *d = (*d + e.discussions as f64).max(0.0);
                *c = (*c + e.comments as f64).max(0.0);
            }
            s.refresh(i);
            touched = true;
        }
        touched
    }

    /// Folds `entries` into `blend` in order and re-standardizes once,
    /// copying a shared blend first ([`Arc::make_mut`]); no entries
    /// leave it untouched. Returns whether it changed.
    pub fn absorb<'a>(
        blend: &mut Arc<StaticBlend>,
        entries: impl IntoIterator<Item = &'a EngagementDelta>,
    ) -> bool {
        let mut entries = entries.into_iter().peekable();
        if entries.peek().is_none() {
            return false;
        }
        let blend = Arc::make_mut(blend);
        blend.apply_engagement(entries);
        blend.reblend();
        true
    }

    /// Standardizes each raw signal and re-blends the static scores.
    /// O(sources) vector arithmetic — no corpus or graph walk.
    pub fn reblend(&mut self) {
        let zv = z_scores(&self.signals.visitors);
        let zp = z_scores(&self.signals.pr_log);
        let zpart = z_scores(&self.signals.participation);
        let zd = z_scores(&self.signals.dwell);
        let weights = &self.weights;
        self.static_score = (0..self.signals.visitors.len())
            .map(|i| {
                weights.traffic * zv.get(i).copied().unwrap_or(0.0)
                    + weights.pagerank * zp.get(i).copied().unwrap_or(0.0)
                    - weights.participation_penalty * zpart.get(i).copied().unwrap_or(0.0)
                    - weights.dwell_penalty * zd.get(i).copied().unwrap_or(0.0)
            })
            .collect();
    }

    /// The static score of a source (0.0 for sources never seen).
    pub fn score(&self, source: SourceId) -> f64 {
        self.static_score
            .get(source.index())
            .copied()
            .unwrap_or(0.0)
    }

    /// The weights this blend standardizes under.
    pub fn weights(&self) -> &BlendWeights {
        &self.weights
    }
}
