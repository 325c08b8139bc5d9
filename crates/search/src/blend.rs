//! Query-independent static scoring: the per-source inputs
//! ([`Traffic`], [`PageRank`]), the raw signals derived from them and
//! the standardized blend.
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

use obs_model::codec::{DecodeError, Reader, Writer};
use obs_model::{EngagementDelta, SourceId};
use std::sync::Arc;

/// Per-source traffic figures, indexed by raw source id: what
/// [`SearchEngine::build`](crate::SearchEngine::build) reads off a
/// traffic panel. A source past the end of a vector keeps a neutral
/// (zero) raw signal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Traffic {
    /// Estimated daily visitors.
    pub daily_visitors: Vec<f64>,
    /// Average time on site, in seconds.
    pub avg_time_on_site: Vec<f64>,
}

/// One PageRank score per source over the inter-source link graph,
/// indexed by raw source id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PageRank {
    /// The scores, summing to 1 over a non-empty graph.
    pub scores: Vec<f64>,
}

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
    /// `ln(1 + daily visitors)` from the traffic input.
    pub(crate) visitors: Vec<f64>,
    /// `ln(1 + avg time on site)` from the traffic input.
    pub(crate) dwell: Vec<f64>,
    /// `ln(1e-12 + PageRank)` from the PageRank input.
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

    /// The six raw vectors, in image order.
    fn vectors(&self) -> [&[f64]; 6] {
        [
            &self.visitors,
            &self.dwell,
            &self.pr_log,
            &self.discussions,
            &self.comments,
            &self.participation,
        ]
    }

    fn vectors_mut(&mut self) -> [&mut Vec<f64>; 6] {
        [
            &mut self.visitors,
            &mut self.dwell,
            &mut self.pr_log,
            &mut self.discussions,
            &mut self.comments,
            &mut self.participation,
        ]
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

    /// Appends this blend's canonical image to `out`, in the
    /// [`obs_model::codec`] encoding: the six weights, then each raw
    /// signal vector, every value an `f64` bit pattern.
    ///
    /// ```text
    /// blend  := f64(content) f64(traffic) f64(pagerank)
    ///           f64(participation penalty) f64(dwell penalty) f64(depth)
    ///           signal(visitors) signal(dwell) signal(pr log)
    ///           signal(discussions) signal(comments) signal(participation)
    /// signal := varint(#sources) f64*
    /// ```
    ///
    /// The standardized scores are a function of the signals and are
    /// re-blended by [`StaticBlend::decode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::new(out);
        let BlendWeights {
            content,
            traffic,
            pagerank,
            participation_penalty,
            dwell_penalty,
            depth,
        } = self.weights;
        for weight in [
            content,
            traffic,
            pagerank,
            participation_penalty,
            dwell_penalty,
            depth,
        ] {
            w.f64(weight);
        }
        for signal in self.signals.vectors() {
            w.varint(signal.len() as u64);
            for &x in signal {
                w.f64(x);
            }
        }
    }

    /// Decodes exactly one blend image spanning all of `bytes` (see
    /// [`StaticBlend::encode_into`]) and re-blends it, so its scores
    /// are bit-identical to the encoded blend's.
    pub fn decode(bytes: &[u8]) -> Result<StaticBlend, DecodeError> {
        let mut r = Reader::new(bytes);
        let weights = BlendWeights {
            content: r.f64()?,
            traffic: r.f64()?,
            pagerank: r.f64()?,
            participation_penalty: r.f64()?,
            dwell_penalty: r.f64()?,
            depth: r.f64()?,
        };
        let mut signals = StaticSignals::default();
        for signal in signals.vectors_mut() {
            let (count, capacity) = r.count()?;
            signal.reserve(capacity);
            for _ in 0..count {
                signal.push(r.f64()?);
            }
        }
        r.finish()?;
        Ok(StaticBlend::new(signals, weights))
    }
}

/// Z-score standardization (population standard deviation). Constant
/// samples map to all zeros.
fn z_scores(xs: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return Vec::new();
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let sd = var.sqrt();
    if sd == 0.0 {
        return vec![0.0; xs.len()];
    }
    xs.iter().map(|&x| (x - mean) / sd).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_scores_have_zero_mean_unit_sd() {
        let z = z_scores(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mean: f64 = z.iter().sum::<f64>() / z.len() as f64;
        let var: f64 = z.iter().map(|x| x * x).sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_blend_image_roundtrips_bit_for_bit() {
        let signals = StaticSignals {
            visitors: vec![1.5, 0.0, 7.25],
            dwell: vec![2.0, 3.0, -0.0],
            pr_log: vec![-27.6, -3.1],
            discussions: vec![4.0, 0.0, 1.0],
            comments: vec![9.0, 0.0, 0.0],
            participation: vec![0.5, 0.0, f64::NAN],
        };
        let blend = StaticBlend::new(signals, BlendWeights::default());
        let mut bytes = Vec::new();
        blend.encode_into(&mut bytes);
        let decoded = StaticBlend::decode(&bytes).unwrap();
        let mut again = Vec::new();
        decoded.encode_into(&mut again);
        assert_eq!(again, bytes);
        assert_eq!(decoded.weights(), blend.weights());
        for i in 0..4 {
            let source = SourceId::new(i);
            assert_eq!(
                decoded.score(source).to_bits(),
                blend.score(source).to_bits()
            );
        }
        for cut in 0..bytes.len() {
            assert!(StaticBlend::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn z_scores_constant_sample() {
        assert_eq!(z_scores(&[7.0, 7.0, 7.0]), vec![0.0, 0.0, 0.0]);
    }
}
