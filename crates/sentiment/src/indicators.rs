//! Sentiment indicators over normalized content items.
//!
//! Section 6: *"the overall sentiment assessment is weighed with
//! respect to the quality of the Web sources"*. An indicator
//! aggregates the polarity of a stream of [`ContentItem`]s —
//! optionally weighting each item by its source's quality score — and
//! breaks the result down by Anholt dimension.

use crate::aspects::AnholtDimension;
use crate::polarity::score_text;
use obs_model::{CategoryBook, SourceId};
use obs_wrappers::ContentItem;
use std::collections::HashMap;

/// An aggregated sentiment indicator.
#[derive(Debug, Clone, PartialEq)]
pub struct SentimentIndicator {
    /// Items analyzed (only opinionated items contribute polarity).
    pub volume: usize,
    /// Items carrying at least one opinion word.
    pub opinionated: usize,
    /// Unweighted mean polarity of opinionated items, `[−1, 1]`.
    pub mean_polarity: f64,
    /// Quality-weighted mean polarity, `[−1, 1]` (equals
    /// `mean_polarity` when all weights are 1).
    pub weighted_polarity: f64,
    /// Share of opinionated items with positive polarity.
    pub positive_share: f64,
    /// Breakdown per Anholt dimension: (dimension, weighted mean
    /// polarity, opinionated volume).
    pub by_dimension: Vec<(AnholtDimension, f64, usize)>,
}

/// Computes a sentiment indicator over `items`.
///
/// `quality_of` supplies the per-source weight (the paper uses the
/// overall source quality score); return 1.0 for unweighted analysis.
/// `categories` resolves category ids to names for the Anholt
/// mapping.
pub fn sentiment_indicator(
    items: &[ContentItem],
    categories: &CategoryBook,
    quality_of: impl Fn(SourceId) -> f64,
) -> SentimentIndicator {
    let mut sum = 0.0;
    let mut wsum = 0.0;
    let mut weight_total = 0.0;
    let mut opinionated = 0usize;
    let mut positive = 0usize;
    let mut dim_acc: HashMap<AnholtDimension, (f64, f64, usize)> = HashMap::new();

    for item in items {
        let score = score_text(&item.text);
        if !score.is_opinionated() {
            continue;
        }
        opinionated += 1;
        if score.polarity > 0.0 {
            positive += 1;
        }
        let w = quality_of(item.source).max(0.0);
        sum += score.polarity;
        wsum += score.polarity * w;
        weight_total += w;

        let dim = categories
            .name(item.category)
            .map(AnholtDimension::of_category)
            .unwrap_or(AnholtDimension::Presence);
        let slot = dim_acc.entry(dim).or_insert((0.0, 0.0, 0));
        slot.0 += score.polarity * w;
        slot.1 += w;
        slot.2 += 1;
    }

    let mean_polarity = if opinionated == 0 {
        0.0
    } else {
        sum / opinionated as f64
    };
    let weighted_polarity = if weight_total > 0.0 {
        wsum / weight_total
    } else {
        0.0
    };
    let positive_share = if opinionated == 0 {
        0.0
    } else {
        positive as f64 / opinionated as f64
    };

    let mut by_dimension: Vec<(AnholtDimension, f64, usize)> = AnholtDimension::ALL
        .iter()
        .filter_map(|&d| {
            dim_acc.get(&d).map(|(ws, wt, n)| {
                let mean = if *wt > 0.0 { ws / wt } else { 0.0 };
                (d, mean, *n)
            })
        })
        .collect();
    by_dimension.sort_by_key(|(d, _, _)| *d as usize);

    SentimentIndicator {
        volume: items.len(),
        opinionated,
        mean_polarity,
        weighted_polarity,
        positive_share,
        by_dimension,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::{CategoryId, ContentRef, DiscussionId, PostId, Timestamp, UserId};
    use obs_wrappers::{InteractionCounts, ItemKind};

    fn item(source: u32, category: CategoryId, text: &str) -> ContentItem {
        ContentItem {
            source: SourceId::new(source),
            discussion: DiscussionId::new(0),
            content: ContentRef::Post(PostId::new(0)),
            kind: ItemKind::Post,
            author: UserId::new(0),
            published: Timestamp::EPOCH,
            category,
            text: text.to_owned(),
            tags: vec![],
            geo: None,
            interactions: InteractionCounts::default(),
        }
    }

    fn book() -> CategoryBook {
        let mut b = CategoryBook::new();
        b.intern("attractions").unwrap(); // id 0 → Place
        b.intern("hotels").unwrap(); // id 1 → Prerequisites
        b
    }

    #[test]
    fn unweighted_indicator_averages_polarity() {
        let book = book();
        let items = vec![
            item(0, CategoryId::new(0), "the duomo was amazing"),
            item(0, CategoryId::new(0), "the queue was terrible"),
            item(0, CategoryId::new(0), "neutral description here"),
        ];
        let ind = sentiment_indicator(&items, &book, |_| 1.0);
        assert_eq!(ind.volume, 3);
        assert_eq!(ind.opinionated, 2);
        assert!(ind.mean_polarity.abs() < 0.1);
        assert!((ind.positive_share - 0.5).abs() < 1e-12);
        assert!((ind.mean_polarity - ind.weighted_polarity).abs() < 1e-12);
    }

    #[test]
    fn quality_weighting_shifts_toward_trusted_sources() {
        let book = book();
        let items = vec![
            item(0, CategoryId::new(0), "the duomo was amazing"), // high-quality source
            item(1, CategoryId::new(0), "the duomo was horrible"), // low-quality source
        ];
        let ind = sentiment_indicator(&items, &book, |s| if s.raw() == 0 { 0.9 } else { 0.1 });
        assert!(ind.weighted_polarity > 0.5, "{ind:?}");
        assert!(ind.mean_polarity.abs() < 0.1);
    }

    #[test]
    fn dimension_breakdown_separates_categories() {
        let book = book();
        let items = vec![
            item(0, CategoryId::new(0), "the landmark was stunning"),
            item(0, CategoryId::new(1), "the room was dirty"),
        ];
        let ind = sentiment_indicator(&items, &book, |_| 1.0);
        let place = ind
            .by_dimension
            .iter()
            .find(|(d, _, _)| *d == AnholtDimension::Place)
            .unwrap();
        let prereq = ind
            .by_dimension
            .iter()
            .find(|(d, _, _)| *d == AnholtDimension::Prerequisites)
            .unwrap();
        assert!(place.1 > 0.0);
        assert!(prereq.1 < 0.0);
        assert_eq!(place.2, 1);
    }

    #[test]
    fn empty_stream_is_neutral() {
        let book = book();
        let ind = sentiment_indicator(&[], &book, |_| 1.0);
        assert_eq!(ind.volume, 0);
        assert_eq!(ind.mean_polarity, 0.0);
        assert_eq!(ind.weighted_polarity, 0.0);
        assert!(ind.by_dimension.is_empty());
    }

    #[test]
    fn zero_weights_do_not_divide_by_zero() {
        let book = book();
        let items = vec![item(0, CategoryId::new(0), "the duomo was amazing")];
        let ind = sentiment_indicator(&items, &book, |_| 0.0);
        assert_eq!(ind.weighted_polarity, 0.0);
        assert!(ind.mean_polarity > 0.0);
    }
}
