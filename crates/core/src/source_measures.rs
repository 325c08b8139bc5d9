//! The Table 1 catalog: every source-quality measure of the paper.
//!
//! Each cell of Table 1 becomes a [`SourceMeasure`]: a static
//! [`MeasureSpec`] plus an evaluation function over the
//! [`SourceContext`]. Domain-dependent measures (italics in the
//! paper) are scoped by the DI's categories and time window;
//! domain-independent ones read the full history or the analytics
//! panels. The ten measures flagged `in_componentization` are exactly
//! the domain-independent set the paper feeds into the Table 3
//! factor analysis.

use crate::context::SourceContext;
use crate::taxonomy::{Attribute, MeasureSpec, Orientation, Provenance, QualityDimension};
use obs_model::{CategoryId, SourceId};
use std::collections::{HashMap, HashSet};

/// A Table 1 measure: spec + evaluation function.
pub struct SourceMeasure {
    /// Static description.
    pub spec: MeasureSpec,
    /// Computes the raw value for one source.
    pub eval: fn(&SourceContext<'_>, SourceId) -> f64,
}

impl std::fmt::Debug for SourceMeasure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceMeasure")
            .field("spec", &self.spec)
            .finish()
    }
}

/// The full Table 1 catalog, row-major (dimension, then attribute).
pub fn source_catalog() -> Vec<SourceMeasure> {
    use Attribute as A;
    use Orientation::{HigherIsBetter, LowerIsBetter};
    use Provenance as P;
    use QualityDimension as D;

    vec![
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.accuracy.relevance",
                name: "open discussions covering the DI categories over total open discussions",
                dimension: D::Accuracy,
                attribute: A::Relevance,
                domain_dependent: true,
                provenance: P::Crawling,
                orientation: HigherIsBetter,
                in_componentization: false,
            },
            eval: accuracy_relevance,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.accuracy.breadth",
                name: "average number of comments per content category",
                dimension: D::Accuracy,
                attribute: A::BreadthOfContributions,
                domain_dependent: true,
                provenance: P::Crawling,
                orientation: HigherIsBetter,
                in_componentization: false,
            },
            eval: accuracy_breadth,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.completeness.relevance",
                name: "centrality: number of covered content categories",
                dimension: D::Completeness,
                attribute: A::Relevance,
                domain_dependent: true,
                provenance: P::Crawling,
                orientation: HigherIsBetter,
                in_componentization: false,
            },
            eval: completeness_relevance,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.completeness.breadth",
                name: "number of open discussions per content category",
                dimension: D::Completeness,
                attribute: A::BreadthOfContributions,
                domain_dependent: true,
                provenance: P::Crawling,
                orientation: HigherIsBetter,
                in_componentization: false,
            },
            eval: completeness_breadth,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.completeness.traffic",
                name: "number of open discussions compared to largest Web blog/forum",
                dimension: D::Completeness,
                attribute: A::Traffic,
                domain_dependent: false,
                provenance: P::Crawling,
                orientation: HigherIsBetter,
                in_componentization: true,
            },
            eval: completeness_traffic,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.completeness.liveliness",
                name: "number of comments per user",
                dimension: D::Completeness,
                attribute: A::Liveliness,
                domain_dependent: false,
                provenance: P::Crawling,
                orientation: HigherIsBetter,
                in_componentization: false,
            },
            eval: completeness_liveliness,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.time.breadth",
                name: "age of discussion thread",
                dimension: D::Time,
                attribute: A::BreadthOfContributions,
                domain_dependent: false,
                provenance: P::Crawling,
                orientation: HigherIsBetter,
                in_componentization: false,
            },
            eval: time_breadth,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.time.traffic",
                name: "traffic rank",
                dimension: D::Time,
                attribute: A::Traffic,
                domain_dependent: false,
                provenance: P::Alexa,
                orientation: LowerIsBetter,
                in_componentization: true,
            },
            eval: time_traffic_rank,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.time.liveliness",
                name: "average number of new opened discussions per day",
                dimension: D::Time,
                attribute: A::Liveliness,
                domain_dependent: false,
                provenance: P::Alexa,
                orientation: HigherIsBetter,
                in_componentization: true,
            },
            eval: time_liveliness,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.interpretability.breadth",
                name: "average number of distinct tags per post",
                dimension: D::Interpretability,
                attribute: A::BreadthOfContributions,
                domain_dependent: false,
                provenance: P::Crawling,
                orientation: HigherIsBetter,
                in_componentization: false,
            },
            eval: interpretability_breadth,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.authority.relevance.links",
                name: "number of inbound links",
                dimension: D::Authority,
                attribute: A::Relevance,
                domain_dependent: false,
                provenance: P::Alexa,
                orientation: HigherIsBetter,
                in_componentization: true,
            },
            eval: authority_inbound_links,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.authority.relevance.feeds",
                name: "number of feed subscriptions",
                dimension: D::Authority,
                attribute: A::Relevance,
                domain_dependent: false,
                provenance: P::Feedburner,
                orientation: HigherIsBetter,
                in_componentization: false,
            },
            eval: authority_feed_subscriptions,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.authority.traffic.visitors",
                name: "daily visitors",
                dimension: D::Authority,
                attribute: A::Traffic,
                domain_dependent: false,
                provenance: P::Alexa,
                orientation: HigherIsBetter,
                in_componentization: true,
            },
            eval: authority_daily_visitors,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.authority.traffic.pageviews",
                name: "daily page views",
                dimension: D::Authority,
                attribute: A::Traffic,
                domain_dependent: false,
                provenance: P::Alexa,
                orientation: HigherIsBetter,
                in_componentization: true,
            },
            eval: authority_daily_page_views,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.authority.traffic.timeonsite",
                name: "average time spent on site",
                dimension: D::Authority,
                attribute: A::Traffic,
                domain_dependent: false,
                provenance: P::Alexa,
                orientation: HigherIsBetter,
                in_componentization: true,
            },
            eval: authority_time_on_site,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.authority.liveliness",
                name: "number of daily page views per daily visitor",
                dimension: D::Authority,
                attribute: A::Liveliness,
                domain_dependent: false,
                provenance: P::Alexa,
                orientation: HigherIsBetter,
                in_componentization: false,
            },
            eval: authority_views_per_visitor,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.dependability.relevance",
                name: "bounce rate",
                dimension: D::Dependability,
                attribute: A::Relevance,
                domain_dependent: false,
                provenance: P::Alexa,
                orientation: LowerIsBetter,
                in_componentization: true,
            },
            eval: dependability_bounce_rate,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.dependability.breadth",
                name: "number of comments per discussion",
                dimension: D::Dependability,
                attribute: A::BreadthOfContributions,
                domain_dependent: false,
                provenance: P::Crawling,
                orientation: HigherIsBetter,
                in_componentization: true,
            },
            eval: dependability_breadth,
        },
        SourceMeasure {
            spec: MeasureSpec {
                id: "src.dependability.liveliness",
                name: "average number of comments per discussion per day",
                dimension: D::Dependability,
                attribute: A::Liveliness,
                domain_dependent: false,
                provenance: P::Crawling,
                orientation: HigherIsBetter,
                in_componentization: true,
            },
            eval: dependability_liveliness,
        },
    ]
}

/// Looks a measure up by id.
pub fn source_measure(id: &str) -> Option<SourceMeasure> {
    source_catalog().into_iter().find(|m| m.spec.id == id)
}

// ------------------------------------------------------------------
// Evaluation functions. Shared raw ingredients first.
// ------------------------------------------------------------------

/// Open discussions of a source, optionally restricted to the DI's
/// categories and time window.
fn open_discussions(
    ctx: &SourceContext<'_>,
    source: SourceId,
    di_scoped: bool,
) -> Vec<obs_model::DiscussionId> {
    ctx.corpus
        .discussions_of_source(source)
        .iter()
        .copied()
        .filter(|&d| {
            let disc = match ctx.corpus.discussion(d) {
                Ok(x) => x,
                Err(_) => return false,
            };
            if disc.closed {
                return false;
            }
            if di_scoped {
                ctx.di.covers_category(disc.category) && ctx.di.covers_time(disc.opened_at)
            } else {
                true
            }
        })
        .collect()
}

/// Comment count per category for a source (DI window applied when
/// `di_scoped`).
fn comments_by_category(
    ctx: &SourceContext<'_>,
    source: SourceId,
    di_scoped: bool,
) -> HashMap<CategoryId, usize> {
    let mut map = HashMap::new();
    for &d in ctx.corpus.discussions_of_source(source) {
        let disc = match ctx.corpus.discussion(d) {
            Ok(x) => x,
            Err(_) => continue,
        };
        if di_scoped && !ctx.di.covers_category(disc.category) {
            continue;
        }
        let count = ctx
            .corpus
            .comments_of_discussion(d)
            .iter()
            .filter(|&&c| {
                !di_scoped
                    || ctx
                        .corpus
                        .comment(c)
                        .map(|x| ctx.di.covers_time(x.published))
                        .unwrap_or(false)
            })
            .count();
        *map.entry(disc.category).or_insert(0) += count;
    }
    map
}

fn accuracy_relevance(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    let open_total = open_discussions(ctx, source, false).len();
    if open_total == 0 {
        return 0.0;
    }
    let covering = ctx
        .corpus
        .discussions_of_source(source)
        .iter()
        .filter(|&&d| {
            ctx.is_open(d)
                && ctx
                    .corpus
                    .discussion(d)
                    .map(|x| ctx.di.covers_category(x.category))
                    .unwrap_or(false)
        })
        .count();
    covering as f64 / open_total as f64
}

fn accuracy_breadth(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    let by_cat = comments_by_category(ctx, source, true);
    if by_cat.is_empty() {
        return 0.0;
    }
    let total: usize = by_cat.values().sum();
    total as f64 / by_cat.len() as f64
}

fn completeness_relevance(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    let mut covered: HashSet<CategoryId> = HashSet::new();
    for &d in ctx.corpus.discussions_of_source(source) {
        if let Ok(disc) = ctx.corpus.discussion(d) {
            if ctx.di.covers_category(disc.category) {
                covered.insert(disc.category);
            }
        }
    }
    covered.len() as f64
}

fn completeness_breadth(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    let open = open_discussions(ctx, source, true);
    let mut cats: HashSet<CategoryId> = HashSet::new();
    for &d in &open {
        if let Ok(disc) = ctx.corpus.discussion(d) {
            cats.insert(disc.category);
        }
    }
    if cats.is_empty() {
        return 0.0;
    }
    open.len() as f64 / cats.len() as f64
}

fn completeness_traffic(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    let open = open_discussions(ctx, source, false).len();
    open as f64 / ctx.largest_blog_forum_open() as f64
}

fn completeness_liveliness(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    let mut users: HashSet<obs_model::UserId> = HashSet::new();
    let mut comments = 0usize;
    for &d in ctx.corpus.discussions_of_source(source) {
        for &c in ctx.corpus.comments_of_discussion(d) {
            if let Ok(comment) = ctx.corpus.comment(c) {
                users.insert(comment.author);
                comments += 1;
            }
        }
    }
    if users.is_empty() {
        return 0.0;
    }
    comments as f64 / users.len() as f64
}

fn time_breadth(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    let discussions = ctx.corpus.discussions_of_source(source);
    if discussions.is_empty() {
        return 0.0;
    }
    let total_age_days: f64 = discussions
        .iter()
        .filter_map(|&d| ctx.corpus.discussion(d).ok())
        .map(|disc| ctx.now.since(disc.opened_at).days_f64())
        .sum();
    total_age_days / discussions.len() as f64
}

fn time_traffic_rank(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    ctx.panel
        .traffic(source)
        .map(|t| t.traffic_rank as f64)
        .unwrap_or(f64::MAX)
}

fn time_liveliness(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    let discussions = ctx.corpus.discussions_of_source(source).len();
    discussions as f64 / ctx.observed_days(source)
}

fn interpretability_breadth(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    let mut posts = 0usize;
    let mut tags = 0usize;
    for &d in ctx.corpus.discussions_of_source(source) {
        if let Ok(disc) = ctx.corpus.discussion(d) {
            if let Ok(post) = ctx.corpus.post(disc.root_post) {
                posts += 1;
                tags += post.distinct_tag_count();
            }
        }
    }
    if posts == 0 {
        return 0.0;
    }
    tags as f64 / posts as f64
}

fn authority_inbound_links(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    ctx.links.inbound_count(source) as f64
}

fn authority_feed_subscriptions(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    ctx.feeds.subscriptions(source) as f64
}

fn authority_daily_visitors(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    ctx.panel
        .traffic(source)
        .map(|t| t.daily_visitors)
        .unwrap_or(0.0)
}

fn authority_daily_page_views(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    ctx.panel
        .traffic(source)
        .map(|t| t.daily_page_views)
        .unwrap_or(0.0)
}

fn authority_time_on_site(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    ctx.panel
        .traffic(source)
        .map(|t| t.avg_time_on_site)
        .unwrap_or(0.0)
}

fn authority_views_per_visitor(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    ctx.panel
        .traffic(source)
        .map(|t| t.page_views_per_visitor())
        .unwrap_or(0.0)
}

fn dependability_bounce_rate(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    ctx.panel
        .traffic(source)
        .map(|t| t.bounce_rate)
        .unwrap_or(1.0)
}

fn dependability_breadth(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    let discussions = ctx.corpus.discussions_of_source(source);
    if discussions.is_empty() {
        return 0.0;
    }
    let comments: usize = discussions
        .iter()
        .map(|&d| ctx.corpus.comments_of_discussion(d).len())
        .sum();
    comments as f64 / discussions.len() as f64
}

fn dependability_liveliness(ctx: &SourceContext<'_>, source: SourceId) -> f64 {
    let discussions = ctx.corpus.discussions_of_source(source);
    if discussions.is_empty() {
        return 0.0;
    }
    // Per discussion: comments divided by the discussion's lifetime.
    let mut rate_sum = 0.0;
    for &d in discussions {
        let Ok(disc) = ctx.corpus.discussion(d) else {
            continue;
        };
        let comments = ctx.corpus.comments_of_discussion(d).len() as f64;
        let life_days = ctx.now.since(disc.opened_at).days_f64().max(1.0);
        rate_sum += comments / life_days;
    }
    rate_sum / discussions.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_analytics::{AlexaPanel, FeedRegistry, LinkGraph};
    use obs_model::DomainOfInterest;
    use obs_synth::{World, WorldConfig};

    struct Fixture {
        world: World,
        panel: AlexaPanel,
        links: LinkGraph,
        feeds: FeedRegistry,
        di: DomainOfInterest,
    }

    impl Fixture {
        fn ctx(&self) -> SourceContext<'_> {
            SourceContext::new(
                &self.world.corpus,
                &self.panel,
                &self.links,
                &self.feeds,
                &self.di,
                self.world.now,
            )
        }
    }

    fn fixture() -> Fixture {
        let world = World::generate(WorldConfig::small(505));
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 2);
        let feeds = FeedRegistry::simulate(&world, 3);
        let di = world.tourism_di();
        Fixture {
            world,
            panel,
            links,
            feeds,
            di,
        }
    }

    #[test]
    fn catalog_has_nineteen_measures_and_unique_ids() {
        let cat = source_catalog();
        assert_eq!(cat.len(), 19);
        let ids: std::collections::HashSet<_> = cat.iter().map(|m| m.spec.id).collect();
        assert_eq!(ids.len(), 19);
    }

    #[test]
    fn exactly_ten_measures_feed_the_componentization() {
        let cat = source_catalog();
        let comp: Vec<&str> = cat
            .iter()
            .filter(|m| m.spec.in_componentization)
            .map(|m| m.spec.id)
            .collect();
        assert_eq!(comp.len(), 10, "{comp:?}");
        // None of them may be domain-dependent (the paper: "Since
        // Google ranking is domain independent, we considered only
        // domain independent measures").
        for m in cat.iter().filter(|m| m.spec.in_componentization) {
            assert!(!m.spec.domain_dependent, "{}", m.spec.id);
        }
    }

    #[test]
    fn every_table_cell_is_covered() {
        // Count cells per (dimension, attribute); Table 1 has N/A
        // cells and one double cell (authority × relevance).
        let cat = source_catalog();
        let mut cells: HashMap<(QualityDimension, Attribute), usize> = HashMap::new();
        for m in &cat {
            *cells
                .entry((m.spec.dimension, m.spec.attribute))
                .or_insert(0) += 1;
        }
        assert_eq!(
            cells[&(QualityDimension::Authority, Attribute::Relevance)],
            2,
            "authority × relevance lists links + feeds"
        );
        // The N/A cells must stay empty.
        for na in [
            (QualityDimension::Accuracy, Attribute::Traffic),
            (QualityDimension::Accuracy, Attribute::Liveliness),
            (QualityDimension::Time, Attribute::Relevance),
            (QualityDimension::Interpretability, Attribute::Relevance),
            (QualityDimension::Interpretability, Attribute::Traffic),
            (QualityDimension::Interpretability, Attribute::Liveliness),
            (
                QualityDimension::Authority,
                Attribute::BreadthOfContributions,
            ),
            (QualityDimension::Dependability, Attribute::Traffic),
        ] {
            assert!(!cells.contains_key(&na), "{na:?} should be N/A");
        }
    }

    #[test]
    fn all_measures_evaluate_finite_on_every_source() {
        let f = fixture();
        let ctx = f.ctx();
        for m in source_catalog() {
            for s in f.world.corpus.sources() {
                let v = (m.eval)(&ctx, s.id);
                assert!(v.is_finite(), "{} on {} gave {v}", m.spec.id, s.id);
                assert!(v >= 0.0, "{} on {} negative: {v}", m.spec.id, s.id);
            }
        }
    }

    #[test]
    fn accuracy_relevance_is_a_fraction() {
        let f = fixture();
        let ctx = f.ctx();
        for s in f.world.corpus.sources() {
            let v = accuracy_relevance(&ctx, s.id);
            assert!((0.0..=1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn completeness_traffic_is_one_for_the_largest() {
        let f = fixture();
        let ctx = f.ctx();
        let best = f
            .world
            .corpus
            .sources()
            .iter()
            .filter(|s| s.kind.in_search_study())
            .map(|s| completeness_traffic(&ctx, s.id))
            .fold(0.0f64, f64::max);
        assert!(
            (best - 1.0).abs() < 1e-9,
            "largest should score 1, got {best}"
        );
    }

    #[test]
    fn centrality_counts_di_categories_only() {
        let f = fixture();
        let ctx = f.ctx();
        let di_cats = f.di.categories.len() as f64;
        for s in f.world.corpus.sources() {
            let v = completeness_relevance(&ctx, s.id);
            assert!(v <= di_cats, "centrality {v} exceeds DI size {di_cats}");
        }
    }

    #[test]
    fn traffic_rank_matches_panel() {
        let f = fixture();
        let ctx = f.ctx();
        for s in f.world.corpus.sources() {
            assert_eq!(
                time_traffic_rank(&ctx, s.id),
                f.panel.traffic(s.id).unwrap().traffic_rank as f64
            );
        }
    }

    #[test]
    fn adding_a_comment_never_lowers_comment_measures() {
        // Monotonicity: rebuild a tiny corpus with one extra comment
        // and check the comments-per-discussion measure grows.
        use obs_model::{AccountKind, CorpusBuilder, SourceKind, Timestamp};
        let build = |extra: bool| {
            let mut b = CorpusBuilder::new();
            let cat = b.add_category("attractions").unwrap();
            let s = b.add_source(SourceKind::Blog, "b", Timestamp::EPOCH);
            let u = b.add_user("u", AccountKind::Person, Timestamp::EPOCH);
            let d = b
                .add_discussion(s, cat, "t", u, Timestamp::from_days(1))
                .unwrap();
            b.add_comment(d, u, "one", Timestamp::from_days(2)).unwrap();
            if extra {
                b.add_comment(d, u, "two", Timestamp::from_days(3)).unwrap();
            }
            b.build()
        };
        let c1 = build(false);
        let c2 = build(true);
        let world = World::generate(WorldConfig::small(1));
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 1);
        let feeds = FeedRegistry::simulate(&world, 1);
        let di = DomainOfInterest::unconstrained("all");
        let now = Timestamp::from_days(10);
        let ctx1 = SourceContext::new(&c1, &panel, &links, &feeds, &di, now);
        let ctx2 = SourceContext::new(&c2, &panel, &links, &feeds, &di, now);
        let s = SourceId::new(0);
        assert!(dependability_breadth(&ctx2, s) > dependability_breadth(&ctx1, s));
        assert!(completeness_liveliness(&ctx2, s) > completeness_liveliness(&ctx1, s));
        assert!(dependability_liveliness(&ctx2, s) >= dependability_liveliness(&ctx1, s));
    }

    #[test]
    fn unconstrained_di_makes_relevance_total() {
        // With no category filter, every open discussion "covers" the
        // DI, so accuracy.relevance is 1 for sources with any open
        // discussion.
        let world = World::generate(WorldConfig::small(506));
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 2);
        let feeds = FeedRegistry::simulate(&world, 3);
        let di = DomainOfInterest::unconstrained("all");
        let ctx = SourceContext::new(&world.corpus, &panel, &links, &feeds, &di, world.now);
        for s in world.corpus.sources() {
            let open = world
                .corpus
                .discussions_of_source(s.id)
                .iter()
                .any(|&d| ctx.is_open(d));
            if open {
                assert!((accuracy_relevance(&ctx, s.id) - 1.0).abs() < 1e-12);
            }
        }
    }
}
