//! The Table 2 catalog: every contributor-quality measure.
//!
//! Section 3.2 revisits the source attributes for single users:
//! *traffic* becomes *activity* (the overall amount of the user's
//! social interaction), and the model deliberately separates
//! **absolute volumes** (activity column) from **relative volumes**
//! (relevance column) — the distinction validated by Table 4 and
//! exploited by the influencer/spam analysis.
//!
//! Interpretation notes (the paper gives each cell one line; where
//! the wording is ambiguous the chosen reading is documented on the
//! evaluation function):
//!
//! * "interaction" for a contributor means an *emission*: posts,
//!   comments, and active social gestures they perform;
//! * "replies received" counts both threaded replies to the user's
//!   comments and `Mention` interactions on their contents;
//! * "feedbacks" counts `Feedback` and `Retweet` interactions
//!   received (the Twitter reading of Section 4.2).

use crate::context::SourceContext;
use crate::taxonomy::{Attribute, MeasureSpec, Orientation, Provenance, QualityDimension};
use obs_model::{CategoryId, ContentRef, InteractionKind, UserId};
use std::collections::{HashMap, HashSet};

/// A Table 2 measure: spec + evaluation function over a user.
pub struct ContributorMeasure {
    /// Static description.
    pub spec: MeasureSpec,
    /// Computes the raw value for one user.
    pub eval: fn(&SourceContext<'_>, UserId) -> f64,
}

impl std::fmt::Debug for ContributorMeasure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContributorMeasure")
            .field("spec", &self.spec)
            .finish()
    }
}

/// The full Table 2 catalog, row-major.
pub fn contributor_catalog() -> Vec<ContributorMeasure> {
    use Attribute as A;
    use Orientation::HigherIsBetter;
    use Provenance::Crawling;
    use QualityDimension as D;

    let spec = |id, name, dimension, attribute, domain_dependent| MeasureSpec {
        id,
        name,
        dimension,
        attribute,
        domain_dependent,
        provenance: Crawling,
        orientation: HigherIsBetter,
        in_componentization: false,
    };

    vec![
        ContributorMeasure {
            spec: spec(
                "usr.accuracy.breadth",
                "average number of comments per content category",
                D::Accuracy,
                A::BreadthOfContributions,
                true,
            ),
            eval: accuracy_breadth,
        },
        ContributorMeasure {
            spec: spec(
                "usr.completeness.relevance",
                "centrality: number of covered content categories",
                D::Completeness,
                A::Relevance,
                true,
            ),
            eval: completeness_relevance,
        },
        ContributorMeasure {
            spec: spec(
                "usr.completeness.breadth",
                "number of open discussions",
                D::Completeness,
                A::BreadthOfContributions,
                true,
            ),
            eval: completeness_breadth,
        },
        ContributorMeasure {
            spec: spec(
                "usr.completeness.activity",
                "total number of interactions",
                D::Completeness,
                A::Activity,
                false,
            ),
            eval: completeness_activity,
        },
        ContributorMeasure {
            spec: spec(
                "usr.completeness.liveliness",
                "average number of interactions per user",
                D::Completeness,
                A::Liveliness,
                false,
            ),
            eval: completeness_liveliness,
        },
        ContributorMeasure {
            spec: spec(
                "usr.time.breadth",
                "age of the user",
                D::Time,
                A::BreadthOfContributions,
                false,
            ),
            eval: time_breadth,
        },
        ContributorMeasure {
            spec: spec(
                "usr.time.activity",
                "number of times comments are read by other users",
                D::Time,
                A::Activity,
                false,
            ),
            eval: time_activity,
        },
        ContributorMeasure {
            spec: spec(
                "usr.time.liveliness",
                "average number of new interactions per user per day",
                D::Time,
                A::Liveliness,
                false,
            ),
            eval: time_liveliness,
        },
        ContributorMeasure {
            spec: spec(
                "usr.interpretability.breadth",
                "average number of distinct tags per post",
                D::Interpretability,
                A::BreadthOfContributions,
                false,
            ),
            eval: interpretability_breadth,
        },
        ContributorMeasure {
            spec: spec(
                "usr.authority.relevance",
                "average number of replies received per comment",
                D::Authority,
                A::Relevance,
                true,
            ),
            eval: authority_relevance,
        },
        ContributorMeasure {
            spec: spec(
                "usr.authority.activity",
                "number of received replies",
                D::Authority,
                A::Activity,
                false,
            ),
            eval: authority_activity,
        },
        ContributorMeasure {
            spec: spec(
                "usr.dependability.relevance",
                "average number of feedbacks per comment",
                D::Dependability,
                A::Relevance,
                true,
            ),
            eval: dependability_relevance,
        },
        ContributorMeasure {
            spec: spec(
                "usr.dependability.breadth",
                "number of comments per discussion",
                D::Dependability,
                A::BreadthOfContributions,
                false,
            ),
            eval: dependability_breadth,
        },
        ContributorMeasure {
            spec: spec(
                "usr.dependability.activity",
                "number of feedbacks",
                D::Dependability,
                A::Activity,
                false,
            ),
            eval: dependability_activity,
        },
        ContributorMeasure {
            spec: spec(
                "usr.dependability.liveliness",
                "average number of interactions per discussion per day",
                D::Dependability,
                A::Liveliness,
                false,
            ),
            eval: dependability_liveliness,
        },
    ]
}

/// Looks a measure up by id.
pub fn contributor_measure(id: &str) -> Option<ContributorMeasure> {
    contributor_catalog().into_iter().find(|m| m.spec.id == id)
}

// ------------------------------------------------------------------
// Shared raw ingredients.
// ------------------------------------------------------------------

/// Total emissions of a user: posts + comments + active interactions
/// performed (the contributor reading of "interaction").
pub fn emissions(ctx: &SourceContext<'_>, user: UserId) -> usize {
    let active = ctx
        .corpus
        .interactions_of_actor(user)
        .iter()
        .filter(|&&i| ctx.corpus.interactions()[i.index()].kind.is_active())
        .count();
    ctx.corpus.posts_of_user(user).len() + ctx.corpus.comments_of_user(user).len() + active
}

/// Replies received: threaded replies to the user's comments plus
/// `Mention` interactions on the user's contents.
pub fn replies_received(ctx: &SourceContext<'_>, user: UserId) -> usize {
    let threaded: usize = ctx
        .corpus
        .comments_of_user(user)
        .iter()
        .map(|&c| ctx.corpus.replies_to(c).len())
        .sum();
    threaded
        + ctx
            .corpus
            .received_count_of_kind(user, InteractionKind::Mention)
}

/// Feedbacks received: `Feedback` + `Retweet` interactions on the
/// user's contents.
pub fn feedbacks_received(ctx: &SourceContext<'_>, user: UserId) -> usize {
    ctx.corpus
        .received_count_of_kind(user, InteractionKind::Feedback)
        + ctx
            .corpus
            .received_count_of_kind(user, InteractionKind::Retweet)
}

/// Distinct discussions the user commented or posted in.
fn discussions_touched(ctx: &SourceContext<'_>, user: UserId) -> HashSet<obs_model::DiscussionId> {
    let mut set: HashSet<obs_model::DiscussionId> = HashSet::new();
    for &c in ctx.corpus.comments_of_user(user) {
        if let Ok(comment) = ctx.corpus.comment(c) {
            set.insert(comment.discussion);
        }
    }
    for &p in ctx.corpus.posts_of_user(user) {
        if let Ok(post) = ctx.corpus.post(p) {
            set.insert(post.discussion);
        }
    }
    set
}

fn comment_count(ctx: &SourceContext<'_>, user: UserId) -> usize {
    ctx.corpus.comments_of_user(user).len()
}

fn accuracy_breadth(ctx: &SourceContext<'_>, user: UserId) -> f64 {
    // Comments grouped by the category of their discussion, averaged
    // over DI-covered categories the user touched.
    let mut by_cat: HashMap<CategoryId, usize> = HashMap::new();
    for &c in ctx.corpus.comments_of_user(user) {
        let Ok(comment) = ctx.corpus.comment(c) else {
            continue;
        };
        let Ok(disc) = ctx.corpus.discussion(comment.discussion) else {
            continue;
        };
        if ctx.di.covers_category(disc.category) {
            *by_cat.entry(disc.category).or_insert(0) += 1;
        }
    }
    if by_cat.is_empty() {
        return 0.0;
    }
    by_cat.values().sum::<usize>() as f64 / by_cat.len() as f64
}

fn completeness_relevance(ctx: &SourceContext<'_>, user: UserId) -> f64 {
    let mut covered: HashSet<CategoryId> = HashSet::new();
    for d in discussions_touched(ctx, user) {
        if let Ok(disc) = ctx.corpus.discussion(d) {
            if ctx.di.covers_category(disc.category) {
                covered.insert(disc.category);
            }
        }
    }
    covered.len() as f64
}

fn completeness_breadth(ctx: &SourceContext<'_>, user: UserId) -> f64 {
    // Open discussions the user opened (within DI categories).
    ctx.corpus
        .discussions_opened_by(user)
        .iter()
        .filter(|&&d| {
            ctx.is_open(d)
                && ctx
                    .corpus
                    .discussion(d)
                    .map(|x| ctx.di.covers_category(x.category))
                    .unwrap_or(false)
        })
        .count() as f64
}

fn completeness_activity(ctx: &SourceContext<'_>, user: UserId) -> f64 {
    emissions(ctx, user) as f64
}

fn completeness_liveliness(ctx: &SourceContext<'_>, user: UserId) -> f64 {
    // Average interactions per discussion the user participates in.
    let touched = discussions_touched(ctx, user);
    if touched.is_empty() {
        return 0.0;
    }
    emissions(ctx, user) as f64 / touched.len() as f64
}

fn time_breadth(ctx: &SourceContext<'_>, user: UserId) -> f64 {
    ctx.corpus
        .user(user)
        .map(|u| ctx.now.since(u.registered).days_f64())
        .unwrap_or(0.0)
}

fn time_activity(ctx: &SourceContext<'_>, user: UserId) -> f64 {
    // Reads received on the user's comments.
    let mut reads = 0usize;
    for &c in ctx.corpus.comments_of_user(user) {
        for &i in ctx.corpus.interactions_on(ContentRef::Comment(c)) {
            if ctx.corpus.interactions()[i.index()].kind == InteractionKind::Read {
                reads += 1;
            }
        }
    }
    reads as f64
}

fn time_liveliness(ctx: &SourceContext<'_>, user: UserId) -> f64 {
    let age_days = time_breadth(ctx, user).max(1.0);
    emissions(ctx, user) as f64 / age_days
}

fn interpretability_breadth(ctx: &SourceContext<'_>, user: UserId) -> f64 {
    let posts = ctx.corpus.posts_of_user(user);
    if posts.is_empty() {
        return 0.0;
    }
    let tags: usize = posts
        .iter()
        .filter_map(|&p| ctx.corpus.post(p).ok())
        .map(|post| post.distinct_tag_count())
        .sum();
    tags as f64 / posts.len() as f64
}

fn authority_relevance(ctx: &SourceContext<'_>, user: UserId) -> f64 {
    let comments = comment_count(ctx, user);
    if comments == 0 {
        return 0.0;
    }
    replies_received(ctx, user) as f64 / comments as f64
}

fn authority_activity(ctx: &SourceContext<'_>, user: UserId) -> f64 {
    replies_received(ctx, user) as f64
}

fn dependability_relevance(ctx: &SourceContext<'_>, user: UserId) -> f64 {
    let comments = comment_count(ctx, user);
    if comments == 0 {
        return 0.0;
    }
    feedbacks_received(ctx, user) as f64 / comments as f64
}

fn dependability_breadth(ctx: &SourceContext<'_>, user: UserId) -> f64 {
    let touched = discussions_touched(ctx, user);
    if touched.is_empty() {
        return 0.0;
    }
    comment_count(ctx, user) as f64 / touched.len() as f64
}

fn dependability_activity(ctx: &SourceContext<'_>, user: UserId) -> f64 {
    feedbacks_received(ctx, user) as f64
}

fn dependability_liveliness(ctx: &SourceContext<'_>, user: UserId) -> f64 {
    let touched = discussions_touched(ctx, user);
    if touched.is_empty() {
        return 0.0;
    }
    let age_days = time_breadth(ctx, user).max(1.0);
    emissions(ctx, user) as f64 / touched.len() as f64 / age_days
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
        let world = World::generate(WorldConfig::small(606));
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 2);
        let feeds = FeedRegistry::simulate(&world, 3);
        let di = DomainOfInterest::unconstrained("all");
        Fixture {
            world,
            panel,
            links,
            feeds,
            di,
        }
    }

    #[test]
    fn catalog_has_fifteen_measures_and_unique_ids() {
        let cat = contributor_catalog();
        assert_eq!(cat.len(), 15);
        let ids: std::collections::HashSet<_> = cat.iter().map(|m| m.spec.id).collect();
        assert_eq!(ids.len(), 15);
    }

    #[test]
    fn table2_na_cells_stay_empty() {
        let cat = contributor_catalog();
        let cells: HashSet<(QualityDimension, Attribute)> = cat
            .iter()
            .map(|m| (m.spec.dimension, m.spec.attribute))
            .collect();
        for na in [
            (QualityDimension::Accuracy, Attribute::Relevance),
            (QualityDimension::Accuracy, Attribute::Activity),
            (QualityDimension::Accuracy, Attribute::Liveliness),
            (QualityDimension::Time, Attribute::Relevance),
            (QualityDimension::Interpretability, Attribute::Relevance),
            (QualityDimension::Interpretability, Attribute::Activity),
            (QualityDimension::Interpretability, Attribute::Liveliness),
            (
                QualityDimension::Authority,
                Attribute::BreadthOfContributions,
            ),
            (QualityDimension::Authority, Attribute::Liveliness),
        ] {
            assert!(!cells.contains(&na), "{na:?} should be N/A");
        }
        // Activity column exists, Traffic never appears.
        assert!(cat.iter().any(|m| m.spec.attribute == Attribute::Activity));
        assert!(cat.iter().all(|m| m.spec.attribute != Attribute::Traffic));
    }

    #[test]
    fn all_measures_finite_and_nonnegative() {
        let f = fixture();
        let ctx = f.ctx();
        for m in contributor_catalog() {
            for u in f.world.corpus.users() {
                let v = (m.eval)(&ctx, u.id);
                assert!(
                    v.is_finite() && v >= 0.0,
                    "{} on {} gave {v}",
                    m.spec.id,
                    u.id
                );
            }
        }
    }

    #[test]
    fn relative_equals_absolute_over_comments() {
        let f = fixture();
        let ctx = f.ctx();
        for u in f.world.corpus.users() {
            let comments = ctx.corpus.comments_of_user(u.id).len();
            if comments > 0 {
                let abs = authority_activity(&ctx, u.id);
                let rel = authority_relevance(&ctx, u.id);
                assert!((rel - abs / comments as f64).abs() < 1e-12);
                let fabs = dependability_activity(&ctx, u.id);
                let frel = dependability_relevance(&ctx, u.id);
                assert!((frel - fabs / comments as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn activity_counts_only_active_interactions() {
        use obs_model::{AccountKind, CorpusBuilder, SourceKind, Timestamp};
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("c").unwrap();
        let s = b.add_source(SourceKind::Blog, "b", Timestamp::EPOCH);
        let u = b.add_user("u", AccountKind::Person, Timestamp::EPOCH);
        let v = b.add_user("v", AccountKind::Person, Timestamp::EPOCH);
        let (_, p) = b
            .add_discussion_with_post(
                s,
                cat,
                "t",
                u,
                Timestamp::from_days(1),
                "body",
                vec![],
                None,
            )
            .unwrap();
        // v: one comment + one like + one read.
        let d = obs_model::DiscussionId::new(0);
        b.add_comment(d, v, "hi", Timestamp::from_days(2)).unwrap();
        b.add_interaction(
            v,
            ContentRef::Post(p),
            InteractionKind::Like,
            Timestamp::from_days(3),
        )
        .unwrap();
        b.add_interaction(
            v,
            ContentRef::Post(p),
            InteractionKind::Read,
            Timestamp::from_days(3),
        )
        .unwrap();
        let corpus = b.build();

        let world = World::generate(WorldConfig::small(1));
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 1);
        let feeds = FeedRegistry::simulate(&world, 1);
        let di = DomainOfInterest::unconstrained("all");
        let ctx = SourceContext::new(
            &corpus,
            &panel,
            &links,
            &feeds,
            &di,
            Timestamp::from_days(10),
        );

        // v emitted 1 comment + 1 like = 2 (the read is passive).
        assert_eq!(emissions(&ctx, obs_model::UserId::new(1)), 2);
        // u emitted 1 post.
        assert_eq!(emissions(&ctx, obs_model::UserId::new(0)), 1);
    }

    #[test]
    fn replies_received_counts_threads_and_mentions() {
        use obs_model::{AccountKind, CorpusBuilder, SourceKind, Timestamp};
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("c").unwrap();
        let s = b.add_source(SourceKind::Microblog, "m", Timestamp::EPOCH);
        let u = b.add_user("u", AccountKind::Person, Timestamp::EPOCH);
        let v = b.add_user("v", AccountKind::Person, Timestamp::EPOCH);
        let d = b
            .add_discussion(s, cat, "t", u, Timestamp::from_days(1))
            .unwrap();
        let c1 = b
            .add_comment(d, u, "hello", Timestamp::from_days(2))
            .unwrap();
        let _r = b
            .add_reply(d, v, "re: hello", Timestamp::from_days(3), c1)
            .unwrap();
        b.add_interaction(
            v,
            ContentRef::Comment(c1),
            InteractionKind::Mention,
            Timestamp::from_days(4),
        )
        .unwrap();
        let corpus = b.build();

        let world = World::generate(WorldConfig::small(1));
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 1);
        let feeds = FeedRegistry::simulate(&world, 1);
        let di = DomainOfInterest::unconstrained("all");
        let ctx = SourceContext::new(
            &corpus,
            &panel,
            &links,
            &feeds,
            &di,
            Timestamp::from_days(10),
        );

        assert_eq!(replies_received(&ctx, obs_model::UserId::new(0)), 2);
        assert_eq!(replies_received(&ctx, obs_model::UserId::new(1)), 0);
    }

    #[test]
    fn age_measured_from_registration() {
        let f = fixture();
        let ctx = f.ctx();
        for u in f.world.corpus.users() {
            let age = time_breadth(&ctx, u.id);
            let expected = f.world.now.since(u.registered).days_f64();
            assert!((age - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn silent_users_score_zero_everywhere_applicable() {
        use obs_model::{AccountKind, CorpusBuilder, SourceKind, Timestamp};
        let mut b = CorpusBuilder::new();
        b.add_category("c").unwrap();
        b.add_source(SourceKind::Blog, "b", Timestamp::EPOCH);
        let silent = b.add_user("silent", AccountKind::Person, Timestamp::EPOCH);
        let corpus = b.build();
        let world = World::generate(WorldConfig::small(1));
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 1);
        let feeds = FeedRegistry::simulate(&world, 1);
        let di = DomainOfInterest::unconstrained("all");
        let ctx = SourceContext::new(
            &corpus,
            &panel,
            &links,
            &feeds,
            &di,
            Timestamp::from_days(30),
        );
        for m in contributor_catalog() {
            let v = (m.eval)(&ctx, silent);
            if m.spec.id == "usr.time.breadth" {
                assert!(v > 0.0, "age is nonzero even for silent users");
            } else {
                assert_eq!(v, 0.0, "{} should be 0 for a silent user", m.spec.id);
            }
        }
    }
}
