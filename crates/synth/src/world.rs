//! The synthetic Web 2.0 world generator.
//!
//! Sources are generated with three latent factors — **popularity**
//! (audience size, visits, inbound links), **engagement** (how much
//! discussion and commenting the community produces) and
//! **stickiness** (how long visitors stay; inverse of bounce rate).
//! These are exactly the constructs the paper's factor analysis
//! (Table 3) extracts from the observable measures as *traffic*,
//! *participation* and *time*, so worlds generated here let the
//! componentization experiment recover a known ground truth.
//!
//! Everything downstream — discussions, comments, interaction
//! streams, geo-tags, polarity of the text — is derived from the
//! latents plus per-user latents (activity, influence, spamminess)
//! through seeded, forked RNG streams, making worlds bit-reproducible.

use crate::names;
use crate::rng::{CumulativeSampler, Rng64};
use crate::text::{TextGenerator, CATEGORIES};
use obs_model::{
    AccountKind, CategoryId, ContentRef, Corpus, CorpusBuilder, DomainOfInterest, Duration,
    GeoPoint, InteractionKind, ModelError, Region, SourceId, SourceKind, Tag, TimeRange, Timestamp,
    UserId, SECONDS_PER_DAY,
};

/// Configuration of a synthetic world.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Master seed; every stream forks from it.
    pub seed: u64,
    /// Number of sources.
    pub sources: usize,
    /// Number of user accounts.
    pub users: usize,
    /// Number of content categories (capped at the catalog size).
    pub categories: usize,
    /// Simulated days of history.
    pub days: u64,
    /// Base mean discussions per source (scaled by latents).
    pub mean_discussions_per_source: f64,
    /// Base mean comments per discussion (scaled by latents).
    pub mean_comments_per_discussion: f64,
    /// Base mean active interactions per content item.
    pub interaction_rate: f64,
    /// Whether comments carry generated text (disable for very large
    /// ranking worlds to save memory; posts always carry text).
    pub comment_bodies: bool,
    /// Fraction of posts/comments carrying a geo-tag.
    pub geo_fraction: f64,
    /// Source-kind mix, weights in [`SourceKind::ALL`] order.
    pub kind_mix: [f64; 5],
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 42,
            sources: 60,
            users: 400,
            categories: 12,
            days: 120,
            mean_discussions_per_source: 18.0,
            mean_comments_per_discussion: 6.0,
            interaction_rate: 1.0,
            comment_bodies: true,
            geo_fraction: 0.3,
            kind_mix: [0.30, 0.30, 0.20, 0.15, 0.05],
        }
    }
}

impl WorldConfig {
    /// A small world for unit tests (fast to generate).
    pub fn small(seed: u64) -> Self {
        WorldConfig {
            seed,
            sources: 18,
            users: 120,
            categories: 8,
            days: 60,
            mean_discussions_per_source: 8.0,
            mean_comments_per_discussion: 4.0,
            interaction_rate: 0.8,
            ..WorldConfig::default()
        }
    }

    /// The Section 4.1 / Table 3 study world: a large population of
    /// blogs and forums (the paper analyzed 2 000+ sites behind 100+
    /// queries). Comment text is disabled to keep memory flat; the
    /// measures under study are counts and rates.
    pub fn ranking_study(seed: u64) -> Self {
        WorldConfig {
            seed,
            sources: 2_400,
            users: 6_000,
            categories: 18,
            days: 180,
            mean_discussions_per_source: 14.0,
            mean_comments_per_discussion: 5.0,
            interaction_rate: 0.5,
            comment_bodies: false,
            geo_fraction: 0.1,
            kind_mix: [0.55, 0.45, 0.0, 0.0, 0.0],
        }
    }

    /// The Section 6 application world: microblog and review sources
    /// about Milan tourism, with full text and geo-tags for the
    /// sentiment dashboards.
    pub fn sentiment_study(seed: u64) -> Self {
        WorldConfig {
            seed,
            sources: 40,
            users: 600,
            categories: 8,
            days: 90,
            mean_discussions_per_source: 25.0,
            mean_comments_per_discussion: 7.0,
            interaction_rate: 1.4,
            comment_bodies: true,
            geo_fraction: 0.55,
            kind_mix: [0.15, 0.10, 0.40, 0.30, 0.05],
        }
    }
}

/// Latent ground-truth factors of a source.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceLatent {
    /// Audience size / visit volume driver, heavy-tailed in `(0, 1]`.
    pub popularity: f64,
    /// Community participation driver in `(0, 1]`.
    pub engagement: f64,
    /// Visit-depth driver in `(0, 1]` (inverse of bounce rate).
    pub stickiness: f64,
    /// Topical focus: categories with normalized weights.
    pub focus: Vec<(CategoryId, f64)>,
    /// Mean polarity of the opinions hosted by the source, in
    /// `[−1, 1]`; used as ground truth by the sentiment experiments.
    pub polarity_bias: f64,
}

/// Latent ground-truth factors of a user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserLatent {
    /// Posting propensity (relative).
    pub activity: f64,
    /// Propensity to attract interactions (relative).
    pub influence: f64,
    /// Whether the account behaves like a spam bot: high emission,
    /// near-zero received interactions.
    pub spammer: bool,
}

/// A generated world: the corpus plus its latent ground truth.
#[derive(Debug, Clone)]
pub struct World {
    /// The configuration the world was generated from.
    pub config: WorldConfig,
    /// The generated corpus.
    pub corpus: Corpus,
    /// Ground-truth latents per source (indexed by `SourceId`).
    pub source_latents: Vec<SourceLatent>,
    /// Ground-truth latents per user (indexed by `UserId`).
    pub user_latents: Vec<UserLatent>,
    /// "Now": the end of the observation window.
    pub now: Timestamp,
}

/// Milan's coordinates, the geographic focus of the Section 6
/// application.
pub const MILAN: GeoPoint = GeoPoint {
    lat: 45.4642,
    lon: 9.19,
};

impl World {
    /// Generates a world from a configuration.
    pub fn generate(config: WorldConfig) -> World {
        #[expect(
            clippy::expect_used,
            reason = "the generator passes its builder only ids that builder issued, and only the 18 CATEGORIES names"
        )]
        World::try_generate(config).expect("a generated world is consistent")
    }

    fn try_generate(config: WorldConfig) -> Result<World, ModelError> {
        let root = Rng64::seeded(config.seed);
        let text = TextGenerator::new();

        let mut builder = CorpusBuilder::new();
        let n_categories = config.categories.clamp(1, CATEGORIES.len());
        let category_ids = CATEGORIES[..n_categories]
            .iter()
            .map(|c| builder.add_category(c.name))
            .collect::<Result<Vec<CategoryId>, _>>()?;

        let mut rng_users = root.fork(1);
        let user_latents = generate_users(&mut builder, &mut rng_users, &config)?;

        let mut rng_sources = root.fork(2);
        let source_latents =
            generate_sources(&mut builder, &mut rng_sources, &config, &category_ids)?;

        let activity_weights: Vec<f64> = user_latents.iter().map(|u| u.activity).collect();
        let audience_sampler = CumulativeSampler::new(&activity_weights);

        let mut rng_content = root.fork(3);
        generate_contents(
            &mut builder,
            &mut rng_content,
            &config,
            &source_latents,
            &user_latents,
            &audience_sampler,
            &text,
        )?;

        Ok(World {
            now: Timestamp::from_days(config.days),
            corpus: builder.build(),
            source_latents,
            user_latents,
            config,
        })
    }

    /// Category names actually present in this world, in id order.
    pub fn category_names(&self) -> Vec<&str> {
        self.corpus.categories().iter().map(|(_, n)| n).collect()
    }

    /// The tourism Domain of Interest used by the Section 6
    /// application: the first six (tourism) categories, the last 60
    /// days, and the Milan region.
    pub fn tourism_di(&self) -> DomainOfInterest {
        let cats: Vec<CategoryId> = self
            .corpus
            .categories()
            .iter()
            .take(6)
            .map(|(id, _)| id)
            .collect();
        DomainOfInterest::new(
            "milan-tourism",
            cats,
            TimeRange::last_days(self.now, 60),
            vec![Region::new("Milan", MILAN, 30.0)],
        )
    }

    /// An unconstrained DI over the full observation window.
    pub fn open_di(&self) -> DomainOfInterest {
        DomainOfInterest::new(
            "everything",
            self.corpus.categories().iter().map(|(id, _)| id),
            TimeRange::new(Timestamp::EPOCH, self.now),
            vec![],
        )
    }
}

fn generate_users(
    builder: &mut CorpusBuilder,
    rng: &mut Rng64,
    config: &WorldConfig,
) -> Result<Vec<UserLatent>, ModelError> {
    let mut latents = Vec::with_capacity(config.users);
    for i in 0..config.users {
        let kind = match rng.f64() {
            p if p < 0.92 => AccountKind::Person,
            p if p < 0.97 => AccountKind::Brand,
            _ => AccountKind::News,
        };
        let handle = match kind {
            AccountKind::Person => names::user_handle(rng, i),
            AccountKind::Brand => names::brand_handle(rng, i),
            AccountKind::News => names::news_handle(rng, i),
        };
        let registered = Timestamp(rng.range_u64(0, (config.days / 2).max(1) * SECONDS_PER_DAY));
        let id = builder.add_user(handle, kind, registered);

        let followers_mu = match kind {
            AccountKind::Person => 4.0,
            AccountKind::Brand => 6.0,
            AccountKind::News => 7.5,
        };
        builder.set_followers(id, rng.log_normal(followers_mu, 1.2).min(5e6) as u32)?;
        if rng.chance(0.6) {
            builder.set_user_home(
                id,
                GeoPoint::new(
                    MILAN.lat + rng.normal() * 0.15,
                    MILAN.lon + rng.normal() * 0.2,
                ),
            )?;
        }

        let spammer = rng.chance(0.03);
        let activity = if spammer {
            rng.log_normal(1.2, 0.4)
        } else {
            rng.log_normal(-0.5, 0.9)
        };
        let influence = if spammer {
            rng.log_normal(-3.5, 0.5)
        } else {
            rng.log_normal(-0.5, 1.0)
        };
        latents.push(UserLatent {
            activity,
            influence,
            spammer,
        });
    }
    Ok(latents)
}

fn generate_sources(
    builder: &mut CorpusBuilder,
    rng: &mut Rng64,
    config: &WorldConfig,
    category_ids: &[CategoryId],
) -> Result<Vec<SourceLatent>, ModelError> {
    let mut latents = Vec::with_capacity(config.sources);
    for i in 0..config.sources {
        let kind = SourceKind::ALL[rng.weighted_index(&config.kind_mix)];
        let founded = Timestamp(rng.range_u64(0, (config.days / 4).max(1) * SECONDS_PER_DAY));
        let id = builder.add_source(kind, names::source_name(rng, kind, i), founded);
        builder.set_source_home(
            id,
            GeoPoint::new(
                MILAN.lat + rng.normal() * 0.1,
                MILAN.lon + rng.normal() * 0.15,
            ),
        )?;

        // Independent latent factors; Pareto popularity gives the
        // heavy-tailed visit distribution real traffic panels show.
        let popularity = (rng.pareto(1.0, 1.4).min(40.0) / 40.0).clamp(0.01, 1.0);
        let engagement = (rng.log_normal(-0.9, 0.7).min(3.0) / 3.0).clamp(0.01, 1.0);
        let stickiness = ((rng.f64() + rng.f64()) / 2.0).clamp(0.02, 1.0);

        // Specialists (few categories) vs generalists.
        let n_focus = if rng.chance(0.6) {
            1 + rng.index(2)
        } else {
            3 + rng.index(category_ids.len().saturating_sub(3).clamp(1, 6))
        };
        let mut cats: Vec<CategoryId> = category_ids.to_vec();
        rng.shuffle(&mut cats);
        cats.truncate(n_focus.min(cats.len()));
        let mut weights: Vec<f64> = cats.iter().map(|_| rng.exponential(1.0) + 0.05).collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        let focus: Vec<(CategoryId, f64)> = cats.into_iter().zip(weights).collect();

        let polarity_bias = (0.15 + rng.normal() * 0.45).clamp(-0.95, 0.95);
        latents.push(SourceLatent {
            popularity,
            engagement,
            stickiness,
            focus,
            polarity_bias,
        });
    }
    Ok(latents)
}

#[allow(
    clippy::too_many_arguments,
    reason = "the generator's shared state, passed down from World::generate"
)]
fn generate_contents(
    builder: &mut CorpusBuilder,
    rng: &mut Rng64,
    config: &WorldConfig,
    source_latents: &[SourceLatent],
    user_latents: &[UserLatent],
    audience_sampler: &CumulativeSampler,
    text: &TextGenerator,
) -> Result<(), ModelError> {
    let horizon = Timestamp::from_days(config.days);
    let category_names: Vec<String> = CATEGORIES
        .iter()
        .take(config.categories.clamp(1, CATEGORIES.len()))
        .map(|c| c.name.to_owned())
        .collect();

    for (source_idx, latent) in source_latents.iter().enumerate() {
        let source = SourceId::new(source_idx as u32);
        let lambda = config.mean_discussions_per_source
            * (0.3 + 1.8 * latent.engagement)
            * (0.4 + 1.2 * latent.popularity);
        let n_discussions = rng.poisson(lambda).min(500) as usize;

        // Per-source audience: a subset of users, weighted by their
        // activity; larger for popular sources.
        let audience_size = (4.0 + latent.popularity * 60.0 + latent.engagement * 20.0) as usize;
        let mut audience: Vec<UserId> = (0..audience_size.max(3))
            .map(|_| UserId::new(audience_sampler.sample(rng) as u32))
            .collect();
        audience.dedup();

        for _ in 0..n_discussions {
            let founded = builder.source_founded(source)?;
            let open_window = horizon.seconds().saturating_sub(founded.seconds());
            if open_window == 0 {
                continue;
            }
            let opened_at = Timestamp(founded.seconds() + rng.range_u64(0, open_window));
            let focus_idx =
                rng.weighted_index(&latent.focus.iter().map(|(_, w)| *w).collect::<Vec<_>>());
            let (category, _) = latent.focus[focus_idx];
            let category_name = &category_names[category.index()];
            let opener = audience[rng.index(audience.len())];

            let polarity = (latent.polarity_bias + rng.normal() * 0.35).clamp(-1.0, 1.0);
            let title = text.title(rng, category_name);
            let n_sentences = 1 + rng.index(3);
            let body = text.body(rng, category_name, polarity, n_sentences);
            let n_tags = 1 + rng.index(4);
            let tags: Vec<Tag> = text
                .tags(rng, category_name, n_tags)
                .into_iter()
                .map(Tag::new)
                .collect();
            let geo = if rng.chance(config.geo_fraction) {
                Some(GeoPoint::new(
                    MILAN.lat + rng.normal() * 0.08,
                    MILAN.lon + rng.normal() * 0.1,
                ))
            } else {
                None
            };
            let (discussion, root_post) = builder.add_discussion_with_post(
                source, category, title, opener, opened_at, body, tags, geo,
            )?;
            if opened_at.seconds() < horizon.seconds() / 2 && rng.chance(0.25) {
                builder.close_discussion(discussion)?;
            }

            // Root-post interactions scale with popularity and the
            // opener's influence.
            let opener_influence = user_latents[opener.index()].influence;
            let post_lambda =
                config.interaction_rate * (0.3 + latent.popularity) * (0.3 + opener_influence);
            emit_interactions(
                builder,
                rng,
                &audience,
                ContentRef::Post(root_post),
                opened_at,
                horizon,
                post_lambda,
                builder.source_kind(source)?,
            )?;

            // Comments.
            let comment_lambda =
                config.mean_comments_per_discussion * (0.25 + 2.2 * latent.engagement);
            let n_comments = rng.poisson(comment_lambda).min(300) as usize;
            let mut t = opened_at;
            let mut prior_comments = Vec::with_capacity(n_comments);
            for _ in 0..n_comments {
                let gap = rng
                    .exponential(3.0 / SECONDS_PER_DAY as f64)
                    .min(20.0 * SECONDS_PER_DAY as f64);
                t = t.plus(Duration(gap as u64 + 60));
                if t >= horizon {
                    break;
                }
                let author = audience[rng.index(audience.len())];
                let body = if config.comment_bodies {
                    let p = (latent.polarity_bias + rng.normal() * 0.45).clamp(-1.0, 1.0);
                    text.sentence(rng, category_name, p)
                } else {
                    String::new()
                };
                let geo = if rng.chance(config.geo_fraction * 0.5) {
                    Some(GeoPoint::new(
                        MILAN.lat + rng.normal() * 0.08,
                        MILAN.lon + rng.normal() * 0.1,
                    ))
                } else {
                    None
                };
                let comment = if !prior_comments.is_empty() && rng.chance(0.25) {
                    let parent = prior_comments[rng.index(prior_comments.len())];
                    builder.add_reply(discussion, author, body, t, parent)?
                } else {
                    builder.add_comment_geo(discussion, author, body, t, geo)?
                };
                prior_comments.push(comment);

                let author_influence = user_latents[author.index()].influence;
                let lambda = config.interaction_rate
                    * (0.2 + 0.8 * latent.engagement)
                    * (0.25 + author_influence);
                emit_interactions(
                    builder,
                    rng,
                    &audience,
                    ContentRef::Comment(comment),
                    t,
                    horizon,
                    lambda,
                    builder.source_kind(source)?,
                )?;
            }
        }
    }
    Ok(())
}

#[allow(
    clippy::too_many_arguments,
    reason = "one draw of events for one target, given as its own parameters"
)]
fn emit_interactions(
    builder: &mut CorpusBuilder,
    rng: &mut Rng64,
    audience: &[UserId],
    target: ContentRef,
    after: Timestamp,
    horizon: Timestamp,
    lambda: f64,
    kind: SourceKind,
) -> Result<(), ModelError> {
    let n = rng.poisson(lambda.min(40.0)).min(200);
    for _ in 0..n {
        let actor = audience[rng.index(audience.len())];
        let gap = rng
            .exponential(2.0 / SECONDS_PER_DAY as f64)
            .min(15.0 * SECONDS_PER_DAY as f64);
        let at = after.plus(Duration(gap as u64 + 30));
        if at >= horizon {
            continue;
        }
        let ikind = sample_interaction_kind(rng, kind);
        builder.add_interaction(actor, target, ikind, at)?;
    }
    // Passive reads, proportional to the active stream.
    let reads = rng.poisson((lambda * 0.6).min(20.0)).min(100);
    for _ in 0..reads {
        let actor = audience[rng.index(audience.len())];
        let gap = rng
            .exponential(2.0 / SECONDS_PER_DAY as f64)
            .min(15.0 * SECONDS_PER_DAY as f64);
        let at = after.plus(Duration(gap as u64 + 30));
        if at >= horizon {
            continue;
        }
        builder.add_interaction(actor, target, InteractionKind::Read, at)?;
    }
    Ok(())
}

/// Interaction mixes differ per source kind: microblogs retweet and
/// mention, review sites leave feedbacks, blogs/forums/wikis like and
/// share.
fn sample_interaction_kind(rng: &mut Rng64, kind: SourceKind) -> InteractionKind {
    match kind {
        SourceKind::Microblog => match rng.weighted_index(&[0.25, 0.10, 0.35, 0.30]) {
            0 => InteractionKind::Like,
            1 => InteractionKind::Share,
            2 => InteractionKind::Retweet,
            _ => InteractionKind::Mention,
        },
        SourceKind::ReviewSite => match rng.weighted_index(&[0.3, 0.1, 0.6]) {
            0 => InteractionKind::Like,
            1 => InteractionKind::Share,
            _ => InteractionKind::Feedback,
        },
        _ => match rng.weighted_index(&[0.55, 0.25, 0.20]) {
            0 => InteractionKind::Like,
            1 => InteractionKind::Share,
            _ => InteractionKind::Feedback,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> World {
        World::generate(WorldConfig::small(7))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(WorldConfig::small(99));
        let b = World::generate(WorldConfig::small(99));
        let sa = a.corpus.stats();
        let sb = b.corpus.stats();
        assert_eq!(sa, sb);
        assert_eq!(
            a.corpus.discussions().first().map(|d| d.title.clone()),
            b.corpus.discussions().first().map(|d| d.title.clone())
        );
    }

    #[test]
    fn different_seeds_give_different_worlds() {
        let a = World::generate(WorldConfig::small(1));
        let b = World::generate(WorldConfig::small(2));
        assert_ne!(a.corpus.stats().comments, b.corpus.stats().comments);
    }

    #[test]
    fn world_has_expected_shape() {
        let w = small_world();
        let stats = w.corpus.stats();
        assert_eq!(stats.sources, 18);
        assert_eq!(stats.users, 120);
        assert!(stats.discussions > 30, "got {}", stats.discussions);
        assert!(
            stats.comments > stats.discussions,
            "comments should dominate"
        );
        assert!(stats.interactions > 0);
        assert_eq!(w.source_latents.len(), 18);
        assert_eq!(w.user_latents.len(), 120);
    }

    #[test]
    fn all_timestamps_inside_horizon() {
        let w = small_world();
        for d in w.corpus.discussions() {
            assert!(d.opened_at < w.now);
        }
        for c in w.corpus.comments() {
            assert!(c.published < w.now);
        }
        for i in w.corpus.interactions() {
            assert!(i.at < w.now);
        }
    }

    #[test]
    fn discussions_respect_source_focus() {
        let w = small_world();
        for d in w.corpus.discussions() {
            let latent = &w.source_latents[d.source.index()];
            assert!(
                latent.focus.iter().any(|(c, _)| *c == d.category),
                "discussion in category outside its source focus"
            );
        }
    }

    #[test]
    fn latents_are_in_declared_ranges() {
        let w = small_world();
        for l in &w.source_latents {
            assert!((0.0..=1.0).contains(&l.popularity));
            assert!((0.0..=1.0).contains(&l.engagement));
            assert!((0.0..=1.0).contains(&l.stickiness));
            assert!((-1.0..=1.0).contains(&l.polarity_bias));
            let total: f64 = l.focus.iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn popularity_distribution_is_heavy_tailed() {
        let w = World::generate(WorldConfig {
            sources: 300,
            ..WorldConfig::small(3)
        });
        let mut pops: Vec<f64> = w.source_latents.iter().map(|l| l.popularity).collect();
        pops.sort_by(|a, b| b.total_cmp(a));
        // Top source dwarfs the median.
        assert!(
            pops[0] > 5.0 * pops[150],
            "top {} median {}",
            pops[0],
            pops[150]
        );
    }

    #[test]
    fn microblogs_accumulate_retweets_and_mentions() {
        let w = World::generate(WorldConfig::sentiment_study(11));
        let mut retweets = 0usize;
        let mut mentions = 0usize;
        for i in w.corpus.interactions() {
            let source = w.corpus.source_of(i.target).unwrap();
            let kind = w.corpus.source(source).unwrap().kind;
            match i.kind {
                InteractionKind::Retweet => {
                    assert_eq!(kind, SourceKind::Microblog);
                    retweets += 1;
                }
                InteractionKind::Mention => {
                    assert_eq!(kind, SourceKind::Microblog);
                    mentions += 1;
                }
                _ => {}
            }
        }
        assert!(retweets > 0 && mentions > 0);
    }

    #[test]
    fn tourism_di_covers_tourism_posts_only() {
        let w = small_world();
        let di = w.tourism_di();
        assert_eq!(di.categories.len(), 6);
        assert!(!di.locations.is_empty());
        // Window end matches the horizon.
        assert_eq!(di.window.end, w.now);
    }

    #[test]
    fn spammers_exist_and_have_low_influence() {
        let w = World::generate(WorldConfig {
            users: 2_000,
            ..WorldConfig::small(13)
        });
        let spammers: Vec<&UserLatent> = w.user_latents.iter().filter(|u| u.spammer).collect();
        assert!(!spammers.is_empty());
        let avg_spam_influence: f64 =
            spammers.iter().map(|u| u.influence).sum::<f64>() / spammers.len() as f64;
        let legit: Vec<&UserLatent> = w.user_latents.iter().filter(|u| !u.spammer).collect();
        let avg_legit_influence: f64 =
            legit.iter().map(|u| u.influence).sum::<f64>() / legit.len() as f64;
        assert!(avg_spam_influence < avg_legit_influence / 5.0);
    }

    #[test]
    fn ranking_world_is_blogs_and_forums_only() {
        let w = World::generate(WorldConfig {
            sources: 50,
            users: 200,
            ..WorldConfig::ranking_study(5)
        });
        for s in w.corpus.sources() {
            assert!(
                s.kind.in_search_study(),
                "{:?} leaked into ranking world",
                s.kind
            );
        }
        // Comment bodies disabled.
        assert!(w.corpus.comments().iter().all(|c| c.body.is_empty()));
        // Post bodies still present (the search index needs them).
        assert!(w.corpus.posts().iter().all(|p| !p.body.is_empty()));
    }
}
