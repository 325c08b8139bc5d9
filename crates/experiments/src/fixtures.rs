//! Standard experiment fixtures.
//!
//! Experiments share two worlds: the **ranking** world (blogs and
//! forums at the Section 4.1 scale) and the **sentiment** world
//! (microblog/review-heavy, Milan tourism). `Scale::Quick` shrinks
//! both for tests; `Scale::Full` matches the paper's magnitudes and
//! is what the binaries run.

use obs_analytics::{AlexaPanel, FeedRegistry, LinkGraph};
use obs_model::DomainOfInterest;
use obs_quality::SourceContext;
use obs_search::{BlendWeights, SearchEngine};
use obs_synth::{QueryWorkload, World, WorldConfig};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-sized (2 400 sources, 120 queries, 813 accounts).
    Full,
    /// Small and fast for tests.
    Quick,
}

/// The Section 4.1 / Table 3 fixture: world + analytics + search
/// engine + query workload.
pub struct RankingFixture {
    /// The generated world.
    pub world: World,
    /// Traffic panel.
    pub panel: AlexaPanel,
    /// Link graph.
    pub links: LinkGraph,
    /// Feed registry.
    pub feeds: FeedRegistry,
    /// The open Domain of Interest used for the (domain-independent)
    /// ranking study.
    pub di: DomainOfInterest,
    /// The baseline search engine.
    pub engine: SearchEngine,
    /// The query workload.
    pub workload: QueryWorkload,
}

impl RankingFixture {
    /// Builds the fixture.
    pub fn build(seed: u64, scale: Scale) -> RankingFixture {
        let config = match scale {
            Scale::Full => WorldConfig::ranking_study(seed),
            Scale::Quick => WorldConfig {
                sources: 220,
                users: 900,
                mean_discussions_per_source: 10.0,
                ..WorldConfig::ranking_study(seed)
            },
        };
        let categories = config.categories;
        let world = World::generate(config);
        let panel = AlexaPanel::simulate(&world, seed ^ 0x01);
        let links = LinkGraph::simulate(&world, seed ^ 0x02);
        let feeds = FeedRegistry::simulate(&world, seed ^ 0x03);
        let di = world.open_di();
        let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
        let n_queries = match scale {
            Scale::Full => 120,
            Scale::Quick => 30,
        };
        let workload = QueryWorkload::generate(seed ^ 0x04, n_queries, categories);
        RankingFixture {
            world,
            panel,
            links,
            feeds,
            di,
            engine,
            workload,
        }
    }

    /// An evaluation context over this fixture.
    pub fn ctx(&self) -> SourceContext<'_> {
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

/// The Section 6 / Figure 1 fixture.
pub struct SentimentFixture {
    /// The generated world.
    pub world: World,
    /// Traffic panel.
    pub panel: AlexaPanel,
    /// Link graph.
    pub links: LinkGraph,
    /// Feed registry.
    pub feeds: FeedRegistry,
    /// The Milan tourism Domain of Interest.
    pub di: DomainOfInterest,
}

impl SentimentFixture {
    /// Builds the fixture.
    pub fn build(seed: u64, scale: Scale) -> SentimentFixture {
        let config = match scale {
            Scale::Full => WorldConfig::sentiment_study(seed),
            Scale::Quick => WorldConfig {
                sources: 16,
                users: 220,
                mean_discussions_per_source: 10.0,
                ..WorldConfig::sentiment_study(seed)
            },
        };
        let world = World::generate(config);
        let panel = AlexaPanel::simulate(&world, seed ^ 0x11);
        let links = LinkGraph::simulate(&world, seed ^ 0x12);
        let feeds = FeedRegistry::simulate(&world, seed ^ 0x13);
        let di = world.tourism_di();
        SentimentFixture {
            world,
            panel,
            links,
            feeds,
            di,
        }
    }

    /// An evaluation context over this fixture (tourism DI).
    pub fn ctx(&self) -> SourceContext<'_> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ranking_fixture_is_consistent() {
        let f = RankingFixture::build(42, Scale::Quick);
        assert_eq!(f.world.corpus.sources().len(), 220);
        assert_eq!(f.workload.len(), 30);
        assert!(f.engine.doc_count() > 0);
        let _ctx = f.ctx();
    }

    #[test]
    fn quick_sentiment_fixture_is_consistent() {
        let f = SentimentFixture::build(42, Scale::Quick);
        assert_eq!(f.world.corpus.sources().len(), 16);
        assert!(!f.di.categories.is_empty());
        let _ctx = f.ctx();
    }
}
