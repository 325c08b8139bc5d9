//! The instrument catalog is the one source of truth for instrument
//! families: the serving stack exposes exactly the `CATALOG`
//! families, each with the label keys, `# HELP` and `# TYPE` its spec
//! declares, and the ARCHITECTURE.md instrument table documents
//! exactly `CATALOG`.

use informing_observers::analytics::{AlexaPanel, LinkGraph};
use informing_observers::live::{CacheMetrics, QueryCache, ShardMetrics, ShardedLiveService};
use informing_observers::model::{Clock, CorpusDelta, PostId, Timestamp};
use informing_observers::search::{BlendWeights, SearchEngine};
use informing_observers::synth::{World, WorldConfig};
use informing_observers::telemetry::{catalog, MetricValue, Registry, CATALOG};
use informing_observers::wrappers::{
    service_for, CrawlMetrics, Crawler, CrawlerConfig, DataService, HighWaterMarks,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Crawls, ingests and queries a 2-shard cached service with every
/// metrics type on one registry.
fn exercised_registry() -> Arc<Registry> {
    let world = World::generate(WorldConfig {
        sources: 12,
        users: 80,
        days: 40,
        ..WorldConfig::small(5)
    });
    let panel = AlexaPanel::simulate(&world, 1);
    let links = LinkGraph::simulate(&world, 2);
    let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
    let all: Vec<PostId> = world.corpus.posts().iter().map(|p| p.id).collect();
    let mut seed = engine.clone();
    seed.apply_delta(&CorpusDelta::for_removals(&world.corpus, &all).unwrap());
    let midpoint = Timestamp(world.now.seconds() / 2);
    let boot: Vec<PostId> = all
        .iter()
        .copied()
        .filter(|&p| world.corpus.post(p).unwrap().published <= midpoint)
        .collect();

    let registry = Arc::new(Registry::new());
    let cache_metrics = CacheMetrics::new(&registry);
    let dir = std::env::temp_dir().join(format!("obs_catalog_{}", std::process::id()));
    let mut service = ShardedLiveService::start(&seed, 2, &dir)
        .unwrap()
        .with_metrics(ShardMetrics::new(&registry, 2))
        .with_query_cache(QueryCache::new(16).with_metrics(cache_metrics.clone()));
    service
        .ingest(&CorpusDelta::for_posts(&world.corpus, &boot).unwrap())
        .unwrap();

    let crawler = Crawler::new(CrawlerConfig {
        workers: 2,
        ..CrawlerConfig::default()
    })
    .with_metrics(Arc::new(CrawlMetrics::new(&registry)));
    let mut marks = HighWaterMarks::new();
    for source in world.corpus.sources() {
        marks.advance(source.id, midpoint);
    }
    let mut services: Vec<Box<dyn DataService + '_>> = world
        .corpus
        .sources()
        .iter()
        .map(|s| service_for(&world.corpus, s.id, world.now).unwrap())
        .collect();
    let mut clock = Clock::starting_at(world.now);
    service
        .tick_sweep(&crawler, &mut services, &mut clock, &mut marks)
        .unwrap();

    let reader = service.reader();
    let terms = vec!["museum".to_owned(), "market".to_owned()];
    for _ in 0..3 {
        reader.query(&terms, 10);
    }
    assert!(cache_metrics.hits() > 0 && cache_metrics.misses() > 0);

    drop((reader, service));
    std::fs::remove_dir_all(&dir).ok();
    registry
}

#[test]
fn the_serving_stack_exposes_exactly_the_catalog() {
    let registry = exercised_registry();
    let snapshot = registry.snapshot();
    let text = registry.render_text();

    let exposed: BTreeSet<&str> = snapshot.iter().map(|s| s.spec.name).collect();
    let catalog: BTreeSet<&str> = CATALOG.iter().map(|s| s.name).collect();
    assert_eq!(exposed, catalog);

    for series in &snapshot {
        let spec = CATALOG.iter().find(|s| s.name == series.spec.name).unwrap();
        assert_eq!(series.spec, *spec, "registered through a stray spec");
        for (key, _) in &series.labels {
            assert!(
                spec.labels.contains(&key.as_str()),
                "{}: label {key}",
                spec.name
            );
        }
    }

    let headers: Vec<&str> = text.lines().filter(|l| l.starts_with('#')).collect();
    assert_eq!(headers.len(), 2 * CATALOG.len());
    for spec in CATALOG {
        let help = format!("# HELP {} {}", spec.name, spec.help);
        let kind = format!("# TYPE {} {}", spec.name, spec.kind.exposition_type());
        let own: Vec<&str> = headers
            .iter()
            .copied()
            .filter(|l| l.split(' ').nth(2) == Some(spec.name))
            .collect();
        assert_eq!(own, [help, kind]);
    }

    // Every sample belongs to the family its `# TYPE` line declares:
    // the family name itself or, for a summary, `_count`/`_sum`.
    let mut family = ("", "");
    for line in text.lines() {
        if let Some(header) = line.strip_prefix("# TYPE ") {
            family = header.split_once(' ').unwrap();
        } else if !line.starts_with('#') {
            let sample = line.split(['{', ' ']).next().unwrap();
            let (name, kind) = family;
            let suffix = sample.strip_prefix(name);
            let summary_part = kind == "summary" && matches!(suffix, Some("_count" | "_sum"));
            assert!(
                suffix == Some("") || summary_part,
                "{sample} in {kind} {name}"
            );
        }
    }

    for spec in [
        &catalog::LIVE_SHARD_COMMITS_TOTAL,
        &catalog::LIVE_QUERY_CACHE_HITS_TOTAL,
        &catalog::LIVE_QUERY_CACHE_MISSES_TOTAL,
        &catalog::LIVE_QUERY_CACHE_FILLS_TOTAL,
        &catalog::CRAWL_PAGES_TOTAL,
        &catalog::CRAWL_ITEMS_TOTAL,
    ] {
        let total: u64 = snapshot
            .iter()
            .filter(|s| s.spec.name == spec.name)
            .map(|s| match s.value {
                MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum();
        assert!(total > 0, "{} stayed at zero", spec.name);
    }
}

/// One row of the ARCHITECTURE.md instrument table per family:
/// family name → (type column, backticked label keys). A row may
/// name several families in its first column.
fn parse_catalog_table(text: &str) -> BTreeMap<String, (String, BTreeSet<String>)> {
    let mut rows = BTreeMap::new();
    let mut in_table = false;
    for line in text.lines().map(str::trim) {
        if !in_table {
            in_table = line.starts_with("| instrument");
            continue;
        }
        if !line.starts_with('|') {
            break;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells[0].starts_with("---") {
            continue;
        }
        let labels: BTreeSet<String> = backticked(cells[2]).collect();
        for name in backticked(cells[0]) {
            let row = (cells[1].to_owned(), labels.clone());
            assert!(
                rows.insert(name.clone(), row).is_none(),
                "{name} listed twice"
            );
        }
    }
    rows
}

/// The contents of every `` `…` `` span in `cell`.
fn backticked(cell: &str) -> impl Iterator<Item = String> + '_ {
    cell.split('`').skip(1).step_by(2).map(str::to_owned)
}

#[test]
fn the_architecture_table_matches_the_catalog() {
    let documented = parse_catalog_table(include_str!("../ARCHITECTURE.md"));
    let catalog: BTreeMap<String, (String, BTreeSet<String>)> = CATALOG
        .iter()
        .map(|spec| {
            let labels = spec.labels.iter().map(|&k| k.to_owned()).collect();
            (spec.name.to_owned(), (spec.kind.name().to_owned(), labels))
        })
        .collect();
    assert_eq!(documented, catalog);
}
