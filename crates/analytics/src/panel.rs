//! The Alexa-like traffic panel.
//!
//! Table 1 reads five metrics off Alexa: traffic rank, daily
//! visitors, daily page views, average time spent on site, and bounce
//! rate (plus the derived page-views-per-visitor liveliness measure).
//! [`AlexaPanel`] computes all of them by aggregating the simulated
//! [`VisitLog`].

use crate::visits::VisitLog;
use obs_model::SourceId;
use obs_search::Traffic;
use obs_synth::World;

/// Per-source traffic aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceTraffic {
    /// Estimated distinct daily visitors (panel-weighted sessions per
    /// day; sessions proxy visitors as in real panels).
    pub daily_visitors: f64,
    /// Estimated daily page views.
    pub daily_page_views: f64,
    /// Average session time, in seconds.
    pub avg_time_on_site: f64,
    /// Fraction of single-page sessions, in `[0, 1]`.
    pub bounce_rate: f64,
    /// 1-based global rank by daily visitors (1 = most visited).
    pub traffic_rank: usize,
}

impl SourceTraffic {
    /// Daily page views per daily visitor — the paper's liveliness
    /// measure under the authority row.
    pub fn page_views_per_visitor(&self) -> f64 {
        if self.daily_visitors <= 0.0 {
            0.0
        } else {
            self.daily_page_views / self.daily_visitors
        }
    }
}

/// The simulated Alexa panel: one [`SourceTraffic`] per source.
#[derive(Debug, Clone, PartialEq)]
pub struct AlexaPanel {
    per_source: Vec<SourceTraffic>,
}

impl AlexaPanel {
    /// Aggregates a visit log into the panel.
    pub fn from_visits(log: &VisitLog) -> AlexaPanel {
        let n_sources = log.source_count();
        let days = log.days().max(1) as f64;

        let mut per_source = Vec::with_capacity(n_sources);
        for idx in 0..n_sources {
            let source = SourceId::new(idx as u32);
            let weight = log.weight_of(source);
            let mut sessions = 0u64;
            let mut pages = 0u64;
            let mut dwell = 0u64;
            let mut bounces = 0u64;
            for v in log.sessions_of(source) {
                sessions += 1;
                pages += v.pages as u64;
                dwell += v.dwell_secs as u64;
                bounces += u64::from(v.bounced());
            }
            let (visitors, views, time, bounce) = if sessions == 0 {
                (0.0, 0.0, 0.0, 1.0)
            } else {
                (
                    sessions as f64 * weight / days,
                    pages as f64 * weight / days,
                    dwell as f64 / sessions as f64,
                    bounces as f64 / sessions as f64,
                )
            };
            per_source.push(SourceTraffic {
                daily_visitors: visitors,
                daily_page_views: views,
                avg_time_on_site: time,
                bounce_rate: bounce,
                traffic_rank: 0, // filled below
            });
        }

        // Rank by daily visitors, descending; ties broken by id for
        // determinism.
        let mut order: Vec<usize> = (0..per_source.len()).collect();
        order.sort_by(|&a, &b| {
            per_source[b]
                .daily_visitors
                .total_cmp(&per_source[a].daily_visitors)
                .then(a.cmp(&b))
        });
        for (rank, &idx) in order.iter().enumerate() {
            per_source[idx].traffic_rank = rank + 1;
        }

        AlexaPanel { per_source }
    }

    /// Simulates the full pipeline (visit log + aggregation) for a
    /// world.
    pub fn simulate(world: &World, seed: u64) -> AlexaPanel {
        AlexaPanel::from_visits(&VisitLog::simulate(world, seed))
    }

    /// Traffic of one source; `None` for unknown ids.
    pub fn traffic(&self, source: SourceId) -> Option<&SourceTraffic> {
        self.per_source.get(source.index())
    }

    /// All sources, id-ordered.
    pub fn all(&self) -> &[SourceTraffic] {
        &self.per_source
    }

    /// Number of covered sources.
    pub fn len(&self) -> usize {
        self.per_source.len()
    }

    /// Whether the panel is empty.
    pub fn is_empty(&self) -> bool {
        self.per_source.is_empty()
    }
}

impl From<&AlexaPanel> for Traffic {
    /// The search baseline's traffic input: each source's daily
    /// visitors and average time on site, in id order.
    fn from(panel: &AlexaPanel) -> Traffic {
        Traffic {
            daily_visitors: panel.all().iter().map(|t| t.daily_visitors).collect(),
            avg_time_on_site: panel.all().iter().map(|t| t.avg_time_on_site).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_synth::WorldConfig;

    fn panel() -> (World, AlexaPanel) {
        let world = World::generate(WorldConfig::small(77));
        let panel = AlexaPanel::simulate(&world, 3);
        (world, panel)
    }

    #[test]
    fn panel_covers_every_source() {
        let (world, panel) = panel();
        assert_eq!(panel.len(), world.corpus.sources().len());
        for s in world.corpus.sources() {
            assert!(panel.traffic(s.id).is_some());
        }
        assert!(panel.traffic(SourceId::new(999)).is_none());
    }

    #[test]
    fn ranks_are_a_permutation_and_follow_visitors() {
        let (_, panel) = panel();
        let mut ranks: Vec<usize> = panel.all().iter().map(|t| t.traffic_rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (1..=panel.len()).collect::<Vec<_>>());
        // Rank 1 has the maximum visitors.
        let best = panel.all().iter().find(|t| t.traffic_rank == 1).unwrap();
        for t in panel.all() {
            assert!(t.daily_visitors <= best.daily_visitors);
        }
    }

    #[test]
    fn metrics_are_physical() {
        let (_, panel) = panel();
        for t in panel.all() {
            assert!(t.daily_visitors > 0.0);
            assert!(t.daily_page_views >= t.daily_visitors * 0.99);
            assert!((0.0..=1.0).contains(&t.bounce_rate));
            assert!(t.avg_time_on_site > 0.0);
            assert!(t.page_views_per_visitor() >= 0.99);
        }
    }

    #[test]
    fn popularity_correlates_with_visitors() {
        let (world, panel) = panel();
        let pop: Vec<f64> = world.source_latents.iter().map(|l| l.popularity).collect();
        let vis: Vec<f64> = panel.all().iter().map(|t| t.daily_visitors).collect();
        let r = obs_stats::spearman(&pop, &vis).unwrap();
        assert!(r > 0.7, "spearman {r}");
    }

    #[test]
    fn stickiness_drives_time_and_inverse_bounce() {
        let (world, panel) = panel();
        let stick: Vec<f64> = world.source_latents.iter().map(|l| l.stickiness).collect();
        let time: Vec<f64> = panel.all().iter().map(|t| t.avg_time_on_site).collect();
        let bounce: Vec<f64> = panel.all().iter().map(|t| t.bounce_rate).collect();
        let rt = obs_stats::spearman(&stick, &time).unwrap();
        let rb = obs_stats::spearman(&stick, &bounce).unwrap();
        assert!(rt > 0.6, "time spearman {rt}");
        assert!(rb < -0.5, "bounce spearman {rb}");
    }

    #[test]
    fn traffic_input_has_one_entry_per_source_in_id_order() {
        let (world, panel) = panel();
        let traffic = Traffic::from(&panel);
        assert_eq!(traffic.daily_visitors.len(), world.corpus.sources().len());
        assert_eq!(traffic.avg_time_on_site.len(), world.corpus.sources().len());
        for s in world.corpus.sources() {
            let t = panel.traffic(s.id).unwrap();
            let i = s.id.index();
            assert_eq!(
                traffic.daily_visitors[i].to_bits(),
                t.daily_visitors.to_bits()
            );
            assert_eq!(
                traffic.avg_time_on_site[i].to_bits(),
                t.avg_time_on_site.to_bits()
            );
        }
    }

    #[test]
    fn empty_log_yields_empty_panel() {
        let world = World::generate(WorldConfig {
            sources: 0,
            ..WorldConfig::small(1)
        });
        let panel = AlexaPanel::simulate(&world, 1);
        assert!(panel.is_empty());
    }

    #[test]
    fn zero_visitor_traffic_has_zero_ratio() {
        let t = SourceTraffic {
            daily_visitors: 0.0,
            daily_page_views: 0.0,
            avg_time_on_site: 0.0,
            bounce_rate: 1.0,
            traffic_rank: 1,
        };
        assert_eq!(t.page_views_per_visitor(), 0.0);
    }
}
