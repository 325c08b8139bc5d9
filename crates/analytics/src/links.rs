//! The inter-source link graph.
//!
//! "Number of inbound links" is the paper's authority/relevance
//! measure sourced from Alexa (Table 1), and it is the raw material
//! of the search baseline's PageRank. The simulated graph grows by
//! preferential attachment on the latent popularity — popular sources
//! attract links — with a topical-affinity boost: a source is more
//! likely to link a source it shares a focus category with.

use obs_model::SourceId;
use obs_synth::rng::{CumulativeSampler, Rng64};
use obs_synth::World;

/// A directed link graph over sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkGraph {
    outbound: Vec<Vec<SourceId>>,
    inbound: Vec<Vec<SourceId>>,
}

impl LinkGraph {
    /// Simulates the graph for a world.
    pub fn simulate(world: &World, seed: u64) -> LinkGraph {
        let n = world.source_latents.len();
        let mut rng = Rng64::seeded(seed ^ 0x11CC);
        let mut outbound = vec![Vec::new(); n];
        let mut inbound = vec![Vec::new(); n];
        if n < 2 {
            return LinkGraph { outbound, inbound };
        }

        // Attachment weights: popularity dominates; engagement helps
        // a little (lively sites get referenced in discussions).
        let weights: Vec<f64> = world
            .source_latents
            .iter()
            .map(|l| 0.01 + l.popularity + 0.03 * l.engagement)
            .collect();
        let sampler = CumulativeSampler::new(&weights);

        for (src_idx, latent) in world.source_latents.iter().enumerate() {
            let out_degree = rng.poisson(2.0 + 6.0 * latent.engagement).min(40) as usize;
            let mut chosen: Vec<usize> = Vec::with_capacity(out_degree);
            let mut attempts = 0;
            while chosen.len() < out_degree && attempts < out_degree * 8 {
                attempts += 1;
                let mut dst = sampler.sample(&mut rng);
                // Topical affinity: with 35% probability retry until
                // a focus-sharing destination is found (bounded).
                if rng.chance(0.35) {
                    for _ in 0..4 {
                        if shares_focus(world, src_idx, dst) {
                            break;
                        }
                        dst = sampler.sample(&mut rng);
                    }
                }
                if dst != src_idx && !chosen.contains(&dst) {
                    chosen.push(dst);
                }
            }
            for dst in chosen {
                outbound[src_idx].push(SourceId::new(dst as u32));
                inbound[dst].push(SourceId::new(src_idx as u32));
            }
        }
        LinkGraph { outbound, inbound }
    }

    /// Sources linked *by* `source`.
    pub fn outbound(&self, source: SourceId) -> &[SourceId] {
        self.outbound.get(source.index()).map_or(&[], Vec::as_slice)
    }

    /// Sources linking *to* `source`.
    pub fn inbound(&self, source: SourceId) -> &[SourceId] {
        self.inbound.get(source.index()).map_or(&[], Vec::as_slice)
    }

    /// Number of inbound links — the Table 1 measure.
    pub fn inbound_count(&self, source: SourceId) -> usize {
        self.inbound(source).len()
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.outbound.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.outbound.is_empty()
    }

    /// Total directed edges.
    pub fn edge_count(&self) -> usize {
        self.outbound.iter().map(Vec::len).sum()
    }
}

fn shares_focus(world: &World, a: usize, b: usize) -> bool {
    let fa = &world.source_latents[a].focus;
    let fb = &world.source_latents[b].focus;
    fa.iter().any(|(c, _)| fb.iter().any(|(c2, _)| c2 == c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_synth::WorldConfig;

    fn graph() -> (World, LinkGraph) {
        let world = World::generate(WorldConfig::small(55));
        let graph = LinkGraph::simulate(&world, 9);
        (world, graph)
    }

    #[test]
    fn graph_covers_every_source() {
        let (world, graph) = graph();
        assert_eq!(graph.len(), world.corpus.sources().len());
        assert!(graph.edge_count() > 0);
    }

    #[test]
    fn inbound_and_outbound_are_duals() {
        let (_, graph) = graph();
        let mut inbound_total = 0;
        for i in 0..graph.len() {
            let src = SourceId::new(i as u32);
            inbound_total += graph.inbound_count(src);
            // Every outbound edge appears in the destination's
            // inbound list.
            for &dst in graph.outbound(src) {
                assert!(graph.inbound(dst).contains(&src));
            }
        }
        assert_eq!(inbound_total, graph.edge_count());
    }

    #[test]
    fn no_self_links_no_duplicate_edges() {
        let (_, graph) = graph();
        for i in 0..graph.len() {
            let src = SourceId::new(i as u32);
            let out = graph.outbound(src);
            assert!(!out.contains(&src), "self link at {src}");
            let mut dedup = out.to_vec();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), out.len(), "duplicate edges at {src}");
        }
    }

    #[test]
    fn popular_sources_attract_more_links() {
        let world = World::generate(WorldConfig {
            sources: 200,
            ..WorldConfig::small(66)
        });
        let graph = LinkGraph::simulate(&world, 4);
        let pop: Vec<f64> = world.source_latents.iter().map(|l| l.popularity).collect();
        let inb: Vec<f64> = (0..graph.len())
            .map(|i| graph.inbound_count(SourceId::new(i as u32)) as f64)
            .collect();
        let r = obs_stats::spearman(&pop, &inb).unwrap();
        assert!(r > 0.3, "spearman {r}");
    }

    #[test]
    fn simulation_is_deterministic() {
        let world = World::generate(WorldConfig::small(3));
        assert_eq!(
            LinkGraph::simulate(&world, 2),
            LinkGraph::simulate(&world, 2)
        );
    }

    #[test]
    fn tiny_worlds_do_not_panic() {
        let world = World::generate(WorldConfig {
            sources: 1,
            ..WorldConfig::small(1)
        });
        let graph = LinkGraph::simulate(&world, 1);
        assert_eq!(graph.edge_count(), 0);
        assert_eq!(graph.inbound_count(SourceId::new(0)), 0);
    }
}
