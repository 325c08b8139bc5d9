//! PageRank over the inter-source link graph, and the search
//! baseline's [`PageRank`] input computed with it.

use crate::LinkGraph;
use obs_model::SourceId;
use obs_search::PageRank;

/// Outcome of a convergence-aware PageRank run.
#[derive(Debug, Clone, PartialEq)]
pub struct PagerankRun {
    /// One score per source (indexed by raw id), summing to 1.
    pub scores: Vec<f64>,
    /// Power iterations actually performed.
    pub iterations: usize,
    /// L1 distance between the last two iterates (0 when the graph
    /// is empty or no iteration ran).
    pub l1_delta: f64,
}

/// Computes PageRank with the classic power iteration.
///
/// `damping` is the usual 0.85; dangling nodes redistribute uniformly.
/// Always runs the full `iterations`; see [`pagerank_converged`] for
/// the early-exiting variant. Returns one score per source (indexed
/// by raw id), summing to 1.
pub fn pagerank(graph: &LinkGraph, damping: f64, iterations: usize) -> Vec<f64> {
    pagerank_converged(graph, damping, iterations, 0.0).scores
}

/// Computes PageRank, stopping early once the L1 distance between
/// consecutive iterates drops below `tolerance`.
///
/// A `tolerance` of 0 never triggers the early exit (the L1 delta of
/// a non-fixpoint iterate is strictly positive), reproducing the
/// fixed-iteration behaviour of [`pagerank`] exactly. Power iteration
/// contracts the L1 error by at least `damping` per step, so an exit
/// at tolerance `t` leaves the result within `t * damping / (1 -
/// damping)` of the true fixpoint — `1e-12` keeps scores within
/// `1e-11` while typically halving the iteration count.
pub fn pagerank_converged(
    graph: &LinkGraph,
    damping: f64,
    max_iterations: usize,
    tolerance: f64,
) -> PagerankRun {
    let n = graph.len();
    if n == 0 {
        return PagerankRun {
            scores: Vec::new(),
            iterations: 0,
            l1_delta: 0.0,
        };
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0; n];
    let mut iterations = 0;
    let mut l1_delta = 0.0;

    for _ in 0..max_iterations {
        let mut dangling_mass = 0.0;
        next.iter_mut().for_each(|x| *x = 0.0);
        for (i, r) in rank.iter().enumerate() {
            let out = graph.outbound(SourceId::new(i as u32));
            if out.is_empty() {
                dangling_mass += r;
            } else {
                let share = r / out.len() as f64;
                for &dst in out {
                    next[dst.index()] += share;
                }
            }
        }
        let redistributed = dangling_mass * uniform;
        for x in next.iter_mut() {
            *x = (1.0 - damping) * uniform + damping * (*x + redistributed);
        }
        l1_delta = rank
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        std::mem::swap(&mut rank, &mut next);
        iterations += 1;
        if l1_delta < tolerance {
            break;
        }
    }
    PagerankRun {
        scores: rank,
        iterations,
        l1_delta,
    }
}

impl From<&LinkGraph> for PageRank {
    /// The search baseline's link authority: PageRank at damping 0.85
    /// with the convergence early exit at `1e-12` inside the old fixed
    /// budget of 50 iterations, which usually stops well short while
    /// staying within `1e-11` of the full-budget scores.
    fn from(links: &LinkGraph) -> PageRank {
        PageRank {
            scores: pagerank_converged(links, 0.85, 50, 1e-12).scores,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_synth::{World, WorldConfig};

    fn graph() -> (World, LinkGraph) {
        let world = World::generate(WorldConfig {
            sources: 120,
            ..WorldConfig::small(42)
        });
        let graph = LinkGraph::simulate(&world, 9);
        (world, graph)
    }

    #[test]
    fn ranks_sum_to_one_and_are_positive() {
        let (_, g) = graph();
        let pr = pagerank(&g, 0.85, 50);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(pr.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn heavily_linked_sources_rank_higher() {
        let (_, g) = graph();
        let pr = pagerank(&g, 0.85, 50);
        let most_linked = (0..g.len())
            .max_by_key(|&i| g.inbound_count(SourceId::new(i as u32)))
            .unwrap();
        let least_linked = (0..g.len())
            .min_by_key(|&i| g.inbound_count(SourceId::new(i as u32)))
            .unwrap();
        assert!(
            pr[most_linked] > pr[least_linked],
            "{} vs {}",
            pr[most_linked],
            pr[least_linked]
        );
    }

    #[test]
    fn pagerank_correlates_with_inbound_degree() {
        let (_, g) = graph();
        let pr = pagerank(&g, 0.85, 50);
        let degrees: Vec<f64> = (0..g.len())
            .map(|i| g.inbound_count(SourceId::new(i as u32)) as f64)
            .collect();
        let r = obs_stats::spearman(&degrees, &pr).unwrap();
        assert!(r > 0.6, "spearman {r}");
    }

    #[test]
    fn empty_graph_is_fine() {
        let world = World::generate(WorldConfig {
            sources: 0,
            ..WorldConfig::small(1)
        });
        let g = LinkGraph::simulate(&world, 1);
        assert!(pagerank(&g, 0.85, 10).is_empty());
    }

    #[test]
    fn early_exit_matches_fixed_iterations() {
        let (_, g) = graph();
        let fixed = pagerank(&g, 0.85, 50);
        let run = pagerank_converged(&g, 0.85, 50, 1e-12);
        assert!(run.iterations <= 50);
        assert!(run.l1_delta < 1e-12 || run.iterations == 50);
        let max_diff = fixed
            .iter()
            .zip(&run.scores)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff < 1e-9, "diverged: {max_diff}");
    }

    #[test]
    fn loose_tolerance_exits_early() {
        let (_, g) = graph();
        let run = pagerank_converged(&g, 0.85, 500, 1e-6);
        assert!(run.iterations < 500, "never exited: {}", run.iterations);
        assert!(run.l1_delta < 1e-6);
        let sum: f64 = run.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_tolerance_reproduces_fixed_behaviour() {
        let (_, g) = graph();
        let run = pagerank_converged(&g, 0.85, 30, 0.0);
        assert_eq!(run.iterations, 30);
        assert_eq!(run.scores, pagerank(&g, 0.85, 30));
    }

    #[test]
    fn pagerank_input_is_the_converged_run_bit_for_bit() {
        let (world, g) = graph();
        let input = PageRank::from(&g);
        let run = pagerank_converged(&g, 0.85, 50, 1e-12);
        assert_eq!(input.scores.len(), world.corpus.sources().len());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&input.scores), bits(&run.scores));
    }

    #[test]
    fn iteration_converges() {
        let (_, g) = graph();
        let a = pagerank(&g, 0.85, 50);
        let b = pagerank(&g, 0.85, 100);
        let max_diff = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff < 1e-6, "not converged: {max_diff}");
    }
}
