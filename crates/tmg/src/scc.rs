//! Strongly connected components (iterative Tarjan) on [`RatioGraph`]s.
//!
//! Cycle-ratio analysis runs per component: every cycle lives inside one
//! SCC, so the maximum cycle ratio of the graph is the maximum over its
//! components.

use crate::ratio_graph::RatioGraph;

/// Result of an SCC decomposition: `component[v]` is the component index of
/// vertex `v`; components are numbered in reverse topological order.
#[derive(Debug, Clone, Default)]
pub(crate) struct SccDecomposition {
    pub component: Vec<usize>,
    pub count: usize,
}

impl SccDecomposition {
    /// Groups the vertices of every component into one flat array (CSR
    /// grouping: two allocations total, instead of one `Vec` per
    /// component). Within each group vertices appear in ascending order —
    /// the order the previous `Vec<Vec<usize>>` listing produced.
    pub fn groups(&self) -> SccGroups {
        let mut start = vec![0u32; self.count + 1];
        for &c in &self.component {
            start[c + 1] += 1;
        }
        for i in 0..self.count {
            start[i + 1] += start[i];
        }
        let mut cursor: Vec<u32> = start[..self.count].to_vec();
        let mut items = vec![0u32; self.component.len()];
        for (v, &c) in self.component.iter().enumerate() {
            items[cursor[c] as usize] = v as u32;
            cursor[c] += 1;
        }
        SccGroups { start, items }
    }
}

/// Flat (CSR) listing of every component's member vertices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SccGroups {
    /// `count + 1` offsets into [`Self::items`].
    start: Vec<u32>,
    /// Member vertices grouped by component, ascending within each group.
    items: Vec<u32>,
}

impl SccGroups {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// The member vertices of component `c`, in ascending order.
    pub fn group(&self, c: usize) -> &[u32] {
        &self.items[self.start[c] as usize..self.start[c + 1] as usize]
    }
}

/// Computes strongly connected components with an iterative Tarjan
/// algorithm (explicit stack; safe for the 10,000-process benchmarks where
/// recursion would overflow).
pub(crate) fn tarjan(graph: &RatioGraph) -> SccDecomposition {
    const UNVISITED: usize = usize::MAX;
    let n = graph.node_count;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut component = vec![UNVISITED; n];
    let mut next_index = 0usize;
    let mut count = 0usize;

    // Explicit DFS frames: (vertex, next out-edge position to explore).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        frames.push((start, 0));
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            let out = graph.out(v);
            if *pos < out.len() {
                let e = out[*pos] as usize;
                *pos += 1;
                let w = graph.edges[e].to;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        component[w] = count;
                        if w == v {
                            break;
                        }
                    }
                    count += 1;
                }
            }
        }
    }

    SccDecomposition { component, count }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(usize, usize)]) -> RatioGraph {
        let mut g = RatioGraph::with_nodes(n);
        for &(a, b) in edges {
            g.add_edge(a, b, 0, 0, None);
        }
        g
    }

    #[test]
    fn single_cycle_is_one_component() {
        let g = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let scc = tarjan(&g);
        assert_eq!(scc.count, 1);
        assert!(scc.component.iter().all(|&c| c == 0));
    }

    #[test]
    fn chain_has_singleton_components() {
        let g = graph(3, &[(0, 1), (1, 2)]);
        let scc = tarjan(&g);
        assert_eq!(scc.count, 3);
        let groups = scc.groups();
        assert_eq!(groups.len(), 3);
        assert!((0..groups.len()).all(|c| groups.group(c).len() == 1));
    }

    #[test]
    fn two_cycles_joined_by_bridge() {
        let g = graph(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        let scc = tarjan(&g);
        assert_eq!(scc.count, 2);
        assert_eq!(scc.component[0], scc.component[1]);
        assert_eq!(scc.component[2], scc.component[3]);
        assert_ne!(scc.component[0], scc.component[2]);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // A long path plus a back edge: one big SCC, found iteratively.
        let n = 200_000;
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        let g = graph(n, &edges);
        let scc = tarjan(&g);
        assert_eq!(scc.count, 1);
    }

    #[test]
    fn self_loop_is_its_own_component() {
        let g = graph(2, &[(0, 0), (0, 1)]);
        let scc = tarjan(&g);
        assert_eq!(scc.count, 2);
    }
}
