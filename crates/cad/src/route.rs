//! Routing (the PAR stage's second half).
//!
//! A negotiated-congestion maze router in the PathFinder tradition: each
//! net is routed as a BFS tree over the tile grid; edges (routing channels)
//! have a capacity, and overuse raises an edge's cost on the next
//! iteration until every channel is legal or the iteration budget runs
//! out.

use crate::fabric::Fabric;
use crate::place::Placement;
use jitise_base::{Error, Result};
use jitise_pivpav::Netlist;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One routed net: the set of edges its tree occupies.
#[derive(Debug, Clone, Default)]
pub struct RoutedNet {
    /// Edge ids of the routing tree.
    pub edges: Vec<u32>,
    /// Tiles spanned (terminals + Steiner points).
    pub tiles: Vec<u32>,
}

/// The routing result.
#[derive(Debug, Clone)]
pub struct RoutedDesign {
    /// One route per net (index = net id; unused nets empty).
    pub nets: Vec<RoutedNet>,
    /// Total wirelength in edges.
    pub wirelength: u64,
    /// Channels still over capacity after the final iteration (0 = legal).
    pub overflow: u32,
    /// Negotiation iterations used.
    pub iterations: u32,
    /// Peak channel occupancy.
    pub max_occupancy: u32,
}

/// Router effort.
#[derive(Debug, Clone, Copy)]
pub struct RouteEffort {
    /// Maximum negotiation iterations.
    pub max_iterations: u32,
}

impl RouteEffort {
    /// Default effort.
    pub fn normal() -> Self {
        RouteEffort { max_iterations: 8 }
    }

    /// Bulk-experiment effort.
    pub fn fast() -> Self {
        RouteEffort { max_iterations: 3 }
    }
}

/// Terminal tiles of every net (driver + sinks + fixed port pins).
fn net_terminals(fabric: &Fabric, nl: &Netlist, placement: &Placement) -> Vec<Vec<u32>> {
    let mut terminals = vec![Vec::new(); nl.num_nets as usize];
    for (i, c) in nl.cells.iter().enumerate() {
        let t = placement.cell_tile[i];
        terminals[c.output as usize].push(t);
        for &inp in &c.inputs {
            terminals[inp as usize].push(t);
        }
    }
    let mut in_row = 0u32;
    let mut out_row = 0u32;
    for p in &nl.ports {
        for &net in &p.nets {
            match p.dir {
                jitise_pivpav::PortDir::In => {
                    terminals[net as usize].push(fabric.tile_at(0, in_row % fabric.height));
                    in_row += 1;
                }
                jitise_pivpav::PortDir::Out => {
                    terminals[net as usize]
                        .push(fabric.tile_at(fabric.width - 1, out_row % fabric.height));
                    out_row += 1;
                }
            }
        }
    }
    for t in terminals.iter_mut() {
        t.sort_unstable();
        t.dedup();
    }
    terminals
}

/// Reusable search state for one [`route`] call.
///
/// Every search of every net runs over the same buffers: `dist`/`prev`
/// are valid only where `seen` carries the current search's stamp, and the
/// tree and goal marks only where they carry the current net's stamp, so
/// starting a search or a net costs one counter increment instead of a
/// pass over the grid.
struct Router {
    /// `(neighbor, edge id)` pairs of tile `t` at `adj[adj_start[t]..adj_start[t + 1]]`,
    /// in [`Fabric::neighbors`] order.
    adj_start: Vec<u32>,
    adj: Vec<(u32, u32)>,
    channel_width: u32,
    /// Congestion history per edge (grows between iterations).
    history: Vec<f64>,
    /// Nets on each edge in the current iteration so far.
    occupancy: Vec<u32>,
    dist: Vec<f64>,
    /// Predecessor tile and the edge to it, on the current search's tree.
    prev: Vec<(u32, u32)>,
    seen: Vec<u32>,
    search: u32,
    in_tree: Vec<u32>,
    goal: Vec<u32>,
    net: u32,
    heap: BinaryHeap<Reverse<u64>>,
    /// Bits of a packed heap entry holding the tile (the low bits).
    tile_bits: u32,
    seeds: Vec<u32>,
}

/// Heap key of a path cost: the cost quantized to 1/1024.
fn key(d: f64) -> u64 {
    (d * 1024.0) as u64
}

impl Router {
    fn new(fabric: &Fabric) -> Router {
        let n = fabric.num_tiles() as usize;
        let mut adj_start = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(4 * n);
        for t in 0..fabric.num_tiles() {
            adj_start.push(adj.len() as u32);
            adj.extend(
                fabric
                    .neighbors(t)
                    .into_iter()
                    .map(|nb| (nb, fabric.edge_id(t, nb))),
            );
        }
        adj_start.push(adj.len() as u32);
        let tile_bits = u32::BITS - (fabric.num_tiles().max(2) - 1).leading_zeros();
        assert!(tile_bits <= 24, "fabric too large for packed heap entries");
        let num_edges = fabric.num_edges() as usize;
        Router {
            adj_start,
            adj,
            channel_width: fabric.channel_width,
            history: vec![0.0; num_edges],
            occupancy: vec![0; num_edges],
            dist: vec![0.0; n],
            prev: vec![(u32::MAX, u32::MAX); n],
            seen: vec![0; n],
            search: 0,
            in_tree: vec![0; n],
            goal: vec![0; n],
            net: 0,
            heap: BinaryHeap::new(),
            tile_bits,
            seeds: Vec::new(),
        }
    }

    /// Routes one net into `out` as a Steiner tree grown under the current
    /// edge costs: starting from the first terminal, each search runs
    /// Dijkstra from the whole tree to the nearest unconnected terminal
    /// and adds the path to the tree.
    fn route_net(&mut self, terminals: &[u32], out: &mut RoutedNet) {
        out.edges.clear();
        out.tiles.clear();
        if terminals.len() < 2 {
            out.tiles.extend_from_slice(terminals);
            return;
        }
        self.net += 1;
        let net = self.net;
        self.in_tree[terminals[0] as usize] = net;
        out.tiles.push(terminals[0]);
        for &t in &terminals[1..] {
            self.goal[t as usize] = net;
        }
        for _ in 1..terminals.len() {
            let Some(target) = self.nearest_goal(&out.tiles) else {
                break; // disconnected (cannot happen on a grid)
            };
            // Trace back into the tree.
            let mut cur = target;
            while self.in_tree[cur as usize] != net {
                self.in_tree[cur as usize] = net;
                out.tiles.push(cur);
                let (p, e) = self.prev[cur as usize];
                if p == u32::MAX {
                    break;
                }
                out.edges.push(e);
                cur = p;
            }
            self.goal[target as usize] = 0;
        }
    }

    /// One Dijkstra search from every tile of `tree` to the first goal
    /// tile popped, in `(key, tile)` order.
    ///
    /// The tree tiles are the key-0 seeds. Every edge costs at least 1.0,
    /// so every relaxed tile has key >= 1024 and a heap holding the seeds
    /// would pop all of them first, in ascending tile order; they are
    /// visited in that order directly.
    fn nearest_goal(&mut self, tree: &[u32]) -> Option<u32> {
        self.search += 1;
        let search = self.search;
        self.seeds.clear();
        self.seeds.extend_from_slice(tree);
        self.seeds.sort_unstable();
        for &t in &self.seeds {
            self.seen[t as usize] = search;
            self.dist[t as usize] = 0.0;
            self.prev[t as usize] = (u32::MAX, u32::MAX);
        }
        self.heap.clear();
        for i in 0..self.seeds.len() {
            let tile = self.seeds[i];
            if self.goal[tile as usize] == self.net {
                return Some(tile);
            }
            self.relax(tile);
        }
        let tile_mask = (1u64 << self.tile_bits) - 1;
        while let Some(Reverse(entry)) = self.heap.pop() {
            let (dk, tile) = (entry >> self.tile_bits, (entry & tile_mask) as u32);
            if dk > key(self.dist[tile as usize]) {
                continue;
            }
            if self.goal[tile as usize] == self.net {
                return Some(tile);
            }
            self.relax(tile);
        }
        None
    }

    /// Relaxes every edge out of `tile`. An edge costs
    /// `1 + history + 4 * overuse`, its PathFinder price.
    fn relax(&mut self, tile: u32) {
        let t = tile as usize;
        let d = self.dist[t];
        let (lo, hi) = (self.adj_start[t] as usize, self.adj_start[t + 1] as usize);
        for &(nb, e) in &self.adj[lo..hi] {
            let over = self.occupancy[e as usize].saturating_sub(self.channel_width) as f64;
            let nd = d + (1.0 + self.history[e as usize] + 4.0 * over);
            let n = nb as usize;
            if self.seen[n] != self.search || nd < self.dist[n] {
                self.seen[n] = self.search;
                self.dist[n] = nd;
                self.prev[n] = (tile, e);
                let k = key(nd);
                assert!(
                    k >> (64 - self.tile_bits) == 0,
                    "path cost overflows the heap key"
                );
                self.heap.push(Reverse(k << self.tile_bits | nb as u64));
            }
        }
    }
}

/// Routes every net of a placed design.
pub fn route(
    fabric: &Fabric,
    nl: &Netlist,
    placement: &Placement,
    effort: RouteEffort,
) -> Result<RoutedDesign> {
    if placement.cell_tile.len() != nl.cells.len() {
        return Err(Error::Cad("placement does not match netlist".into()));
    }
    let terminals = net_terminals(fabric, nl, placement);
    let mut router = Router::new(fabric);
    let mut result_nets: Vec<RoutedNet> = vec![RoutedNet::default(); nl.num_nets as usize];
    let mut iterations = 0;
    let mut overflow = 0;
    let mut max_occ = 0;

    for iter in 0..effort.max_iterations {
        iterations = iter + 1;
        router.occupancy.fill(0);
        for (terms, routed) in terminals.iter().zip(result_nets.iter_mut()) {
            router.route_net(terms, routed);
            for &e in &routed.edges {
                router.occupancy[e as usize] += 1;
            }
        }
        let cw = fabric.channel_width;
        overflow = router.occupancy.iter().filter(|&&o| o > cw).count() as u32;
        max_occ = router.occupancy.iter().copied().max().unwrap_or(0);
        if overflow == 0 {
            break;
        }
        // Penalize congested edges for the next iteration.
        for (h, &o) in router.history.iter_mut().zip(&router.occupancy) {
            if o > cw {
                *h += (o - cw) as f64 * 0.8;
            }
        }
    }

    let wirelength = result_nets.iter().map(|n| n.edges.len() as u64).sum();
    Ok(RoutedDesign {
        nets: result_nets,
        wirelength,
        overflow,
        iterations,
        max_occupancy: max_occ,
    })
}

/// Verifies that every multi-terminal net's tree actually connects all its
/// terminals (used by tests and the flow's assertions).
pub fn check_connected(
    fabric: &Fabric,
    nl: &Netlist,
    placement: &Placement,
    routed: &RoutedDesign,
) -> Result<()> {
    let terminals = net_terminals(fabric, nl, placement);
    for (net, terms) in terminals.iter().enumerate() {
        if terms.len() < 2 {
            continue;
        }
        let tree = &routed.nets[net];
        for t in terms {
            if !tree.tiles.contains(t) {
                return Err(Error::Cad(format!(
                    "net {net}: terminal tile {t} not in routing tree"
                )));
            }
        }
        // Tree connectivity: edges + tiles must form a connected graph
        // over the tile set.
        let tiles = &tree.tiles;
        if tiles.is_empty() {
            continue;
        }
        let mut adj: std::collections::HashMap<u32, Vec<u32>> = Default::default();
        for &t in tiles {
            adj.entry(t).or_default();
        }
        for &t in tiles {
            for nb in fabric.neighbors(t) {
                if tiles.contains(&nb) && tree.edges.contains(&fabric.edge_id(t, nb)) {
                    adj.entry(t).or_default().push(nb);
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        let mut q = VecDeque::new();
        q.push_back(tiles[0]);
        seen.insert(tiles[0]);
        while let Some(t) = q.pop_front() {
            for &nb in adj.get(&t).into_iter().flatten() {
                if seen.insert(nb) {
                    q.push_back(nb);
                }
            }
        }
        for t in terms {
            if !seen.contains(t) {
                return Err(Error::Cad(format!(
                    "net {net}: terminal {t} disconnected from tree root"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{place, PlaceEffort};
    use jitise_pivpav::netlist::synthesize_core;

    fn routed_fixture(luts: u32) -> (Fabric, Netlist, Placement, RoutedDesign) {
        let fabric = Fabric::pr_region();
        let nl = synthesize_core("r", 8, luts, 8, 2, 17);
        let p = place(&fabric, &nl, PlaceEffort::fast(), 3).unwrap();
        let r = route(&fabric, &nl, &p, RouteEffort::normal()).unwrap();
        (fabric, nl, p, r)
    }

    #[test]
    fn routes_connect_all_terminals() {
        let (fabric, nl, p, r) = routed_fixture(60);
        check_connected(&fabric, &nl, &p, &r).unwrap();
        assert!(r.wirelength > 0);
        assert!(r.iterations >= 1);
    }

    #[test]
    fn no_overflow_on_comfortable_design() {
        let (_, _, _, r) = routed_fixture(40);
        assert_eq!(r.overflow, 0, "small design must route legally");
    }

    #[test]
    fn wirelength_grows_with_design_size() {
        let (_, _, _, small) = routed_fixture(30);
        let (_, _, _, big) = routed_fixture(200);
        assert!(
            big.wirelength > small.wirelength,
            "bigger design, more wire: {} vs {}",
            big.wirelength,
            small.wirelength
        );
    }

    #[test]
    fn deterministic() {
        let (fabric, nl, p, r1) = routed_fixture(50);
        let r2 = route(&fabric, &nl, &p, RouteEffort::normal()).unwrap();
        assert_eq!(r1.wirelength, r2.wirelength);
        assert_eq!(r1.overflow, r2.overflow);
    }

    /// One digest over everything a routing decides.
    fn routed_digest(r: &RoutedDesign) -> u64 {
        let mut h = jitise_base::hash::SigHasher::new();
        h.write_usize(r.nets.len());
        for net in &r.nets {
            h.write_usize(net.edges.len());
            for &e in &net.edges {
                h.write_u32(e);
            }
            h.write_usize(net.tiles.len());
            for &t in &net.tiles {
                h.write_u32(t);
            }
        }
        h.write_u64(r.wirelength)
            .write_u32(r.overflow)
            .write_u32(r.iterations)
            .write_u32(r.max_occupancy);
        h.finish()
    }

    #[test]
    fn golden_routes_are_pinned() {
        // Digests recorded from the reference implementation. Channel
        // widths 1 and 2 force negotiation to its iteration budget with
        // residual overflow; widths 9 and 30 negotiate until legal. No
        // comfortable design takes either path.
        let narrow = |channel_width| Fabric {
            channel_width,
            ..Fabric::pr_region()
        };
        let cases = [
            (Fabric::tiny(), (4, 20, 4, 2)),
            (Fabric::pr_region(), (8, 30, 4, 1)),
            (Fabric::pr_region(), (16, 120, 16, 4)),
            (Fabric::pr_region(), (16, 300, 32, 8)),
            (narrow(1), (8, 60, 8, 2)),
            (narrow(2), (16, 120, 16, 4)),
            (narrow(2), (16, 300, 32, 8)),
            (narrow(9), (8, 60, 8, 2)),
            (narrow(30), (16, 300, 32, 8)),
        ];
        let mut got = Vec::new();
        let mut overflowed = false;
        let mut converged = false;
        for (fabric, (width, luts, ffs, dsps)) in &cases {
            let nl = synthesize_core("g", *width, *luts, *ffs, *dsps, 7);
            for seed in [1u64, 9, 2011] {
                let p = place(fabric, &nl, PlaceEffort::fast(), seed).unwrap();
                for effort in [RouteEffort::fast(), RouteEffort::normal()] {
                    let r = route(fabric, &nl, &p, effort).unwrap();
                    check_connected(fabric, &nl, &p, &r).unwrap();
                    overflowed |= r.overflow > 0;
                    converged |= r.iterations > 1 && r.overflow == 0;
                    got.push(routed_digest(&r));
                }
            }
        }
        assert!(overflowed && converged, "sweep must exercise negotiation");
        let expected: &[u64] = &[
            17525303913575361418,
            17525303913575361418,
            18030375514277298850,
            18030375514277298850,
            12396978239667060022,
            12396978239667060022,
            2726035863099695867,
            2726035863099695867,
            13649545299700429802,
            13649545299700429802,
            1838781288316581926,
            1838781288316581926,
            2235128646487081995,
            2235128646487081995,
            13617492219790555923,
            13617492219790555923,
            14507045283960467701,
            14507045283960467701,
            437433489512565953,
            437433489512565953,
            11825921338133245242,
            11825921338133245242,
            6643894218941466938,
            6643894218941466938,
            6694912911562288203,
            5977145362161157809,
            11454768038040732981,
            7349287145523377650,
            3098694240508176941,
            7022620306796962685,
            18423675288449463969,
            8466876913437767842,
            14133411828027374727,
            2878235838377921900,
            16839050761085298026,
            2044490068210074097,
            11962668462630855657,
            11773024157958874012,
            16129776779036101715,
            15794386903505432361,
            7224477399679446357,
            13143415721845731499,
            8424008497456865215,
            7649694474424765292,
            11358000616602357250,
            17554494245919322102,
            14115732000106314747,
            5724119711397985446,
            437433489512565953,
            437433489512565953,
            11825921338133245242,
            11825921338133245242,
            10818871523222132063,
            2409210425911460021,
        ];
        assert_eq!(got, expected, "routing digests moved");
    }

    #[test]
    fn single_terminal_nets_trivial() {
        let fabric = Fabric::tiny();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1);
        // One cell consuming a; its output goes nowhere.
        nl.add_cell(jitise_pivpav::CellKind::Lut4 { mask: 3 }, vec![a[0]]);
        let p = place(&fabric, &nl, PlaceEffort::fast(), 1).unwrap();
        let r = route(&fabric, &nl, &p, RouteEffort::fast()).unwrap();
        check_connected(&fabric, &nl, &p, &r).unwrap();
        // Output net has a single terminal -> no edges.
        assert!(r.nets[1].edges.is_empty());
    }
}
