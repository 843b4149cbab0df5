//! The graphs the workloads run on, built from the repository's own
//! generators: the paper's synthetic CTP families (`ctp_*`), and a
//! YAGO-like knowledge graph with a CDF forest embedded (`eql_yago`,
//! `serve_mixed`), stored as a CSG2 snapshot that is opened by mmap.

use crate::params::Params;
use crate::util::Rng;
use cs_graph::generate::{
    cdf, chain, comb, line, random_connected, star, yago_like, CdfParams, YagoLikeParams,
};
use cs_graph::{EdgeId, Graph, GraphBuilder, NodeId};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

/// One graph of the `ctp_*` workloads.
pub struct CtpGraph {
    pub name: &'static str,
    pub graph: Graph,
    /// Labels of the figure query's seeds (empty for the random graph,
    /// whose seed tuples are drawn per query).
    pub seeds: Vec<String>,
}

/// The `ctp_*` graphs: the Fig. 10/11 families, `chain(n)`, and a
/// random connected graph.
pub fn ctp_graphs(p: &Params) -> Vec<CtpGraph> {
    let family = |name: &'static str, w: cs_graph::generate::Workload| {
        let seeds = w
            .seeds
            .iter()
            .map(|s| w.graph.node_label(s[0]).to_string())
            .collect();
        CtpGraph {
            name,
            graph: w.graph,
            seeds,
        }
    };
    vec![
        family("line", line(p.usize("line_m"), p.usize("line_nl"))),
        family(
            "comb",
            comb(
                p.usize("comb_na"),
                p.usize("comb_ns"),
                p.usize("comb_sl"),
                p.usize("comb_dba"),
            ),
        ),
        family("star", star(p.usize("star_m"), p.usize("star_sl"))),
        family("chain", chain(p.usize("chain_n"))),
        CtpGraph {
            name: "random",
            graph: random_connected(
                p.usize("random_n"),
                p.usize("random_extra"),
                p.u64("random_graph_seed"),
            ),
            seeds: Vec::new(),
        },
    ]
}

/// The YAGO-like graph with a CDF forest (paper Fig. 9, Y-shaped links)
/// as a second, disjoint component. Node and edge labels of the two
/// generators do not collide, so EQL constants stay unambiguous.
pub fn yago_graph(p: &Params) -> Graph {
    let yago = yago_like(&YagoLikeParams {
        persons: p.usize("persons"),
        organisations: p.usize("organisations"),
        places: p.usize("places"),
        works: p.usize("works"),
        seed: p.u64("graph_seed"),
    });
    let forest = cdf(&CdfParams {
        m: 3,
        n_t: p.usize("cdf_nt"),
        n_l: p.usize("cdf_nl"),
        s_l: p.usize("cdf_sl"),
        seed: p.u64("graph_seed"),
    })
    .graph;
    let mut b = GraphBuilder::with_capacity(
        yago.node_count() + forest.node_count(),
        yago.edge_count() + forest.edge_count(),
    );
    for g in [&yago, &forest] {
        let base = b.node_count();
        for n in g.node_ids() {
            let types: Vec<&str> = g.node_types(n).collect();
            b.add_typed_node(g.node_label(n), &types);
        }
        for e in 0..g.edge_count() {
            let ed = g.edge(EdgeId(e as u32));
            b.add_edge(
                NodeId::new(base + ed.src.index()),
                g.resolve(ed.label),
                NodeId::new(base + ed.dst.index()),
            );
        }
    }
    b.freeze()
}

/// The snapshot of [`yago_graph`], generated once per checkout and
/// reused: its name hashes the graph parameters and the benchmark
/// binary, so a rebuilt program never reads a snapshot an older build
/// wrote.
pub fn yago_snapshot(p: &Params, data: &Path) -> std::io::Result<PathBuf> {
    let mut h = DefaultHasher::new();
    for k in [
        "persons",
        "organisations",
        "places",
        "works",
        "graph_seed",
        "cdf_nt",
        "cdf_nl",
        "cdf_sl",
    ] {
        (k, p.get(k)).hash(&mut h);
    }
    let exe = std::env::current_exe()?;
    let meta = std::fs::metadata(&exe)?;
    meta.len().hash(&mut h);
    meta.modified()?.hash(&mut h);
    let path = data.join(format!("yago-{:016x}.csg", h.finish()));
    if path.exists() {
        return Ok(path);
    }
    // Drop snapshots of other parameters or builds before writing a new one.
    for entry in std::fs::read_dir(data)? {
        let old = entry?.path();
        let name = old.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("yago-") && name.ends_with(".csg") {
            std::fs::remove_file(&old)?;
        }
    }
    let g = yago_graph(p);
    let tmp = data.join("yago.tmp");
    cs_graph::snapshot::save_to(&g, &tmp)
        .map_err(|e| std::io::Error::other(format!("cannot write snapshot: {e}")))?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Pairs of persons with no `knows` edge between them: the edges that
/// write batches insert and then remove again. Sources are drawn from
/// `sources` when it is not empty, so that reads touching those persons
/// see the toggle.
pub fn toggle_pairs(
    g: &Graph,
    persons: usize,
    count: usize,
    sources: &[String],
    rng: &mut Rng,
) -> Vec<(String, String)> {
    let knows = g.label_id("knows");
    let mut out: Vec<(String, String)> = Vec::new();
    while out.len() < count {
        let a = if sources.is_empty() {
            format!("person{}", rng.below(persons))
        } else {
            rng.pick(sources).clone()
        };
        let b = format!("person{}", rng.below(persons));
        let (Some(na), Some(nb)) = (g.node_by_label(&a), g.node_by_label(&b)) else {
            continue;
        };
        let linked = knows.is_some_and(|l| {
            g.out_edges_labelled(na, l)
                .iter()
                .any(|&e| g.edge(e).dst == nb)
        });
        if a != b && !linked && !out.iter().any(|(x, y)| *x == a && *y == b) {
            out.push((a, b));
        }
    }
    out
}
