//! The traced side of a run: spans around each public call into
//! `cs_eql` (parse, prepare, execute, render), and a probe pass that
//! hands each query's benchmark-built BGPs to `cs_engine` and its CTP
//! seeds to `cs_core` directly.

use crate::alloc;
use crate::check::digest;
use crate::queries::{Query, T};
use crate::trace::Tracer;
use crate::util::{mean, median, ratio, Report};
use cs_core::{
    evaluate_ctp, evaluate_ctp_partitioned, Algorithm, QueueOrder, QueuePolicy, SearchStats,
    SeedSets,
};
use cs_engine::{eval_bgp_with_plan, plan_bgp, Table};
use cs_eql::Session;
use cs_graph::{EdgeId, Graph, Mutation, NodeId};
use std::time::Instant;

/// What the traced query path observed, summed over queries.
#[derive(Default)]
pub struct EqlTotals {
    pub queries: u64,
    pub bgp_ns: f64,
    pub ctp_ns: f64,
    pub join_ns: f64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub rc_hits: u64,
    pub rc_misses: u64,
    pub rc_subsumed: u64,
}

/// Runs one query through the session's public calls, each in its own
/// span under a `query` root. Returns the answer digest, the row count
/// and the root span's duration in ms.
pub fn traced_query(
    tr: &mut Tracer,
    session: &Session<'_>,
    q: &Query,
    req: u64,
    totals: &mut EqlTotals,
) -> Result<(u64, usize, f64), String> {
    let t0 = Instant::now();
    let root = tr.open("query", None, req);
    let ast = tr
        .span("eql.parse", Some(root), req, || cs_eql::parse(&q.text))
        .map_err(|e| e.to_string())?;
    let prepared = tr
        .span("eql.prepare", Some(root), req, || session.prepare_ast(ast))
        .map_err(|e| e.to_string())?;
    let res = tr
        .span("eql.execute", Some(root), req, || {
            session.execute(&prepared)
        })
        .map_err(|e| e.to_string())?;
    let text = tr.span("eql.render", Some(root), req, || {
        res.render(session.graph())
    });
    let d = tr.span("check.digest", Some(root), req, || digest(&text));
    tr.close(root);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let s = &res.stats;
    totals.queries += 1;
    totals.bgp_ns += s.bgp_time.as_nanos() as f64;
    totals.ctp_ns += s.ctp_time.as_nanos() as f64;
    totals.join_ns += s.join_time.as_nanos() as f64;
    totals.plan_hits += s.plan_cache_hits;
    totals.plan_misses += s.plan_cache_misses;
    totals.rc_hits += s.result_cache_hits;
    totals.rc_misses += s.result_cache_misses;
    totals.rc_subsumed += s.result_cache_subsumed;
    Ok((d, res.rows(), ms))
}

/// Adds the `eql.*` metrics of the traced query path.
pub fn report_eql(rep: &mut Report, tr: &Tracer, t: &EqlTotals) {
    let per = |ns: f64| ratio(ns, t.queries as f64);
    let n = format!("mean over {} traced queries", t.queries);
    rep.add(
        "eql.parse_us",
        per(tr.total("eql.parse")) / 1e3,
        "us",
        n.clone(),
    );
    rep.add(
        "eql.prepare_us",
        per(tr.total("eql.prepare")) / 1e3,
        "us",
        n.clone(),
    );
    rep.add(
        "eql.execute_ms",
        per(tr.total("eql.execute")) / 1e6,
        "ms",
        n.clone(),
    );
    rep.add(
        "eql.render_us",
        per(tr.total("eql.render")) / 1e3,
        "us",
        n.clone(),
    );
    rep.add(
        "eql.exec.bgp_ms",
        per(t.bgp_ns) / 1e6,
        "ms",
        "ExecStats::bgp_time, as reported",
    );
    rep.add(
        "eql.exec.ctp_ms",
        per(t.ctp_ns) / 1e6,
        "ms",
        "ExecStats::ctp_time, as reported",
    );
    rep.add(
        "eql.exec.join_ms",
        per(t.join_ns) / 1e6,
        "ms",
        "ExecStats::join_time, as reported",
    );
    let plans = (t.plan_hits + t.plan_misses) as f64;
    rep.add(
        "eql.plan_cache_hit_rate",
        ratio(t.plan_hits as f64, plans),
        "frac",
        format!("{} of {plans} BGP plans", t.plan_hits),
    );
    let probes = (t.rc_hits + t.rc_misses + t.rc_subsumed) as f64;
    rep.add(
        "eql.result_cache_hit_rate",
        ratio(t.rc_hits as f64, probes),
        "frac",
        format!("{} of {probes} CTP probes", t.rc_hits),
    );
    rep.add(
        "eql.result_cache_subsumed_rate",
        ratio(t.rc_subsumed as f64, probes),
        "frac",
        format!("{} of {probes} CTP probes", t.rc_subsumed),
    );
    // The top-level spans should account for the whole query: what they
    // leave uncovered is span bookkeeping.
    let root = tr.total("query");
    let children: f64 = [
        "eql.parse",
        "eql.prepare",
        "eql.execute",
        "eql.render",
        "check.digest",
    ]
    .iter()
    .map(|s| tr.total(s))
    .sum();
    rep.add(
        "trace.unattributed_frac",
        ratio(root - children, root),
        "frac",
        "share of traced query time outside the parse/prepare/execute/render/digest spans",
    );
}

/// Counters of the direct `cs_engine` / `cs_core` calls.
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct CoreCounters {
    pub searches: u64,
    pub results: u64,
    pub provenances: u64,
    pub grows: u64,
    pub merges: u64,
    pub mo_copies: u64,
    pub pruned: u64,
    pub queue_pushes: u64,
    pub stolen: u64,
}

impl CoreCounters {
    fn add(&mut self, s: &SearchStats, results: usize) {
        self.searches += 1;
        self.results += results as u64;
        self.provenances += s.provenances;
        self.grows += s.grows;
        self.merges += s.merges;
        self.mo_copies += s.mo_copies;
        self.pruned += s.pruned;
        self.queue_pushes += s.queue_pushes;
        self.stolen += s.stolen;
    }

    /// The exact counters, as one comparable line.
    pub fn line(&self) -> String {
        format!(
            "searches={} results={} provenances={} grows={} merges={} mo_copies={} pruned={} queue_pushes={}",
            self.searches,
            self.results,
            self.provenances,
            self.grows,
            self.merges,
            self.mo_copies,
            self.pruned,
            self.queue_pushes
        )
    }
}

#[derive(Default)]
pub struct Probe {
    pub counters: CoreCounters,
    pub bgp_rows: u64,
    pub allocs: u64,
    pub imbalance: Vec<f64>,
    pub queries: u64,
}

/// The seed sets of a CTP: constants resolve by label, variables to the
/// distinct nodes of the BGP column that binds them.
fn seeds(g: &Graph, terms: &[T], tables: &[Table]) -> Option<SeedSets> {
    let mut sets = Vec::new();
    for t in terms {
        let set: Vec<NodeId> = match t {
            T::C(label) => g.node_by_label(label).into_iter().collect(),
            T::V(v) => tables
                .iter()
                .find(|t| t.col(v).is_some())
                .map(|t| {
                    t.distinct_column(v)
                        .into_iter()
                        .filter_map(|b| b.as_node())
                        .collect()
                })
                .unwrap_or_default(),
        };
        sets.push(set);
    }
    SeedSets::from_sets(sets).ok()
}

/// Calls `cs_engine` on each query's BGP components and `cs_core` on its
/// CTP seeds, in spans, adding what it counts to `p`; `workers > 1` runs
/// the partitioned engine.
pub fn probe(
    p: &mut Probe,
    tr: &mut Tracer,
    g: &Graph,
    queries: &[&Query],
    workers: usize,
    req0: u64,
) {
    for (i, q) in queries.iter().enumerate() {
        let req = req0 + i as u64;
        let root = tr.open("probe", None, req);
        let mut tables = Vec::new();
        for bgp in q.bgps() {
            let plan = tr.span("engine.plan", Some(root), req, || plan_bgp(g, &bgp));
            let table = tr.span("engine.bgp_eval", Some(root), req, || {
                eval_bgp_with_plan(g, &bgp, &plan)
            });
            p.bgp_rows += table.len() as u64;
            tables.push(table);
        }
        for ctp in &q.ctps {
            let Some(seeds) = seeds(g, &ctp.terms, &tables) else {
                continue;
            };
            let filters = ctp.filters();
            let a0 = alloc::count();
            alloc::set_counting(true);
            let out = tr.span("core.search", Some(root), req, || {
                if workers > 1 {
                    evaluate_ctp_partitioned(
                        g,
                        &seeds,
                        Algorithm::MoLesp,
                        filters,
                        QueueOrder::SmallestFirst,
                        QueuePolicy::Single,
                        workers,
                    )
                } else {
                    evaluate_ctp(
                        g,
                        &seeds,
                        Algorithm::MoLesp,
                        filters,
                        QueueOrder::SmallestFirst,
                    )
                }
            });
            alloc::set_counting(false);
            p.allocs += alloc::count() - a0;
            p.counters.add(&out.stats, out.results.len());
            let produced: Vec<f64> = out
                .stats
                .workers
                .iter()
                .map(|w| w.produced as f64)
                .collect();
            p.imbalance.push(if produced.is_empty() {
                1.0
            } else {
                ratio(
                    produced.iter().cloned().fold(0.0, f64::max),
                    mean(&produced),
                )
            });
        }
        tr.close(root);
        p.queries += 1;
    }
}

/// Adds the `engine.*` and `core.*` metrics of a probe pass. `rows` is
/// the number of final answer rows of the probed queries.
pub fn report_probe(rep: &mut Report, tr: &Tracer, p: &Probe, rows: u64) {
    let nq = p.queries as f64;
    let c = &p.counters;
    let ns = c.searches as f64;
    let note = format!("{} probed queries, {} searches", p.queries, c.searches);
    rep.add(
        "engine.plan_us",
        ratio(tr.total("engine.plan"), nq) / 1e3,
        "us",
        format!("per query; {note}"),
    );
    rep.add(
        "engine.bgp_eval_ms",
        ratio(tr.total("engine.bgp_eval"), nq) / 1e6,
        "ms",
        format!("per query; {note}"),
    );
    rep.add(
        "engine.bgp_rows_per_result",
        ratio(p.bgp_rows as f64, rows as f64),
        "ratio",
        format!("{} BGP rows / {rows} answer rows", p.bgp_rows),
    );
    rep.add(
        "core.search_ms",
        ratio(tr.total("core.search"), ns) / 1e6,
        "ms",
        format!("per search; {note}"),
    );
    for (name, v) in [
        ("core.provenances", c.provenances),
        ("core.grows", c.grows),
        ("core.merges", c.merges),
        ("core.mo_copies", c.mo_copies),
        ("core.pruned", c.pruned),
        ("core.queue_pushes", c.queue_pushes),
        ("core.stolen", c.stolen),
    ] {
        rep.add(
            name,
            v as f64,
            "count",
            format!("total over {} searches", c.searches),
        );
    }
    rep.add(
        "core.prune_ratio",
        ratio(c.pruned as f64, (c.provenances + c.pruned) as f64),
        "frac",
        "pruned / (provenances + pruned)",
    );
    rep.add(
        "core.results_per_kprov",
        ratio(c.results as f64 * 1000.0, c.provenances as f64),
        "ratio",
        format!("{} results", c.results),
    );
    rep.add(
        "core.allocs_per_search",
        ratio(p.allocs as f64, ns),
        "count",
        "counting allocator",
    );
    rep.add(
        "core.worker_imbalance",
        mean(&p.imbalance),
        "ratio",
        "largest per-worker `produced` / mean, averaged over searches (1 when sequential)",
    );
}

/// Median `Graph::clone` time of `g` over `reps` clones, in ms.
pub fn clone_ms(g: &Graph, reps: usize) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let c = std::hint::black_box(g.clone());
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(c);
            ms
        })
        .collect();
    median(&v)
}

/// The write batches of a run: even batches insert the toggled edges,
/// odd batches remove the edges the previous batch inserted.
pub fn toggle_batch(
    i: usize,
    toggles: &[(NodeId, &'static str, NodeId)],
    inserted: &[EdgeId],
) -> Vec<Mutation> {
    if i.is_multiple_of(2) {
        toggles
            .iter()
            .map(|&(src, label, dst)| Mutation::InsertEdge {
                src,
                label: label.into(),
                dst,
            })
            .collect()
    } else {
        inserted
            .iter()
            .map(|&edge| Mutation::RemoveEdge { edge })
            .collect()
    }
}

/// Median `Graph::apply` time of the toggle batches on a clone, in µs.
pub fn apply_us(g: &Graph, toggles: &[(NodeId, &'static str, NodeId)], batches: usize) -> f64 {
    let mut g = g.clone();
    let mut inserted: Vec<EdgeId> = Vec::new();
    let mut v = Vec::new();
    for i in 0..batches {
        let ops = toggle_batch(i, toggles, &inserted);
        let t0 = Instant::now();
        let applied = g.apply(ops);
        v.push(t0.elapsed().as_secs_f64() * 1e6);
        if i.is_multiple_of(2) {
            inserted = applied.edges;
        }
    }
    median(&v)
}
