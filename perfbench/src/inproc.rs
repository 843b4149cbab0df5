//! The in-process workloads: `ctp_seq`, `ctp_par2` and `eql_yago`. A
//! single client runs a closed loop through `cs_eql::Session`, checks
//! every answer, then measures write batches through `Session::mutate`.

use crate::check::{digest, reference};
use crate::graphs::{ctp_graphs, toggle_pairs, yago_snapshot};
use crate::layers::{self, traced_query, EqlTotals};
use crate::params::Params;
use crate::queries::{ctp_pool, Mix, Query, YagoDraw};
use crate::trace::Tracer;
use crate::util::{mean, median, ratio, vm_hwm_mb, CpuRotor, Report, Rng};
use crate::Ctx;
use cs_eql::{ExecOptions, ResultCacheMode, Session};
use cs_graph::{EdgeId, Graph, NodeId};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How long a single-threaded loop stays on one CPU.
const ROTATE_EVERY: Duration = Duration::from_millis(100);

/// The sessions under test and the query source of one workload.
struct Bench {
    sessions: Vec<Session<'static>>,
    queries: Vec<Query>,
    source: Source,
    /// Set-up times (s), how they were taken, and the graph build or
    /// open time of each set-up measured.
    setups: Vec<f64>,
    setup_note: &'static str,
    graph_ms: Vec<f64>,
    /// Where writes go: target index and the edges they toggle.
    write_target: usize,
    toggles: Vec<(NodeId, &'static str, NodeId)>,
    search_workers: usize,
}

/// How the next query is chosen.
enum Source {
    /// Cycle through a seeded mix of a fixed pool (`ctp_*`). Each
    /// template deals its pool queries from a shuffled deck, so every
    /// seed runs nearly the same multiset of queries, in another order.
    Pool {
        mix: Mix,
        decks: HashMap<String, Mix<usize>>,
    },
    /// Draw a fresh query per request (`eql_yago`).
    Yago { mix: Mix, rng: Rng, params: Params },
}

impl Bench {
    fn next(&mut self) -> usize {
        match &mut self.source {
            Source::Pool { mix, decks } => {
                let t = mix.next();
                decks
                    .get_mut(&t)
                    .expect("every mix template has a deck")
                    .next()
            }
            Source::Yago { mix, rng, params } => {
                let t = mix.next();
                let g = self.sessions[0].graph();
                let q = YagoDraw::new(g, params).query(&t, rng);
                self.queries.push(q);
                self.queries.len() - 1
            }
        }
    }
}

/// The trivial query that proves a session answers: one node-index
/// lookup on the graph's first node.
fn ping(s: &Session<'_>) -> Result<(), String> {
    let label = s.graph().node_label(NodeId::new(0)).to_string();
    s.run(&format!("SELECT e, y WHERE {{ ({label:?}, e, y) }}"))
        .map(|_| ())
        .map_err(|e| format!("ping failed: {e}"))
}

/// Intra-search workers of a `ctp_*` workload.
fn ctp_workers(workload: &str) -> usize {
    if workload == "ctp_par2" {
        2
    } else {
        1
    }
}

/// The `ctp_*` set-up: generate the graphs, open a session on each and
/// run the first query. Returns the sessions and the generation time.
fn ctp_sessions(p: &Params, workers: usize) -> Result<(Vec<Session<'static>>, f64), String> {
    let opts = ExecOptions {
        result_cache: ResultCacheMode::Off,
        search_threads: workers,
        ..ExecOptions::default()
    };
    let t0 = Instant::now();
    let graphs = ctp_graphs(p);
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let sessions: Vec<Session<'static>> = graphs
        .into_iter()
        .map(|g| Session::from_graph_with(g.graph, opts.clone()))
        .collect();
    for s in &sessions {
        ping(s)?;
    }
    Ok((sessions, gen_ms))
}

/// The `setup` subcommand: the `ctp_*` set-up timed in this process, as
/// `<median set-up s> <median generation ms>`. Set-ups repeat untimed
/// for `setup_warmup_s` first: a sub-millisecond set-up otherwise reads
/// cold caches and clocks.
pub fn setup_times(ctx: &Ctx) -> Result<String, String> {
    let p = &ctx.params;
    let workers = ctp_workers(&ctx.workload);
    let warm_until = Instant::now() + Duration::from_secs_f64(p.f64("setup_warmup_s"));
    while Instant::now() < warm_until {
        ctp_sessions(p, workers)?;
    }
    let (mut setups, mut gen_ms) = (Vec::new(), Vec::new());
    for _ in 0..p.usize("setup_repeats") {
        let t0 = Instant::now();
        let (sessions, ms) = ctp_sessions(p, workers)?;
        setups.push(t0.elapsed().as_secs_f64());
        gen_ms.push(ms);
        drop(sessions);
    }
    Ok(format!("{} {}", median(&setups), median(&gen_ms)))
}

/// Runs this program again in `mode` with the run's workload, seed and
/// parameters, and returns what it printed.
fn run_self(ctx: &Ctx, mode: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg(mode)
        .args(["--workload", &ctx.workload])
        .args(["--seed", &ctx.seed.to_string()]);
    for (k, v) in &ctx.params.0 {
        cmd.arg("--set").arg(format!("{k}={v}"));
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "`perfbench {mode}` failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Times the `ctp_*` set-up in `n` fresh processes, as (set-up s,
/// generation ms) per process.
///
/// Each set-up takes well under a millisecond, and such a time varies
/// more between processes than within one, and with the drift of the
/// CPU it runs on. So each process takes the next CPU in turn (a child
/// inherits the affinity of the thread that starts it), and `run` calls
/// this before and after its timed loop.
fn ctp_setups(ctx: &Ctx, n: usize) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (mut setups, mut gen_ms) = (Vec::new(), Vec::new());
    let mut rotor = CpuRotor::new(Duration::ZERO);
    for _ in 0..n {
        rotor.tick();
        let line = run_self(ctx, "setup")?;
        let mut it = line.split(' ').map(str::parse::<f64>);
        match (it.next(), it.next()) {
            (Some(Ok(s)), Some(Ok(g))) => {
                setups.push(s);
                gen_ms.push(g);
            }
            _ => return Err(format!("bad `perfbench setup` output {line:?}")),
        }
    }
    Ok((setups, gen_ms))
}

fn ctp_bench(ctx: &Ctx) -> Result<Bench, String> {
    let p = &ctx.params;
    let workers = ctp_workers(&ctx.workload);
    let queries = ctp_pool(&ctp_graphs(p), p);
    let (setups, gen_ms) = ctp_setups(ctx, p.usize("setup_procs") / 2)?;
    let (sessions, _) = ctp_sessions(p, workers)?;
    let source = pool_source(&queries, ctx, "");
    let write_target = sessions.len() - 1;
    let g = sessions[write_target].graph();
    let mut rng = Rng::derive(ctx.seed, "toggles");
    let toggles = (0..p.usize("toggle_edges"))
        .map(|_| {
            (
                NodeId::new(rng.below(g.node_count())),
                "r0",
                NodeId::new(rng.below(g.node_count())),
            )
        })
        .collect();
    Ok(Bench {
        sessions,
        queries,
        source,
        setups,
        setup_note:
            "median over fresh processes, before and after the timed loop, of their median set-up",
        graph_ms: gen_ms,
        write_target,
        toggles,
        search_workers: workers,
    })
}

fn yago_bench(ctx: &Ctx) -> Result<Bench, String> {
    let p = &ctx.params;
    let path = yago_snapshot(p, &ctx.data).map_err(|e| e.to_string())?;
    let mut setups = Vec::new();
    let mut open_ms = Vec::new();
    let mut kept = None;
    let warm = p.usize("setup_warmup");
    for i in 0..warm + p.usize("setup_repeats") {
        if i == warm {
            setups.clear();
            open_ms.clear();
        }
        drop(kept.take());
        let t0 = Instant::now();
        let s = Session::open_snapshot(&path).map_err(|e| e.to_string())?;
        open_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        ping(&s)?;
        setups.push(t0.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let session = kept.ok_or("setup_repeats must be at least 1")?;
    let g = session.graph();
    let mut rng = Rng::derive(ctx.seed, "toggles");
    let toggles = toggle_pairs(
        g,
        p.usize("persons"),
        p.usize("toggle_edges"),
        &[],
        &mut rng,
    )
    .into_iter()
    .map(|(a, b)| {
        let n = |l: &str| g.node_by_label(l).expect("toggle endpoints exist");
        (n(&a), "knows", n(&b))
    })
    .collect();
    Ok(Bench {
        sessions: vec![session],
        queries: Vec::new(),
        source: Source::Yago {
            mix: Mix::new(&p.weights("mix"), Rng::derive(ctx.seed, "mix")),
            rng: Rng::derive(ctx.seed, "constants"),
            params: p.clone(),
        },
        setups,
        setup_note: "median of the set-ups",
        graph_ms: open_ms,
        write_target: 0,
        toggles,
        search_workers: 1,
    })
}

/// One executed read.
struct Read {
    query: usize,
    ms: f64,
    answer: Result<u64, String>,
}

fn run_plain(b: &Bench, qi: usize) -> Read {
    let q = &b.queries[qi];
    let s = &b.sessions[q.target];
    let t0 = Instant::now();
    let answer = s
        .run(&q.text)
        .map(|r| digest(&r.render(s.graph())))
        .map_err(|e| e.to_string());
    Read {
        query: qi,
        ms: t0.elapsed().as_secs_f64() * 1e3,
        answer,
    }
}

/// Checks reads against the reference digests; returns, per read,
/// whether its answer was right.
fn check(b: &Bench, reads: &[Read], rep: &mut Report) -> Vec<bool> {
    let mut refs: HashMap<usize, Result<u64, String>> = HashMap::new();
    let mut ok = Vec::with_capacity(reads.len());
    let mut shown = 0;
    for r in reads {
        let q = &b.queries[r.query];
        let want = refs
            .entry(r.query)
            .or_insert_with(|| reference(b.sessions[q.target].graph(), &q.text));
        let good = matches!((&r.answer, &*want), (Ok(a), Ok(w)) if a == w);
        if !good && shown < 3 {
            shown += 1;
            rep.fail(format!(
                "wrong or failed answer for {}: {:?} vs reference {:?}",
                q.text, r.answer, want
            ));
        }
        ok.push(good);
    }
    ok
}

/// Alternating write batches: insert the toggled edges, then remove
/// them again. Returns the `Session::mutate` times in ms.
fn write_phase(b: &Bench, batches: usize, rep: &mut Report) -> Result<Vec<f64>, String> {
    let g: Graph = b.sessions[b.write_target].graph().clone();
    let mut s = Session::from_graph(g);
    let mut inserted: Vec<EdgeId> = Vec::new();
    let mut times = Vec::with_capacity(batches);
    for i in 0..batches {
        let ops = layers::toggle_batch(i, &b.toggles, &inserted);
        let t0 = Instant::now();
        let applied = s.mutate(ops).map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        if i.is_multiple_of(2) {
            inserted = applied.edges;
        } else if applied.removed != inserted.len() {
            rep.fail(format!(
                "write batch {i} removed {} of {} edges",
                applied.removed,
                inserted.len()
            ));
        }
    }
    Ok(times)
}

pub fn run(ctx: &Ctx) -> Result<(Report, u64, u64), String> {
    let mut b = match ctx.workload.as_str() {
        "ctp_seq" | "ctp_par2" => ctp_bench(ctx)?,
        "eql_yago" => yago_bench(ctx)?,
        other => return Err(format!("unknown in-process workload {other}")),
    };
    let p = ctx.params.clone();
    let mut rep = Report::default();

    // Single-threaded loops rotate over the CPUs (see `CpuRotor`); the
    // partitioned engine already spreads its workers over them.
    let mut rotor = if b.search_workers == 1 {
        CpuRotor::new(ROTATE_EVERY)
    } else {
        CpuRotor::off()
    };
    // Warm-up: fault in the graph and fill the plan cache with queries
    // the timed loop never repeats (a separate constant stream).
    let warm_until = Instant::now() + Duration::from_secs_f64(p.f64("warmup_s"));
    let warm = warmup_source(&b, ctx);
    let saved = std::mem::replace(&mut b.source, warm);
    while Instant::now() < warm_until {
        rotor.tick();
        let qi = b.next();
        run_plain(&b, qi);
    }
    b.source = saved;
    if matches!(b.source, Source::Yago { .. }) {
        b.queries.clear();
    }

    if ctx.trace {
        drop(rotor);
        let queries = traced(ctx, &mut b, &mut rep)?;
        return Ok((rep, queries, 0));
    }

    let limit_ms = p.f64("latency_limit_ms");
    let mut reads = Vec::new();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < end {
        rotor.tick();
        let qi = b.next();
        reads.push(run_plain(&b, qi));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    drop(rotor);
    if matches!(b.source, Source::Pool { .. }) {
        let procs = p.usize("setup_procs");
        let (setups, gen_ms) = ctp_setups(ctx, procs - procs / 2)?;
        b.setups.extend(setups);
        b.graph_ms.extend(gen_ms);
    }
    let ok = check(&b, &reads, &mut rep);
    let writes = write_phase(&b, p.usize("write_batches"), &mut rep)?;

    let mut per: std::collections::BTreeMap<&str, (usize, f64)> = Default::default();
    for r in &reads {
        let e = per.entry(b.queries[r.query].template.as_str()).or_default();
        e.0 += 1;
        e.1 += r.ms;
    }
    for (t, (n, ms)) in per {
        rep.notes.push(format!(
            "template {t}: {n} reads, mean {:.3} ms",
            ms / n as f64
        ));
    }
    let good = ok.iter().filter(|&&g| g).count();
    let lat: Vec<f64> = reads.iter().map(|r| r.ms).collect();
    let in_slo = reads
        .iter()
        .zip(&ok)
        .filter(|(r, &g)| g && r.ms <= limit_ms)
        .count();
    let failed = (reads.len() - good) as u64;
    rep.add(
        "setup_s",
        median(&b.setups),
        "s",
        format!("{}, n={}", b.setup_note, b.setups.len()),
    );
    rep.add(
        "qps",
        good as f64 / elapsed,
        "1/s",
        format!("{good} correct answers in {elapsed:.3} s"),
    );
    rep.percentile("latency_p50_ms", &lat, 0.5, "ms");
    rep.percentile("latency_p90_ms", &lat, 0.9, "ms");
    rep.add(
        "latency_mean_ms",
        mean(&lat),
        "ms",
        format!("n={}", lat.len()),
    );
    rep.percentile("latency_p99_ms", &lat, 0.99, "ms");
    rep.add(
        "slo_met_frac",
        ratio(in_slo as f64, reads.len() as f64),
        "frac",
        format!("correct within {limit_ms} ms, of {} reads", reads.len()),
    );
    rep.percentile("write_p50_ms", &writes, 0.5, "ms");
    rep.percentile("write_p90_ms", &writes, 0.9, "ms");
    rep.add(
        "peak_rss_mb",
        vm_hwm_mb(None),
        "MiB",
        "VmHWM of the benchmark process",
    );
    let attempted = (reads.len() + writes.len()) as u64;
    rep.add(
        "error_rate",
        ratio(failed as f64, attempted as f64),
        "frac",
        format!("{failed} failed of {attempted} attempted"),
    );
    Ok((rep, attempted, failed))
}

/// The `ctp_*` query source: the template mix and one deck per template,
/// each shuffled from the run seed and `salt`.
fn pool_source(queries: &[Query], ctx: &Ctx, salt: &str) -> Source {
    let mut by_template: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
    for (i, q) in queries.iter().enumerate() {
        by_template
            .entry(q.template.clone())
            .or_default()
            .push((i, 1));
    }
    let decks = by_template
        .into_iter()
        .map(|(t, items)| {
            let rng = Rng::derive(ctx.seed, &format!("{salt}deck-{t}"));
            (t, Mix::new(&items, rng))
        })
        .collect();
    Source::Pool {
        mix: Mix::new(
            &ctx.params.weights("mix"),
            Rng::derive(ctx.seed, &format!("{salt}mix")),
        ),
        decks,
    }
}

/// A query source for the warm-up that shares no constants with the run.
fn warmup_source(b: &Bench, ctx: &Ctx) -> Source {
    match &b.source {
        Source::Pool { .. } => pool_source(&b.queries, ctx, "warmup-"),
        Source::Yago { params, .. } => Source::Yago {
            mix: Mix::new(
                &ctx.params.weights("mix"),
                Rng::derive(ctx.seed, "warmup-mix"),
            ),
            rng: Rng::derive(ctx.seed ^ 0x5EED, "warmup-constants"),
            params: params.clone(),
        },
    }
}

/// The traced run: alternating untraced and traced blocks of the same
/// loop (their qps ratio is the tracing overhead), then one probe pass
/// over a fixed query list, then the graph-layer timings.
fn traced(ctx: &Ctx, b: &mut Bench, rep: &mut Report) -> Result<u64, String> {
    let p = &ctx.params;
    let mut tr = Tracer::new();
    let mut totals = EqlTotals::default();
    let block = Duration::from_secs_f64(p.f64("trace_block_s"));
    let (mut plain_n, mut plain_s, mut traced_n, mut traced_s) = (0u64, 0.0, 0u64, 0.0);
    let t_end = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut req = 0u64;
    let mut traced_block = false;
    while Instant::now() < t_end {
        let t0 = Instant::now();
        while t0.elapsed() < block {
            let qi = b.next();
            if traced_block {
                let q = &b.queries[qi];
                traced_query(&mut tr, &b.sessions[q.target], q, req, &mut totals)?;
                traced_n += 1;
            } else {
                run_plain(b, qi).answer?;
                plain_n += 1;
            }
            req += 1;
        }
        if traced_block {
            traced_s += t0.elapsed().as_secs_f64();
        } else {
            plain_s += t0.elapsed().as_secs_f64();
        }
        traced_block = !traced_block;
    }
    layers::report_eql(rep, &tr, &totals);
    rep.add(
        "trace.overhead_frac",
        ratio(traced_n as f64 / traced_s, plain_n as f64 / plain_s),
        "ratio",
        format!("traced qps / untraced qps ({traced_n} vs {plain_n} queries, interleaved blocks)"),
    );

    // Probe pass over a list fixed by the seed: the whole pool for
    // `ctp_*`, the first queries of the stream for `eql_yago`.
    let list: Vec<usize> = match &b.source {
        Source::Pool { .. } => (0..b.queries.len()).collect(),
        Source::Yago { .. } => {
            while b.queries.len() < p.usize("probe_queries") {
                b.next();
            }
            (0..p.usize("probe_queries")).collect()
        }
    };
    let mut rows = 0u64;
    for &qi in &list {
        let q = &b.queries[qi];
        let s = Session::with_options(
            b.sessions[q.target].graph(),
            crate::check::reference_options(),
        );
        rows += s.run(&q.text).map_err(|e| e.to_string())?.rows() as u64;
    }
    let mut probe = layers::Probe::default();
    for target in 0..b.sessions.len() {
        let qs: Vec<&Query> = list
            .iter()
            .map(|&i| &b.queries[i])
            .filter(|q| q.target == target)
            .collect();
        let g = b.sessions[target].graph();
        layers::probe(&mut probe, &mut tr, g, &qs, b.search_workers, 1 << 32);
    }
    layers::report_probe(rep, &tr, &probe, rows);
    if ctx.workload == "ctp_seq" {
        check_counters_repeat(ctx, &probe.counters, rep)?;
    }

    // Graph layer.
    let g = b.sessions[b.write_target].graph();
    match ctx.workload.as_str() {
        "eql_yago" => {
            rep.add(
                "graph.open_ms",
                median(&b.graph_ms),
                "ms",
                "Session::open_snapshot, median of set-ups",
            );
            let t0 = Instant::now();
            let regenerated = crate::graphs::yago_graph(p);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(regenerated);
            rep.add(
                "graph.generate_ms",
                ms,
                "ms",
                "yago_like + CDF forest, one build",
            );
        }
        _ => {
            rep.add(
                "graph.open_ms",
                ctp_open_ms(ctx, b)?,
                "ms",
                "Session::open_snapshot of the saved ctp graphs, median",
            );
            rep.add(
                "graph.generate_ms",
                median(&b.graph_ms),
                "ms",
                "all ctp graphs, median of set-ups",
            );
        }
    }
    rep.add(
        "graph.clone_ms",
        layers::clone_ms(g, 5),
        "ms",
        "Graph::clone, median of 5",
    );
    rep.add(
        "graph.apply_us",
        layers::apply_us(g, &b.toggles, p.usize("write_batches")),
        "us",
        "Graph::apply per toggle batch, median",
    );
    for name in [
        "server.ping_rtt_us",
        "server.wait_ms",
        "server.rejected",
        "server.deadline_exceeded",
        "server.result_cache_hits",
        "server.result_cache_misses",
        "server.result_cache_subsumed",
        "loadgen.late_p99_ms",
    ] {
        let unit = if name.ends_with("_us") {
            "us"
        } else if name.ends_with("_ms") {
            "ms"
        } else {
            "count"
        };
        rep.add(
            name,
            0.0,
            unit,
            "not applicable: no server in this workload",
        );
    }
    let spans = ctx
        .data
        .join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    tr.write_jsonl(&spans).map_err(|e| e.to_string())?;
    let selfs: Vec<String> = tr
        .self_times()
        .iter()
        .map(|(k, v)| format!("{k}={:.3}ms", v / 1e6))
        .collect();
    rep.notes
        .push(format!("self time per span name: {}", selfs.join(" ")));
    rep.notes
        .push(format!("spans written to {}", spans.display()));
    let slack = p.f64("span_slack_frac");
    if rep.get("trace.unattributed_frac").unwrap_or(0.0) > slack {
        rep.fail(format!(
            "traced top-level spans leave more than {slack} of query time unattributed"
        ));
    }
    Ok(req)
}

/// Median time to open each ctp graph from a CSG2 snapshot.
fn ctp_open_ms(ctx: &Ctx, b: &Bench) -> Result<f64, String> {
    let mut v = Vec::new();
    for (i, s) in b.sessions.iter().enumerate() {
        let path = ctx.data.join(format!("ctp-{}-{i}.csg", ctx.workload));
        cs_graph::snapshot::save_to(s.graph(), &path).map_err(|e| e.to_string())?;
        for _ in 0..3 {
            let t0 = Instant::now();
            let opened = Session::open_snapshot(&path).map_err(|e| e.to_string())?;
            v.push(t0.elapsed().as_secs_f64() * 1e3);
            drop(opened);
        }
        std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    }
    Ok(median(&v))
}

/// Runs the `ctp_seq` probe pass again in a second process and requires
/// identical counter totals: sequential searches are deterministic, so
/// any difference is a defect, not noise.
fn check_counters_repeat(
    ctx: &Ctx,
    mine: &layers::CoreCounters,
    rep: &mut Report,
) -> Result<(), String> {
    let theirs = run_self(ctx, "counters")?;
    if theirs != mine.line() {
        rep.fail(format!(
            "core counters differ between two runs of seed {}: {} vs {theirs}",
            ctx.seed,
            mine.line()
        ));
    }
    rep.notes
        .push(format!("core counters, this process:   {}", mine.line()));
    rep.notes
        .push(format!("core counters, second process: {theirs}"));
    Ok(())
}

/// The `counters` subcommand: the `ctp_seq` probe pass alone, printing
/// its exact counter totals.
pub fn counters(ctx: &Ctx) -> Result<String, String> {
    let p = &ctx.params;
    let queries = ctp_pool(&ctp_graphs(p), p);
    let (sessions, _) = ctp_sessions(p, 1)?;
    let mut tr = Tracer::new();
    let mut total = layers::Probe::default();
    for (target, s) in sessions.iter().enumerate() {
        let qs: Vec<&Query> = queries.iter().filter(|q| q.target == target).collect();
        layers::probe(&mut total, &mut tr, s.graph(), &qs, 1, 0);
    }
    Ok(total.counters.line())
}
