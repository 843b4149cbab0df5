//! `serve_mixed`: `csqd --workers 2` over the YAGO snapshot. One
//! connection carries open-loop reads sent on a fixed schedule and
//! drawn Zipf-like from a pool of distinct queries; the second carries
//! `mutate` batches at a fixed interval that insert, then remove, a set
//! of `knows` edges. One benchmark thread drives both connections.

use crate::check::{digest, reference};
use crate::graphs::{toggle_pairs, yago_snapshot};
use crate::layers::{self, traced_query, EqlTotals};
use crate::queries::{observes_knows, Mix, Query, YagoDraw, T};
use crate::trace::Tracer;
use crate::util::{mean, median, quantile_sorted, ratio, sorted, Report, Rng};
use crate::Ctx;
use cs_eql::Session;
use cs_graph::{Graph, Mutation};
use cs_server::proto::{
    read_frame, write_frame, ErrorCode, ErrorReply, Frame, MutateReply, MutateRequest, Opcode,
    QueryReply, QueryRequest,
};
use cs_server::{Client, RequestHeader, WireMutation};
use std::io::{BufRead, BufReader, ErrorKind, Read as _};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `csqd` and the address it listens on.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts `csqd` and waits for its readiness line.
    fn start(csqd: &std::path::Path, snapshot: &std::path::Path) -> Result<Daemon, String> {
        let mut child = Command::new(csqd)
            .arg(snapshot)
            .args(["--workers", "2", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", csqd.display()))?;
        let stdout = child.stdout.take().ok_or("csqd has no stdout")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        match line.trim().strip_prefix("csqd listening on ") {
            Some(addr) => Ok(Daemon {
                child,
                addr: addr.to_string(),
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("csqd did not come up: {line:?}"))
            }
        }
    }

    /// Asks the daemon to shut down and waits for it; `Drop` kills it if
    /// it has not exited within five seconds.
    fn stop(mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    /// No run leaves a daemon behind, whichever way it ends.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The Zipf-like read mix: pool index `i` is drawn with weight
/// `1 / (i + 1)^s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One read of the open loop.
struct Sent {
    query: usize,
    due: Instant,
    sent: Option<Instant>,
    done: Option<Instant>,
    answer: Option<Result<u64, ErrorCode>>,
}

fn header(tenant: &str, deadline_ms: u32) -> RequestHeader {
    RequestHeader {
        tenant: tenant.to_string(),
        deadline_ms,
    }
}

/// Pops every complete frame from `buf`.
fn drain_frames(buf: &mut Vec<u8>) -> Result<Vec<Frame>, String> {
    let mut frames = Vec::new();
    loop {
        if buf.len() < 8 {
            return Ok(frames);
        }
        let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
        if buf.len() < 8 + len {
            return Ok(frames);
        }
        let mut whole: &[u8] = &buf[..8 + len];
        frames.push(read_frame(&mut whole).map_err(|e| format!("bad frame from csqd: {e}"))?);
        buf.drain(..8 + len);
    }
}

/// Decodes a read's reply into the digest of its answer or its error.
fn answer_of(frame: &Frame) -> Result<u64, ErrorCode> {
    match frame.opcode {
        Opcode::Reply => QueryReply::decode(&frame.payload)
            .map(|r| digest(&r.text))
            .map_err(|_| ErrorCode::Protocol),
        Opcode::Error => {
            Err(ErrorReply::decode(&frame.payload).map_or(ErrorCode::Protocol, |e| e.code))
        }
        _ => Err(ErrorCode::Protocol),
    }
}

/// The pool of distinct reads and the reference digests of each in both
/// toggled graph states.
struct Pool {
    queries: Vec<Query>,
    ref_base: Vec<Result<u64, String>>,
    ref_toggled: Vec<Result<u64, String>>,
    /// In-process reference execution time of each query, in ms.
    exec_ms: Vec<f64>,
    toggles: Vec<(String, String)>,
}

fn build_pool(ctx: &Ctx, g: &Graph) -> Result<Pool, String> {
    let p = &ctx.params;
    let draw = YagoDraw::new(g, p);
    // Pool position is Zipf rank, so the template at each rank decides
    // much of the load (rank 1 alone takes about 15% of reads). That
    // order is fixed; the seed only draws the constants.
    let mut mix = Mix::new(&p.weights("mix"), Rng::derive(0, "serve-mix"));
    let mut rng = Rng::derive(ctx.seed, "serve-constants");
    let mut queries: Vec<Query> = Vec::new();
    while queries.len() < p.usize("pool_size") {
        let q = draw.query(&mix.next(), &mut rng);
        if !queries.iter().any(|o| o.text == q.text) {
            queries.push(q);
        }
    }
    // Toggle sources are persons the `person_edges` reads ask about.
    let sources: Vec<String> = queries
        .iter()
        .filter(|q| q.template == "person_edges")
        .filter_map(|q| match &q.patterns[0][0] {
            T::C(label) => Some(label.clone()),
            T::V(_) => None,
        })
        .collect();
    let toggles = toggle_pairs(
        g,
        p.usize("persons"),
        p.usize("toggle_edges"),
        &sources,
        &mut Rng::derive(ctx.seed, "toggles"),
    );
    let mut toggled = Session::from_graph(g.clone());
    let ops = toggles
        .iter()
        .map(|(a, b)| Mutation::InsertEdge {
            src: g.node_by_label(a).expect("toggle endpoints exist"),
            label: "knows".into(),
            dst: g.node_by_label(b).expect("toggle endpoints exist"),
        })
        .collect();
    toggled.mutate(ops).map_err(|e| e.to_string())?;
    let mut ref_base = Vec::new();
    let mut exec_ms = Vec::new();
    for q in &queries {
        let t0 = Instant::now();
        ref_base.push(reference(g, &q.text));
        exec_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let ref_toggled = queries
        .iter()
        .map(|q| reference(toggled.graph(), &q.text))
        .collect();
    Ok(Pool {
        queries,
        ref_base,
        ref_toggled,
        exec_ms,
        toggles,
    })
}

/// One csq/1 connection polled without blocking, so that one thread
/// can keep the read schedule and drive the writes.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Writes one whole frame (blocking for the write, so a full socket
    /// buffer can never split it).
    fn send(&mut self, request_id: u64, opcode: Opcode, payload: Vec<u8>) -> Result<(), String> {
        let io = |e: std::io::Error| e.to_string();
        self.stream.set_nonblocking(false).map_err(io)?;
        write_frame(
            &mut self.stream,
            &Frame {
                request_id,
                opcode,
                payload,
            },
        )
        .map_err(io)?;
        self.stream.set_nonblocking(true).map_err(io)
    }

    /// Every frame that has fully arrived.
    fn poll(&mut self, chunk: &mut [u8]) -> Result<Vec<Frame>, String> {
        loop {
            match self.stream.read(chunk) {
                Ok(0) => return Err("csqd closed a connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e.to_string()),
            }
        }
        drain_frames(&mut self.buf)
    }
}

/// What the write connection measured.
#[derive(Default)]
struct Writes {
    ms: Vec<f64>,
    failed: u64,
    ping_us: Vec<f64>,
    errors: Vec<String>,
}

/// A toggle batch: even batches insert the edges, odd ones remove them.
fn wire_batch(i: u64, toggles: &[(String, String)]) -> Vec<u8> {
    let ops = toggles
        .iter()
        .map(|(a, b)| {
            let (src, label, dst) = (a.clone(), "knows".to_string(), b.clone());
            if i.is_multiple_of(2) {
                WireMutation::InsertEdge { src, label, dst }
            } else {
                WireMutation::RemoveEdge { src, label, dst }
            }
        })
        .collect();
    MutateRequest {
        header: header("writes", 0),
        ops,
    }
    .encode()
}

/// The write side of the loop: a closed loop of one mutate batch every
/// `interval` (or as soon as the previous one and its ping returned),
/// each followed by a ping.
struct Writer<'a> {
    conn: Conn,
    toggles: &'a [(String, String)],
    interval: Duration,
    start: Instant,
    batches: u64,
    /// The outstanding request: (id, sent at, is a ping).
    outstanding: Option<(u64, Instant, bool)>,
    out: Writes,
}

impl Writer<'_> {
    fn idle(&self) -> bool {
        self.outstanding.is_none()
    }

    fn send_batch(&mut self, now: Instant) -> Result<(), String> {
        let id = 2 * self.batches + 1;
        self.conn
            .send(id, Opcode::Mutate, wire_batch(self.batches, self.toggles))?;
        self.outstanding = Some((id, now, false));
        self.batches += 1;
        Ok(())
    }

    /// Sends the next batch if it is due.
    fn tick(&mut self, now: Instant) -> Result<bool, String> {
        if self.idle() && now >= self.start + self.interval * self.batches as u32 {
            self.send_batch(now)?;
            return Ok(true);
        }
        Ok(false)
    }

    fn on_frame(&mut self, f: &Frame, at: Instant) -> Result<(), String> {
        let Some((id, sent, ping)) = self.outstanding else {
            return Err(format!(
                "unexpected frame {} on the write connection",
                f.request_id
            ));
        };
        if f.request_id != id {
            return Err(format!("reply to unknown write request {}", f.request_id));
        }
        self.outstanding = None;
        if ping {
            self.out.ping_us.push((at - sent).as_secs_f64() * 1e6);
            return Ok(());
        }
        self.out.ms.push((at - sent).as_secs_f64() * 1e3);
        let batch = self.batches - 1;
        let expected = self.toggles.len() as u64;
        let ok = match f.opcode {
            Opcode::MutateReply => match MutateReply::decode(&f.payload) {
                Ok(r) if batch.is_multiple_of(2) && r.edges == expected => true,
                Ok(r) if batch % 2 == 1 && r.removed == expected => true,
                Ok(r) => {
                    self.out.errors.push(format!("write batch {batch}: {r:?}"));
                    false
                }
                Err(e) => {
                    self.out.errors.push(format!("write batch {batch}: {e}"));
                    false
                }
            },
            _ => {
                let why =
                    ErrorReply::decode(&f.payload).map_or("bad reply".to_string(), |e| e.message);
                self.out.errors.push(format!("write batch {batch}: {why}"));
                false
            }
        };
        if !ok {
            self.out.failed += 1;
        }
        self.conn.send(id + 1, Opcode::Ping, b"ping".to_vec())?;
        self.outstanding = Some((id + 1, Instant::now(), true));
        Ok(())
    }
}

/// Runs the open loop: read `i` is due at `start + i / rate`, whether or
/// not earlier reads have been answered. With `writes`, mutate batches
/// run beside the reads on a second connection. One thread does both:
/// it sends what is due, collects what has arrived, and otherwise
/// sleeps at most `POLL` so that sends and replies are seen on time.
fn drive(
    addr: &str,
    pool: &Pool,
    picks: &[usize],
    rate: f64,
    deadline_ms: u32,
    writes: Option<Duration>,
    drain: Duration,
) -> Result<(Vec<Sent>, Writes), String> {
    const POLL: Duration = Duration::from_micros(100);
    let mut reads_conn = Conn::open(addr)?;
    let start = Instant::now() + Duration::from_millis(20);
    let mut writer = match writes {
        Some(interval) => Some(Writer {
            conn: Conn::open(addr)?,
            toggles: &pool.toggles,
            interval,
            start,
            batches: 0,
            outstanding: None,
            out: Writes::default(),
        }),
        None => None,
    };
    let mut reads: Vec<Sent> = picks
        .iter()
        .enumerate()
        .map(|(i, &q)| Sent {
            query: q,
            due: start + Duration::from_secs_f64(i as f64 / rate),
            sent: None,
            done: None,
            answer: None,
        })
        .collect();
    let (mut next, mut pending) = (0usize, 0usize);
    let mut chunk = vec![0u8; 1 << 16];
    let mut drain_until: Option<Instant> = None;
    let mut restoring = false;
    loop {
        let now = Instant::now();
        let mut progress = false;
        while next < reads.len() && reads[next].due <= now {
            let r = &mut reads[next];
            let payload = QueryRequest {
                header: header("reads", deadline_ms),
                text: pool.queries[r.query].text.clone(),
            }
            .encode();
            reads_conn.send(next as u64 + 1, Opcode::Query, payload)?;
            r.sent = Some(Instant::now());
            next += 1;
            pending += 1;
            progress = true;
        }
        if let Some(w) = writer.as_mut() {
            if next < reads.len() {
                progress |= w.tick(now)?;
            }
            let frames = w.conn.poll(&mut chunk)?;
            let at = Instant::now();
            for f in &frames {
                w.on_frame(f, at)?;
                progress = true;
            }
        }
        let frames = reads_conn.poll(&mut chunk)?;
        let at = Instant::now();
        for f in frames {
            let Some(r) = (f.request_id as usize)
                .checked_sub(1)
                .and_then(|i| reads.get_mut(i))
            else {
                return Err(format!("reply to unknown read {}", f.request_id));
            };
            if r.done.is_none() {
                r.done = Some(at);
                r.answer = Some(answer_of(&f));
                pending -= 1;
            }
            progress = true;
        }
        if next == reads.len() {
            let writes_idle = writer.as_ref().is_none_or(|w| w.idle());
            if pending == 0 && writes_idle {
                // End on the base state, so the daemon serves the
                // snapshot's graph again.
                match writer.as_mut() {
                    Some(w) if w.batches % 2 == 1 && !restoring => {
                        restoring = true;
                        w.send_batch(Instant::now())?;
                        continue;
                    }
                    _ => break,
                }
            }
            let until = *drain_until.get_or_insert(now + drain);
            if now >= until {
                break;
            }
        }
        if !progress {
            let wait = reads
                .get(next)
                .map_or(POLL, |r| r.due.saturating_duration_since(Instant::now()));
            std::thread::sleep(wait.min(POLL));
        }
    }
    let mut out = writer.map(|w| w.out).unwrap_or_default();
    if restoring {
        // The restoring batch is not part of the measured schedule.
        out.ms.pop();
        out.ping_us.pop();
    }
    Ok((reads, out))
}

/// Parses `<n> <name>` counts from the `stats` opcode's report line
/// that starts with `prefix`.
fn stat(stats: &str, prefix: &str, name: &str) -> f64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .and_then(|rest| {
            rest.split(',').map(str::trim).find_map(|part| {
                part.strip_suffix(name)
                    .and_then(|n| n.trim().parse::<f64>().ok())
            })
        })
        .unwrap_or(0.0)
}

pub fn run(ctx: &Ctx) -> Result<(Report, u64, u64), String> {
    let p = &ctx.params;
    let csqd = ctx.csqd.clone().ok_or("serve_mixed needs --csqd")?;
    let path = yago_snapshot(p, &ctx.data).map_err(|e| e.to_string())?;
    let g = cs_graph::snapshot::load_from(&path).map_err(|e| e.to_string())?;
    let pool = build_pool(ctx, &g)?;
    let limit_ms = p.f64("latency_limit_ms");
    let rate = p.f64("read_rate");
    let deadline_ms = p.u64("deadline_ms") as u32;
    let mut rep = Report::default();

    // Set-up: start to first ping, several times; the last daemon serves.
    let mut setups = Vec::new();
    let mut daemon = None;
    let warm = p.usize("setup_warmup");
    for i in 0..warm + p.usize("setup_repeats") {
        if i == warm {
            setups.clear();
        }
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let t0 = Instant::now();
        let d = Daemon::start(&csqd, &path)?;
        let mut c = Client::connect(&d.addr).map_err(|e| e.to_string())?;
        c.ping().map_err(|e| e.to_string())?;
        setups.push(t0.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.ok_or("setup_repeats must be at least 1")?;
    let mut tr = Tracer::new();
    let result = serve_phase(
        ctx,
        &daemon,
        &pool,
        rate,
        deadline_ms,
        limit_ms,
        &mut rep,
        &mut tr,
    );
    let rss = crate::util::vm_hwm_mb(Some(daemon.child.id()));
    Daemon::stop(daemon);
    let (attempted, failed) = result?;

    if !ctx.trace {
        rep.add(
            "setup_s",
            median(&setups),
            "s",
            format!("csqd start to first ping, median of {}", setups.len()),
        );
        rep.add("peak_rss_mb", rss, "MiB", "VmHWM of csqd");
    } else {
        let open: Vec<f64> = setups.iter().map(|s| s * 1e3).collect();
        rep.add(
            "graph.open_ms",
            median(&open),
            "ms",
            "csqd start to first ping, median of set-ups",
        );
        let t0 = Instant::now();
        drop(crate::graphs::yago_graph(p));
        rep.add(
            "graph.generate_ms",
            t0.elapsed().as_secs_f64() * 1e3,
            "ms",
            "yago_like + CDF forest, one build",
        );
        rep.add(
            "graph.clone_ms",
            layers::clone_ms(&g, 5),
            "ms",
            "Graph::clone of the served graph, median of 5",
        );
        let toggles: Vec<_> = pool
            .toggles
            .iter()
            .map(|(a, b)| {
                let n = |l: &str| g.node_by_label(l).expect("toggle endpoints exist");
                (n(a), "knows", n(b))
            })
            .collect();
        rep.add(
            "graph.apply_us",
            layers::apply_us(&g, &toggles, 120),
            "us",
            "Graph::apply per toggle batch, median",
        );
        probe_phase(ctx, &g, &pool, &mut rep, &mut tr)?;
    }
    Ok((rep, attempted, failed))
}

/// The served part of a run: warm-up, the open loop beside the writer,
/// answer checks and the serving metrics.
#[allow(clippy::too_many_arguments)]
fn serve_phase(
    ctx: &Ctx,
    daemon: &Daemon,
    pool: &Pool,
    rate: f64,
    deadline_ms: u32,
    limit_ms: f64,
    rep: &mut Report,
    tr: &mut Tracer,
) -> Result<(u64, u64), String> {
    let p = &ctx.params;
    let zipf = Zipf::new(pool.queries.len(), p.f64("zipf_s"));
    let mut warm_rng = Rng::derive(ctx.seed, "serve-warmup");
    let warm: Vec<usize> = (0..(rate * p.f64("warmup_s")) as usize)
        .map(|_| zipf.draw(&mut warm_rng))
        .collect();
    drive(
        &daemon.addr,
        pool,
        &warm,
        rate,
        deadline_ms,
        None,
        Duration::from_secs(5),
    )?;

    let mut rng = Rng::derive(ctx.seed, "serve-reads");
    let n = (rate * ctx.seconds) as usize;
    let picks: Vec<usize> = (0..n).map(|_| zipf.draw(&mut rng)).collect();
    let stats_text = || -> Result<String, String> {
        Client::connect(&daemon.addr)
            .map_err(|e| e.to_string())?
            .stats()
            .map_err(|e| e.to_string())
    };
    let before = stats_text()?;
    let interval = Duration::from_secs_f64(p.f64("write_interval_ms") / 1e3);
    let (reads, writes) = drive(
        &daemon.addr,
        pool,
        &picks,
        rate,
        deadline_ms,
        Some(interval),
        Duration::from_secs(10),
    )?;
    for e in writes.errors.iter().take(3) {
        rep.fail(e.clone());
    }
    let stats = stats_text()?;
    // Counters of the measured phase only (the warm-up came before).
    let delta = |prefix: &str, name: &str| stat(&stats, prefix, name) - stat(&before, prefix, name);

    // Check every read against the reference of either toggle state.
    let mut lat = Vec::new();
    let mut late = Vec::new();
    let (mut good, mut in_slo, mut shown) = (0usize, 0usize, 0);
    let mut server_ms = Vec::new();
    for (i, r) in reads.iter().enumerate() {
        if let (true, Some(sent), Some(done)) = (ctx.trace, r.sent, r.done) {
            // Spans of served reads are recorded from the loop's own
            // timestamps after it ends, so tracing adds no work while
            // reads are in flight.
            let root = tr.record("read", None, i as u64, r.due, done);
            tr.record("loadgen.late", Some(root), i as u64, r.due, sent);
            tr.record("server.reply", Some(root), i as u64, sent, done);
        }
        let ms = r.done.map(|d| (d - r.due).as_secs_f64() * 1e3);
        if let Some(sent) = r.sent {
            late.push((sent - r.due).as_secs_f64() * 1e3);
        }
        let ok = match &r.answer {
            Some(Ok(d)) => [&pool.ref_base[r.query], &pool.ref_toggled[r.query]]
                .iter()
                .any(|w| matches!(w, Ok(x) if x == d)),
            _ => false,
        };
        if ok {
            good += 1;
            if ms.is_some_and(|m| m <= limit_ms) {
                in_slo += 1;
            }
        } else if shown < 3 {
            shown += 1;
            rep.fail(format!(
                "wrong or failed read of {}: {:?}",
                pool.queries[r.query].text, r.answer
            ));
        }
        if let Some(m) = ms {
            lat.push(m);
        }
        if let (Some(sent), Some(done)) = (r.sent, r.done) {
            server_ms.push((done - sent).as_secs_f64() * 1e3 - pool.exec_ms[r.query]);
        }
    }
    let failed = (reads.len() - good) as u64 + writes.failed;
    let attempted = (reads.len() + writes.ms.len()) as u64;
    let late_p99 = quantile_sorted(&sorted(&late), 0.99);
    if late_p99 > limit_ms {
        rep.fail(format!(
            "the load generator fell behind its schedule: late p99 {late_p99:.3} ms exceeds the {limit_ms} ms limit"
        ));
    }
    let knows_share = ratio(
        reads
            .iter()
            .filter(|r| observes_knows(&pool.queries[r.query].template))
            .count() as f64,
        reads.len() as f64,
    );
    rep.notes.push(format!(
        "{} reads offered at {rate}/s, {:.3} of them observe `knows`; {} write batches",
        reads.len(),
        knows_share,
        writes.ms.len()
    ));
    rep.notes
        .push(format!("csqd stats: {}", stats.replace('\n', " | ")));
    if !ctx.trace {
        // From the first scheduled send to the last reply: an open loop
        // that keeps up answers at the offered rate; one that falls
        // behind stretches the window.
        let window = match (reads.first(), reads.iter().filter_map(|r| r.done).max()) {
            (Some(first), Some(last)) => (last - first.due).as_secs_f64(),
            _ => ctx.seconds,
        };
        rep.add(
            "qps",
            good as f64 / window,
            "1/s",
            format!("{good} correct answers in {window:.3} s from first send to last reply"),
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
            format!(
                "correct within {limit_ms} ms of the scheduled send, of {} reads",
                reads.len()
            ),
        );
        rep.percentile("write_p50_ms", &writes.ms, 0.5, "ms");
        rep.percentile("write_p90_ms", &writes.ms, 0.9, "ms");
        rep.add(
            "error_rate",
            ratio(failed as f64, attempted as f64),
            "frac",
            format!("{failed} failed of {attempted} attempted"),
        );
    } else {
        let ping = median(&writes.ping_us);
        rep.add(
            "server.ping_rtt_us",
            ping,
            "us",
            format!("ping after each write batch, n={}", writes.ping_us.len()),
        );
        let wait: Vec<f64> = server_ms.iter().map(|m| m - ping / 1e3).collect();
        rep.add(
            "server.wait_ms",
            median(&wait),
            "ms",
            "ESTIMATE: reply latency - in-process execute time of the same query - ping RTT, median",
        );
        rep.add(
            "server.rejected",
            delta("served:", "rejected"),
            "count",
            "stats opcode, measured phase",
        );
        rep.add(
            "server.deadline_exceeded",
            delta("served:", "deadline_exceeded"),
            "count",
            "stats opcode, measured phase",
        );
        let (h, m, s) = (
            delta("result_cache:", "hits"),
            delta("result_cache:", "misses"),
            delta("result_cache:", "subsumed"),
        );
        rep.add(
            "server.result_cache_hits",
            h,
            "count",
            "stats opcode, measured phase",
        );
        rep.add(
            "server.result_cache_misses",
            m,
            "count",
            "stats opcode, measured phase",
        );
        rep.add(
            "server.result_cache_subsumed",
            s,
            "count",
            "stats opcode, measured phase",
        );
        rep.add(
            "eql.result_cache_hit_rate",
            ratio(h, h + m + s),
            "frac",
            "shared cache of csqd, stats opcode",
        );
        rep.add(
            "eql.result_cache_subsumed_rate",
            ratio(s, h + m + s),
            "frac",
            "shared cache of csqd, stats opcode",
        );
        rep.add(
            "trace.overhead_frac",
            good as f64 / ctx.seconds / rate,
            "ratio",
            "traced qps / offered rate (an open loop's untraced qps at a rate it sustains)",
        );
    }
    rep.add(
        "loadgen.late_p99_ms",
        late_p99,
        "ms",
        format!("send time minus scheduled time, n={}", late.len()),
    );
    Ok((attempted, failed))
}

/// The traced run's in-process side: the pool's reads replayed through
/// a default `Session` over the same snapshot graph (for the `eql.*`
/// call timings and plan-cache rate), then the engine and core probes.
fn probe_phase(
    ctx: &Ctx,
    g: &Graph,
    pool: &Pool,
    rep: &mut Report,
    tr: &mut Tracer,
) -> Result<(), String> {
    let p = &ctx.params;
    let session = Session::new(g);
    let zipf = Zipf::new(pool.queries.len(), p.f64("zipf_s"));
    let mut rng = Rng::derive(ctx.seed, "serve-reads");
    let mut totals = EqlTotals::default();
    for req in 0..p.u64("probe_queries") {
        let q = &pool.queries[zipf.draw(&mut rng)];
        traced_query(tr, &session, q, req + (1 << 40), &mut totals)?;
    }
    let mut eql = Report::default();
    layers::report_eql(&mut eql, tr, &totals);
    for m in eql.metrics {
        // The result-cache rates come from csqd's shared cache.
        if rep.get(&m.name).is_none() {
            rep.metrics.push(m);
        }
    }
    let list: Vec<&Query> = pool.queries.iter().take(p.usize("probe_queries")).collect();
    let mut rows = 0u64;
    for q in &list {
        rows += Session::with_options(g, crate::check::reference_options())
            .run(&q.text)
            .map_err(|e| e.to_string())?
            .rows() as u64;
    }
    let mut probe = layers::Probe::default();
    layers::probe(&mut probe, tr, g, &list, 1, 1 << 32);
    layers::report_probe(rep, tr, &probe, rows);
    let spans = ctx
        .data
        .join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    tr.write_jsonl(&spans).map_err(|e| e.to_string())?;
    rep.notes
        .push(format!("spans written to {}", spans.display()));
    Ok(())
}
