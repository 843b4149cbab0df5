//! Query templates. Each template yields the EQL text the program
//! receives and, from the same description, the BGP components and CTP
//! seeds the traced run hands to `cs_engine` and `cs_core` directly.
//! Constants are drawn from the run seed; where a template needs a
//! non-empty seed set or a reachable target, the draw walks the graph so
//! that no query fails.

use crate::graphs::CtpGraph;
use crate::params::Params;
use crate::util::Rng;
use cs_core::Filters;
use cs_engine::{pattern_components, Bgp, Term, TriplePattern};
use cs_graph::{Graph, NodeId, Predicate};

/// One position of a pattern or CTP: a variable or a node/edge label.
#[derive(Clone)]
pub enum T {
    V(&'static str),
    C(String),
}

fn c(s: impl Into<String>) -> T {
    T::C(s.into())
}

/// A CTP clause: seed terms, output variable and filters.
pub struct Ctp {
    pub terms: Vec<T>,
    pub out: &'static str,
    pub labels: Vec<&'static str>,
    pub max: Option<usize>,
    pub limit: Option<usize>,
    pub uni: bool,
}

impl Ctp {
    fn new(terms: Vec<T>, out: &'static str) -> Ctp {
        Ctp {
            terms,
            out,
            labels: Vec::new(),
            max: None,
            limit: None,
            uni: false,
        }
    }

    pub fn filters(&self) -> Filters {
        let mut f = Filters::none();
        if !self.labels.is_empty() {
            f = f.with_labels(self.labels.iter().copied());
        }
        if let Some(m) = self.max {
            f = f.with_max_edges(m);
        }
        if let Some(k) = self.limit {
            f = f.with_max_results(k);
        }
        if self.uni {
            f = f.uni();
        }
        f
    }
}

/// One generated query.
pub struct Query {
    pub template: String,
    /// Index of the graph (and session) it runs on.
    pub target: usize,
    pub text: String,
    pub patterns: Vec<[T; 3]>,
    pub ctps: Vec<Ctp>,
}

impl Query {
    fn new(
        template: &str,
        target: usize,
        select: &[&str],
        patterns: Vec<[T; 3]>,
        ctps: Vec<Ctp>,
    ) -> Query {
        let text = render(select, &patterns, &ctps);
        Query {
            template: template.to_string(),
            target,
            text,
            patterns,
            ctps,
        }
    }

    /// The BGP components (Def. 2.4) of the edge patterns, as
    /// `cs_engine` evaluates them: constants become hidden variables
    /// with a label predicate, exactly as the EQL parser lowers them.
    pub fn bgps(&self) -> Vec<Bgp> {
        let mut hidden = 0usize;
        let mut term = |t: &T| match t {
            T::V(v) => Term::var(v),
            T::C(label) => {
                hidden += 1;
                Term::pred(&format!("_bench{hidden}"), Predicate::label(label))
            }
        };
        let lowered: Vec<TriplePattern> = self
            .patterns
            .iter()
            .map(|[s, e, d]| TriplePattern {
                src: term(s),
                edge: term(e),
                dst: term(d),
            })
            .collect();
        pattern_components(&lowered)
            .into_iter()
            .map(|comp| {
                let mut b = Bgp::new();
                for i in comp {
                    let p = &lowered[i];
                    b.push(p.src.clone(), p.edge.clone(), p.dst.clone());
                }
                b
            })
            .collect()
    }
}

fn term_text(t: &T) -> String {
    match t {
        T::V(v) => v.to_string(),
        T::C(s) => format!("{s:?}"),
    }
}

fn render(select: &[&str], patterns: &[[T; 3]], ctps: &[Ctp]) -> String {
    let mut body: Vec<String> = patterns
        .iter()
        .map(|p| {
            format!(
                "({})",
                p.iter().map(term_text).collect::<Vec<_>>().join(", ")
            )
        })
        .collect();
    for ctp in ctps {
        let seeds: Vec<String> = ctp.terms.iter().map(term_text).collect();
        let mut clause = format!("CONNECT({} -> {})", seeds.join(", "), ctp.out);
        if !ctp.labels.is_empty() {
            let labels: Vec<String> = ctp.labels.iter().map(|l| format!("{l:?}")).collect();
            clause.push_str(&format!(" LABEL {}", labels.join(", ")));
        }
        if let Some(m) = ctp.max {
            clause.push_str(&format!(" MAX {m}"));
        }
        if let Some(k) = ctp.limit {
            clause.push_str(&format!(" LIMIT {k}"));
        }
        if ctp.uni {
            clause.push_str(" UNI");
        }
        body.push(clause);
    }
    format!(
        "SELECT {} WHERE {{ {} }}",
        select.join(", "),
        body.join(" ")
    )
}

/// A weighted, seeded mix: each cycle holds every item as many times as
/// its weight, in a shuffled order, so the realised mix of a run is
/// exact rather than sampled. Items are template names, or the pool
/// indices of one template.
pub struct Mix<T = String> {
    slots: Vec<T>,
    pos: usize,
    rng: Rng,
}

impl<T: Clone> Mix<T> {
    pub fn new(weights: &[(T, usize)], rng: Rng) -> Mix<T> {
        let slots = weights
            .iter()
            .flat_map(|(item, w)| std::iter::repeat_n(item.clone(), *w))
            .collect();
        let mut m = Mix { slots, pos: 0, rng };
        m.rng.shuffle(&mut m.slots);
        m
    }

    pub fn next(&mut self) -> T {
        if self.pos == self.slots.len() {
            self.rng.shuffle(&mut self.slots);
            self.pos = 0;
        }
        self.pos += 1;
        self.slots[self.pos - 1].clone()
    }
}

// ---------------------------------------------------------------- ctp_*

/// The distinct queries of the `ctp_*` workloads: one figure query per
/// family graph, plus m=2 and m=3 seed tuples on the random graph. The
/// tuples are drawn from `tuple_seed`, not the run seed: their search
/// costs are heavy-tailed, and a fresh draw per run moved qps by about
/// ±20% between seeds.
pub fn ctp_pool(graphs: &[CtpGraph], p: &Params) -> Vec<Query> {
    let mut pool = Vec::new();
    for (i, g) in graphs.iter().enumerate() {
        if !g.seeds.is_empty() {
            let terms = g.seeds.iter().map(|s| c(s.clone())).collect();
            pool.push(Query::new(
                g.name,
                i,
                &["w"],
                Vec::new(),
                vec![Ctp::new(terms, "w")],
            ));
        }
    }
    let ri = graphs
        .iter()
        .position(|g| g.name == "random")
        .expect("the random graph is always built");
    let n = graphs[ri].graph.node_count();
    let mut rng = Rng::derive(p.u64("tuple_seed"), "random-tuples");
    for (m, key) in [(2usize, "random_tuples_m2"), (3, "random_tuples_m3")] {
        for _ in 0..p.usize(key) {
            let mut ids: Vec<usize> = Vec::new();
            while ids.len() < m {
                let x = rng.below(n);
                if !ids.contains(&x) {
                    ids.push(x);
                }
            }
            let terms = ids
                .iter()
                .map(|&x| c(graphs[ri].graph.node_label(NodeId::new(x))))
                .collect();
            let mut ctp = Ctp::new(terms, "w");
            ctp.max = Some(p.usize("random_max"));
            pool.push(Query::new(
                &format!("random{m}"),
                ri,
                &["w"],
                Vec::new(),
                vec![ctp],
            ));
        }
    }
    pool
}

// ---------------------------------------------------- eql_yago, serve_mixed

/// Draws constants for the YAGO templates from the graph.
pub struct YagoDraw<'g> {
    g: &'g Graph,
    persons: usize,
    organisations: usize,
    places: usize,
    cdf_nt: usize,
    social: Vec<cs_graph::LabelId>,
}

impl<'g> YagoDraw<'g> {
    pub fn new(g: &'g Graph, p: &Params) -> YagoDraw<'g> {
        YagoDraw {
            g,
            persons: p.usize("persons"),
            organisations: p.usize("organisations"),
            places: p.usize("places"),
            cdf_nt: p.usize("cdf_nt"),
            social: ["knows", "marriedTo"]
                .iter()
                .filter_map(|l| g.label_id(l))
                .collect(),
        }
    }

    fn label(&self, n: NodeId) -> String {
        self.g.node_label(n).to_string()
    }

    /// A random endpoint of a random edge labelled `label` (`src` or dst).
    fn edge_end(&self, label: &str, src: bool, rng: &mut Rng) -> (NodeId, NodeId) {
        let l = self
            .g
            .label_id(label)
            .expect("yago_like emits every relation");
        let e = *rng.pick(self.g.edges_with_label(l));
        let ed = self.g.edge(e);
        if src {
            (ed.src, ed.dst)
        } else {
            (ed.dst, ed.src)
        }
    }

    /// The social neighbours (`knows`/`marriedTo`, either direction).
    fn social_neighbours(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &l in &self.social {
            out.extend(
                self.g
                    .out_edges_labelled(n, l)
                    .iter()
                    .map(|&e| self.g.edge(e).dst),
            );
            out.extend(
                self.g
                    .in_edges_labelled(n, l)
                    .iter()
                    .map(|&e| self.g.edge(e).src),
            );
        }
        out.retain(|&x| x != n);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// A node reached from `n` by a walk of `1..=steps` social edges
    /// (`n` itself when it has no social edge).
    fn walk(&self, n: NodeId, steps: usize, rng: &mut Rng) -> NodeId {
        let mut at = n;
        for _ in 0..1 + rng.below(steps) {
            let next = self.social_neighbours(at);
            if next.is_empty() {
                break;
            }
            at = *rng.pick(&next);
        }
        at
    }

    fn person(&self, rng: &mut Rng) -> String {
        format!("person{}", rng.below(self.persons))
    }

    fn place(&self, rng: &mut Rng) -> String {
        format!("place{}", rng.below(self.places))
    }

    /// One query of template `name`.
    pub fn query(&self, name: &str, rng: &mut Rng) -> Query {
        use T::V;
        let q =
            |sel: &[&str], pats: Vec<[T; 3]>, ctps: Vec<Ctp>| Query::new(name, 0, sel, pats, ctps);
        match name {
            // 1-pattern star over a small relation.
            "located" => q(
                &["o"],
                vec![[V("o"), c("locatedIn"), c(self.place(rng))]],
                vec![],
            ),
            // 1-pattern star with a variable edge: served from the node index.
            "person_edges" => q(
                &["e", "y"],
                vec![[c(self.person(rng)), V("e"), V("y")]],
                vec![],
            ),
            // 2-pattern chain: creators of works about a place.
            "created_about" => q(
                &["x", "w"],
                vec![
                    [V("x"), c("created"), V("w")],
                    [V("w"), c("about"), c(self.place(rng))],
                ],
                vec![],
            ),
            // 2-pattern chain over the large `worksFor` relation.
            "employees_at" => q(
                &["x", "o"],
                vec![
                    [V("x"), c("worksFor"), V("o")],
                    [V("o"), c("locatedIn"), c(self.place(rng))],
                ],
                vec![],
            ),
            // 4-pattern star around an organisation's place.
            "org_place_star" => q(
                &["p", "x", "y", "z"],
                vec![
                    [
                        c(format!("org{}", rng.below(self.organisations))),
                        c("locatedIn"),
                        V("p"),
                    ],
                    [V("x"), c("locatedIn"), V("p")],
                    [V("y"), c("about"), V("p")],
                    [V("z"), c("created"), V("y")],
                ],
                vec![],
            ),
            // 3-pattern person star: three scans of large relations.
            "person_star" => q(
                &["x", "o", "k"],
                vec![
                    [V("x"), c("bornIn"), c(self.place(rng))],
                    [V("x"), c("worksFor"), V("o")],
                    [V("x"), c("citizenOf"), V("k")],
                ],
                vec![],
            ),
            // BGP-bound CTP, m=2, MAX 3, LIMIT: spouses of a person
            // connected socially to someone near one of them.
            "spouse_ctp" => {
                let (spouse, target) = self.edge_end("marriedTo", false, rng);
                let near = self.walk(target, 2, rng);
                let mut ctp = Ctp::new(vec![V("x"), c(self.label(near))], "w");
                ctp.labels = vec!["knows", "marriedTo"];
                ctp.max = Some(3);
                ctp.limit = Some(10);
                q(
                    &["x", "w"],
                    vec![[V("x"), c("marriedTo"), c(self.label(spouse))]],
                    vec![ctp],
                )
            }
            // BGP-bound CTP, m=2, MAX 2, LIMIT: creators of a work
            // connected to a person near one of them.
            "creator_ctp" => {
                let (work, creator) = self.edge_end("created", false, rng);
                let near = self.walk(creator, 1, rng);
                let mut ctp = Ctp::new(vec![V("x"), c(self.label(near))], "w");
                ctp.labels = vec!["knows", "marriedTo", "created"];
                ctp.max = Some(2);
                ctp.limit = Some(10);
                q(
                    &["x", "w"],
                    vec![[V("x"), c("created"), c(self.label(work))]],
                    vec![ctp],
                )
            }
            // Pure CTP, m=3, MAX 3, over the social relations.
            "social_triangle" => loop {
                let hub = NodeId::new(rng.below(self.persons));
                let next = self.social_neighbours(hub);
                if next.len() < 2 {
                    continue;
                }
                let a = *rng.pick(&next);
                let b = self.walk(*rng.pick(&next), 1, rng);
                if b == a || b == hub {
                    continue;
                }
                let mut ctp = Ctp::new(
                    vec![c(self.label(hub)), c(self.label(a)), c(self.label(b))],
                    "w",
                );
                ctp.labels = vec!["knows", "marriedTo"];
                ctp.max = Some(3);
                break q(&["w"], vec![], vec![ctp]);
            },
            // The paper's CDF queries (§5.3, Fig. 13/14) with the top
            // tree pinned to one seeded tree, so constants stay distinct.
            "cdf2" | "cdf2_uni" => {
                let top = format!("T{}.L", rng.below(self.cdf_nt));
                let mut ctp = Ctp::new(vec![V("bl"), V("tl")], "l");
                ctp.max = Some(3);
                ctp.uni = name.ends_with("_uni");
                q(
                    &["v", "tl", "l"],
                    vec![[c(top), c("c"), V("tl")], [V("v"), c("g"), V("bl")]],
                    vec![ctp],
                )
            }
            "cdf3" | "cdf3_uni" => {
                let top = format!("T{}.L", rng.below(self.cdf_nt));
                let mut ctp = Ctp::new(vec![V("tl"), V("bl1"), V("bl2")], "l");
                ctp.max = Some(3);
                ctp.uni = name.ends_with("_uni");
                q(
                    &["v", "tl", "l"],
                    vec![
                        [c(top), c("c"), V("tl")],
                        [V("v"), c("g"), V("bl1")],
                        [V("v"), c("h"), V("bl2")],
                    ],
                    vec![ctp],
                )
            }
            other => panic!("unknown query template {other:?} in workloads.json"),
        }
    }
}

/// True if a template's answers can change when `knows` edges change.
pub fn observes_knows(template: &str) -> bool {
    matches!(
        template,
        "person_edges" | "spouse_ctp" | "creator_ctp" | "social_triangle"
    )
}
