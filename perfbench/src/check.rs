//! Answer checking. Every answer is reduced to a digest of its canonical
//! rendering and compared with the digest a fresh, cache-off, sequential
//! `Session` produces for the same query on the same graph.

use cs_eql::{ExecOptions, ResultCacheMode, Session};
use cs_graph::Graph;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Digest of a rendered result (`QueryResult::render`, or the text of a
/// `csqd` reply) that ignores what the answer does not fix: row order,
/// and the order of a tree's edges (edge ids, and so that order, change
/// when an edge is removed and inserted again).
pub fn digest(rendered: &str) -> u64 {
    let mut lines = rendered.lines();
    let header = lines.next().unwrap_or("");
    let mut rows: Vec<String> = lines
        .map(|row| {
            row.split('\t')
                .map(
                    |cell| match cell.strip_prefix('[').and_then(|c| c.strip_suffix(']')) {
                        Some(tree) => {
                            let mut edges: Vec<&str> = tree.split(" ; ").collect();
                            edges.sort_unstable();
                            format!("[{}]", edges.join(" ; "))
                        }
                        None => cell.to_string(),
                    },
                )
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect();
    rows.sort_unstable();
    let mut h = DefaultHasher::new();
    header.hash(&mut h);
    rows.hash(&mut h);
    h.finish()
}

/// The options of the reference session: no result cache, sequential
/// search, everything else default.
pub fn reference_options() -> ExecOptions {
    ExecOptions {
        result_cache: ResultCacheMode::Off,
        threads: 1,
        search_threads: 1,
        ..ExecOptions::default()
    }
}

/// The reference digest of `text` on `g`, from a fresh session.
pub fn reference(g: &Graph, text: &str) -> Result<u64, String> {
    let session = Session::with_options(g, reference_options());
    let r = session.run(text).map_err(|e| e.to_string())?;
    Ok(digest(&r.render(g)))
}
