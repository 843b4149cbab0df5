//! Workload parameters. Their single source is `perfbench/workloads.json`;
//! `run.py` passes each one as `--set key=value`. A missing or malformed
//! parameter is a defect of that file, so the getters panic with its name.

use std::collections::BTreeMap;

#[derive(Clone, Default)]
pub struct Params(pub BTreeMap<String, String>);

impl Params {
    pub fn get(&self, key: &str) -> &str {
        match self.0.get(key) {
            Some(v) => v,
            None => panic!("missing workload parameter `{key}`"),
        }
    }

    fn parse<T: std::str::FromStr>(&self, key: &str) -> T {
        let raw = self.get(key);
        match raw.parse() {
            Ok(v) => v,
            Err(_) => panic!("parameter `{key}` has a bad value {raw:?}"),
        }
    }

    pub fn usize(&self, key: &str) -> usize {
        self.parse(key)
    }

    pub fn u64(&self, key: &str) -> u64 {
        self.parse(key)
    }

    pub fn f64(&self, key: &str) -> f64 {
        self.parse(key)
    }

    /// A `name:weight,name:weight` list.
    pub fn weights(&self, key: &str) -> Vec<(String, usize)> {
        self.get(key)
            .split(',')
            .map(|part| {
                let (name, w) = part.split_once(':').unwrap_or((part, "1"));
                match w.trim().parse() {
                    Ok(w) => (name.trim().to_string(), w),
                    Err(_) => panic!("bad weight in `{key}`: {part:?}"),
                }
            })
            .collect()
    }
}
