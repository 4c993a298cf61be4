//! Bit-identity pins for built DAGs.
//!
//! Every DAG the generator, the Montage builder and the text reader
//! produce is reduced to a digest of everything a scheduler can observe:
//! per-task parent and child order with the exact bits of each
//! communication cost, the topological order, the levels, the cached
//! critical-path quantities and MCP's priority order. The digests are
//! committed in `tests/fixtures/dag_identity.tsv`; a change to the DAG
//! storage or the builder must leave every one of them unchanged.
//!
//! Regenerate after an intentional change with
//! `RSG_UPDATE_GOLDEN=1 cargo test --test dag_identity`.

use rsg::dag::io::{read_dag, write_dag};
use rsg::dag::{Dag, RandomDagSpec};
use std::path::Path;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|&x| self.f64(x));
    }
}

fn digest(dag: &Dag) -> u64 {
    let mut d = Digest::new();
    d.word(dag.len() as u64);
    d.word(dag.edge_count() as u64);
    d.f64(dag.reference_clock_mhz());
    dag.name().bytes().for_each(|b| d.word(u64::from(b)));
    for t in dag.tasks() {
        d.f64(dag.comp(t));
        d.word(u64::from(dag.level(t)));
        for side in [dag.parents(t), dag.children(t)] {
            d.word(side.len() as u64);
            for e in side {
                d.word(u64::from(e.task.0));
                d.f64(e.comm);
            }
        }
    }
    dag.topological_order()
        .iter()
        .for_each(|t| d.word(u64::from(t.0)));
    dag.level_sizes().iter().for_each(|&s| d.word(u64::from(s)));
    let cp = dag.critical_path();
    d.f64s(&cp.bottom_level);
    d.f64s(&cp.top_level);
    d.f64s(&cp.static_level);
    d.f64(cp.cp);
    dag.mcp_order().iter().for_each(|&t| d.word(u64::from(t)));
    d.0
}

fn spec(size: usize, ccr: f64, parallelism: f64, density: f64, regularity: f64) -> RandomDagSpec {
    RandomDagSpec {
        size,
        ccr,
        parallelism,
        density,
        regularity,
        mean_comp: 40.0,
    }
}

/// (spec, seed) pairs spanning chains, bags, sparse and dense shapes;
/// the last one is the dense 800-task case (about 100k edges).
fn generated() -> Vec<(RandomDagSpec, u64)> {
    vec![
        (spec(1, 1.0, 0.5, 0.5, 0.5), 1),
        (spec(7, 0.5, 0.5, 0.5, 0.5), 42),
        (spec(50, 0.5, 0.0, 1.0, 1.0), 2),
        (spec(50, 0.5, 1.0, 1.0, 1.0), 2),
        (spec(100, 0.01, 0.3, 0.1, 0.2), 3),
        (spec(100, 10.0, 0.7, 0.9, 0.9), 4),
        (spec(120, 0.4, 0.6, 0.5, 0.5), 9),
        (spec(200, 1.0, 0.5, 0.25, 0.01), 5),
        (spec(300, 0.1, 0.6, 0.6, 0.5), 6),
        (spec(300, 2.0, 0.45, 1.0, 1.0), 7),
        (spec(400, 0.5, 0.8, 0.3, 0.7), 8),
        (spec(447, 0.5, 0.5, 0.5, 0.5), 42),
        (spec(500, 0.3, 0.6, 0.4, 0.8), 7),
        (spec(500, 0.3, 0.6, 0.4, 0.8), 8),
        (spec(600, 5.0, 0.55, 0.15, 0.3), 10),
        (spec(800, 0.5, 0.6, 0.3, 0.5), 13),
        (spec(800, 1.0, 0.5, 0.75, 0.6), 14),
        (spec(1000, 0.5, 0.6, 0.1, 1.0), 5),
        (spec(2000, 0.1, 0.7, 0.2, 0.8), 1),
        (spec(800, 1.0, 0.75, 1.0, 0.9), 15),
    ]
}

/// `name<TAB>tasks<TAB>edges<TAB>digest` for every pinned DAG.
fn table() -> String {
    let mut rows: Vec<(String, Dag)> = generated()
        .into_iter()
        .map(|(s, seed)| {
            let dag = s.generate(seed);
            (format!("{}#{seed}", dag.name()), dag)
        })
        .collect();
    rows.push((
        "montage_1629_actual".into(),
        rsg::dag::montage::montage_1629_actual(),
    ));
    let written = spec(300, 0.7, 0.6, 0.5, 0.5).generate(21);
    rows.push((
        format!("read_dag(write_dag({}#21))", written.name()),
        read_dag(&write_dag(&written)).expect("written DAGs read back"),
    ));
    rows.iter()
        .map(|(name, dag)| {
            format!(
                "{name}\t{}\t{}\t{:016x}\n",
                dag.len(),
                dag.edge_count(),
                digest(dag)
            )
        })
        .collect()
}

#[test]
fn built_dags_match_their_pinned_digests() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/dag_identity.tsv");
    let actual = table();
    if std::env::var_os("RSG_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with RSG_UPDATE_GOLDEN=1)", path.display()));
    assert_eq!(
        actual, want,
        "built DAGs drifted from their pinned digests — if the change is \
         intentional, regenerate with RSG_UPDATE_GOLDEN=1"
    );
}
