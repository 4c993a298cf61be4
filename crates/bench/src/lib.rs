//! # rsg-bench — the paper's evaluation, reproduced
//!
//! Every table and figure of the paper's evaluation (dissertation
//! Chapters IV–VII), the two ablations, the robustness study and the
//! chaos sweep is an experiment: a `fn(Scale) -> String` returning the
//! text it reports, listed under its ID in [`EXPERIMENTS`]. The
//! `reproduce` binary runs them (`reproduce [--scale fast|full] [ID
//! ...]`) and checks the paper's stated bounds ([`claims`]);
//! `results/<ID>.txt` holds each one's fast-scale output, which
//! `tests/reproduce.rs` compares byte for byte. The `serve_chaos`
//! binary is the socket-chaos client of a running daemon. Performance
//! is measured by `perfbench/`, not here.

pub mod beyond;
pub mod chaos;
pub mod chapter4;
pub mod chapter5;
pub mod chapter6;
pub mod chapter7;
pub mod claims;
pub mod experiments;
pub mod report;

pub use experiments::Scale;
pub use report::Table;

/// An experiment: runs at a scale and returns the text it reports.
pub type Experiment = fn(Scale) -> String;

/// Every experiment by ID, in the order `reproduce` runs them. The IDs
/// name the files under `results/`.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig4_5", chapter4::fig4_5),
    ("fig4_6", chapter4::fig4_6),
    ("fig4_7", chapter4::fig4_7),
    ("fig4_9", chapter4::fig4_9),
    ("fig4_10", chapter4::fig4_10),
    ("fig4_11", chapter4::fig4_11),
    ("fig4_12", chapter4::fig4_12),
    ("fig4_13", chapter4::fig4_13),
    ("fig4_14", chapter4::fig4_14),
    ("fig5_2", chapter5::fig5_2),
    ("fig5_3", chapter5::fig5_3),
    ("tab5_2", chapter5::tab5_2),
    ("fig5_4", chapter5::fig5_4),
    ("fig5_5", chapter5::fig5_5),
    ("fig5_6", chapter5::fig5_6),
    ("tab5_5", chapter5::tab5_5),
    ("tab5_6", chapter5::tab5_6),
    ("fig5_7", chapter5::fig5_7),
    ("tab5_7", chapter5::tab5_7),
    ("tab5_9", chapter5::tab5_9),
    ("fig5_8", chapter5::fig5_8),
    ("fig5_10", chapter5::fig5_10),
    ("fig5_16", chapter5::fig5_16),
    ("fig5_18", chapter5::fig5_18),
    ("tab6_1", chapter6::tab6_1),
    ("fig6_1", chapter6::fig6_1),
    ("tab6_2", chapter6::tab6_2),
    ("tab6_3", chapter6::tab6_3),
    ("tab6_4", chapter6::tab6_4),
    ("fig7_3", chapter7::fig7_3),
    ("fig7_6", chapter7::fig7_6),
    ("fig7_7", chapter7::fig7_7),
    ("ablation_refine", beyond::ablation_refine),
    ("ablation_interp", beyond::ablation_interp),
    ("robustness", beyond::robustness),
    ("bench_chaos", chaos::bench_chaos),
];

/// The experiment registered under `id`.
pub fn experiment(id: &str) -> Option<Experiment> {
    EXPERIMENTS.iter().find(|(i, _)| *i == id).map(|&(_, e)| e)
}
