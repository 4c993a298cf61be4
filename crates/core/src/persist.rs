//! Model persistence: a small self-describing TSV format for trained
//! models, so a model trained once (hours at paper scale) can be
//! reused across sessions and shipped alongside the library.
//!
//! Payload format, line-oriented:
//!
//! ```text
//! rsg-size-model<TAB>v1
//! theta<TAB>0.001
//! sizes<TAB>100<TAB>500<TAB>1000
//! ccrs<TAB>0.01<TAB>0.1
//! fit<TAB><si><TAB><ci><TAB><a><TAB><b><TAB><c>
//! ...
//! end
//! ```
//!
//! A [`ThresholdedSizeModel`] is a concatenation of sections.
//!
//! Decoding never trusts its input: every failure is a typed
//! [`StoreError`] carrying the artifact family and the 1-based line
//! number of the offending line — never a panic, and never a silently
//! misplaced value (cell indices are bounds-checked per axis).
//!
//! On disk a payload only ever travels inside the checksummed
//! `rsg-artifact` envelope of [`crate::store`], tagged with its kind
//! ([`SIZE_MODEL_KIND`], [`HEUR_MODEL_KIND`]);
//! byte-level damage is caught before these decoders ever run. A bare
//! payload file is not an artifact and no loader accepts it.
//! [`load_model_dir`] is the one rule that finds a deployment's models.

use crate::heurmodel::HeuristicPredictionModel;
use crate::planefit::PlaneFit;
use crate::sizemodel::{SizePredictionModel, ThresholdedSizeModel};
use crate::store::{read_artifact, StoreError};
use std::path::{Path, PathBuf};

impl SizePredictionModel {
    /// Serializes the model.
    pub fn to_tsv(&self) -> String {
        let (sizes, ccrs) = self.axes();
        let mut out = String::from("rsg-size-model\tv1\n");
        out.push_str(&format!("theta\t{}\n", self.theta));
        out.push_str("sizes");
        for s in sizes {
            out.push_str(&format!("\t{s}"));
        }
        out.push('\n');
        out.push_str("ccrs");
        for c in ccrs {
            out.push_str(&format!("\t{c}"));
        }
        out.push('\n');
        for si in 0..sizes.len() {
            for ci in 0..ccrs.len() {
                let f = self.plane(si, ci);
                out.push_str(&format!("fit\t{si}\t{ci}\t{}\t{}\t{}\n", f.a, f.b, f.c));
            }
        }
        out.push_str("end\n");
        out
    }

    /// Decodes one model section starting at `lines`; returns the model
    /// and the number of lines consumed. Parse errors report 1-based
    /// line numbers relative to the start of the slice.
    pub fn from_tsv_lines(lines: &[&str]) -> Result<(SizePredictionModel, usize), StoreError> {
        const ART: &str = SIZE_MODEL_KIND;
        let mut i = 0usize;
        let next = |i: &mut usize| -> Result<&str, StoreError> {
            let l = lines
                .get(*i)
                .ok_or_else(|| StoreError::parse(ART, *i + 1, "unexpected end of document"))?;
            *i += 1;
            Ok(l)
        };
        let header = next(&mut i)?;
        if !header.starts_with("rsg-size-model\tv1") {
            return Err(StoreError::parse(ART, i, format!("bad header '{header}'")));
        }
        let theta_line = next(&mut i)?;
        let theta: f64 = theta_line
            .strip_prefix("theta\t")
            .ok_or_else(|| StoreError::parse(ART, i, "missing theta"))?
            .parse()
            .map_err(|_| StoreError::parse(ART, i, "bad theta"))?;
        let parse_axis = |line: &str, lno: usize, tag: &str| -> Result<Vec<f64>, StoreError> {
            let rest = line
                .strip_prefix(tag)
                .ok_or_else(|| StoreError::parse(ART, lno, format!("missing {tag}")))?;
            let vals: Vec<f64> = rest
                .split('\t')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse::<f64>()
                        .map_err(|_| StoreError::parse(ART, lno, format!("bad {tag} value '{s}'")))
                })
                .collect::<Result<_, _>>()?;
            if vals.is_empty() {
                return Err(StoreError::parse(ART, lno, format!("empty {tag} axis")));
            }
            Ok(vals)
        };
        let sizes = parse_axis(next(&mut i)?, i, "sizes")?;
        let ccrs = parse_axis(next(&mut i)?, i, "ccrs")?;
        let mut fits = vec![
            PlaneFit {
                a: 0.0,
                b: 0.0,
                c: 0.0
            };
            sizes.len() * ccrs.len()
        ];
        let mut seen = 0usize;
        loop {
            let line = next(&mut i)?;
            if line == "end" {
                break;
            }
            let mut parts = line.split('\t');
            if parts.next() != Some("fit") {
                return Err(StoreError::parse(
                    ART,
                    i,
                    format!("expected fit line, got '{line}'"),
                ));
            }
            let mut num = |lno: usize| -> Result<f64, StoreError> {
                parts
                    .next()
                    .ok_or_else(|| StoreError::parse(ART, lno, "short fit line"))?
                    .parse()
                    .map_err(|_| StoreError::parse(ART, lno, "bad fit number"))
            };
            let si = num(i)? as usize;
            let ci = num(i)? as usize;
            let (a, b, c) = (num(i)?, num(i)?, num(i)?);
            // Bounds-check each axis separately: a line like
            // `fit 0 99 …` with a small combined index must not land
            // in another cell's slot.
            if si >= sizes.len() || ci >= ccrs.len() {
                return Err(StoreError::parse(
                    ART,
                    i,
                    format!(
                        "fit index ({si}, {ci}) outside the {}x{} grid",
                        sizes.len(),
                        ccrs.len()
                    ),
                ));
            }
            fits[si * ccrs.len() + ci] = PlaneFit { a, b, c };
            seen += 1;
        }
        if seen != fits.len() {
            return Err(StoreError::parse(
                ART,
                i,
                format!("expected {} fits, found {seen}", fits.len()),
            ));
        }
        Ok((SizePredictionModel::from_parts(theta, sizes, ccrs, fits), i))
    }

    /// Decodes a single-model document.
    pub fn from_tsv(text: &str) -> Result<SizePredictionModel, StoreError> {
        let lines: Vec<&str> = text.lines().collect();
        let (m, _) = Self::from_tsv_lines(&lines)?;
        Ok(m)
    }
}

impl ThresholdedSizeModel {
    /// Serializes the full threshold ladder.
    pub fn to_tsv(&self) -> String {
        self.models.iter().map(|m| m.to_tsv()).collect()
    }

    /// Decodes a ladder document.
    pub fn from_tsv(text: &str) -> Result<ThresholdedSizeModel, StoreError> {
        let lines: Vec<&str> = text.lines().collect();
        let mut models = Vec::new();
        let mut pos = 0usize;
        while pos < lines.len() {
            if lines[pos].trim().is_empty() {
                pos += 1;
                continue;
            }
            let (m, used) = SizePredictionModel::from_tsv_lines(&lines[pos..])
                .map_err(|e| e.with_line_offset(pos))?;
            models.push(m);
            pos += used;
        }
        if models.is_empty() {
            return Err(StoreError::parse("size-model", 1, "no models in document"));
        }
        models.sort_by(|a, b| a.theta.total_cmp(&b.theta));
        Ok(ThresholdedSizeModel { models })
    }
}

impl HeuristicPredictionModel {
    /// Serializes the heuristic model:
    ///
    /// ```text
    /// rsg-heur-model<TAB>v1
    /// sizes<TAB>...
    /// ccrs<TAB>...
    /// cell<TAB><si><TAB><ci><TAB>MCP:12.5<TAB>FCA:13.1 ...
    /// end
    /// ```
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("rsg-heur-model\tv1\n");
        out.push_str("sizes");
        for s in &self.sizes {
            out.push_str(&format!("\t{s}"));
        }
        out.push('\n');
        out.push_str("ccrs");
        for c in &self.ccrs {
            out.push_str(&format!("\t{c}"));
        }
        out.push('\n');
        for si in 0..self.sizes.len() {
            for ci in 0..self.ccrs.len() {
                let cell = self.cell(si, ci);
                out.push_str(&format!("cell\t{si}\t{ci}"));
                for (h, t) in &cell.optimal_turnaround {
                    out.push_str(&format!("\t{}:{}", h.name(), t));
                }
                out.push('\n');
            }
        }
        out.push_str("end\n");
        out
    }

    /// Decodes a heuristic-model document.
    pub fn from_tsv(text: &str) -> Result<HeuristicPredictionModel, StoreError> {
        use crate::heurmodel::CellResult;
        use rsg_sched::HeuristicKind;
        const ART: &str = HEUR_MODEL_KIND;
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| StoreError::parse(ART, 1, "empty document"))?;
        if !header.starts_with("rsg-heur-model\tv1") {
            return Err(StoreError::parse(ART, 1, format!("bad header '{header}'")));
        }
        let axis = |line: Option<&str>, lno: usize, tag: &str| -> Result<Vec<f64>, StoreError> {
            let line = line.ok_or_else(|| StoreError::parse(ART, lno, format!("missing {tag}")))?;
            let vals: Vec<f64> = line
                .strip_prefix(tag)
                .ok_or_else(|| StoreError::parse(ART, lno, format!("missing {tag}")))?
                .split('\t')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse::<f64>()
                        .map_err(|_| StoreError::parse(ART, lno, format!("bad {tag} value '{s}'")))
                })
                .collect::<Result<_, _>>()?;
            if vals.is_empty() {
                return Err(StoreError::parse(ART, lno, format!("empty {tag} axis")));
            }
            Ok(vals)
        };
        let sizes: Vec<usize> = axis(lines.next(), 2, "sizes")?
            .into_iter()
            .map(|s| s as usize)
            .collect();
        let ccrs = axis(lines.next(), 3, "ccrs")?;
        let mut cells: Vec<Option<CellResult>> = vec![None; sizes.len() * ccrs.len()];
        for (off, line) in lines.enumerate() {
            let lno = off + 4;
            if line == "end" {
                break;
            }
            let mut parts = line.split('\t');
            if parts.next() != Some("cell") {
                return Err(StoreError::parse(
                    ART,
                    lno,
                    format!("expected cell line, got '{line}'"),
                ));
            }
            let si: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| StoreError::parse(ART, lno, "bad cell si"))?;
            let ci: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| StoreError::parse(ART, lno, "bad cell ci"))?;
            let mut optimal_turnaround = Vec::new();
            for pair in parts {
                let (name, t) = pair
                    .split_once(':')
                    .ok_or_else(|| StoreError::parse(ART, lno, format!("bad pair '{pair}'")))?;
                let h = HeuristicKind::parse(name).ok_or_else(|| {
                    StoreError::parse(ART, lno, format!("unknown heuristic '{name}'"))
                })?;
                let t: f64 = t
                    .parse()
                    .map_err(|_| StoreError::parse(ART, lno, format!("bad turnaround '{t}'")))?;
                optimal_turnaround.push((h, t));
            }
            if optimal_turnaround.is_empty() {
                return Err(StoreError::parse(ART, lno, "cell with no heuristics"));
            }
            // Per-axis bounds checks: a bad `ci` with a small combined
            // index must error, not overwrite a different cell.
            if si >= sizes.len() || ci >= ccrs.len() {
                return Err(StoreError::parse(
                    ART,
                    lno,
                    format!(
                        "cell index ({si}, {ci}) outside the {}x{} grid",
                        sizes.len(),
                        ccrs.len()
                    ),
                ));
            }
            cells[si * ccrs.len() + ci] = Some(CellResult {
                size: sizes[si],
                ccr: ccrs[ci],
                optimal_turnaround,
            });
        }
        let cells: Option<Vec<CellResult>> = cells.into_iter().collect();
        let cells = cells.ok_or_else(|| StoreError::parse(ART, 1, "missing cells"))?;
        Ok(HeuristicPredictionModel { sizes, ccrs, cells })
    }
}

impl crate::observation::KneeTable {
    /// Serializes one knee table:
    ///
    /// ```text
    /// rsg-knee-table<TAB>v1
    /// theta<TAB>0.001
    /// sizes<TAB>100<TAB>300
    /// ccrs<TAB>...
    /// alphas<TAB>...
    /// betas<TAB>...
    /// grid<TAB><density><TAB><mean_comp><TAB><instances>
    /// knees<TAB><v0><TAB><v1> ...   (grid-index order)
    /// end
    /// ```
    ///
    /// Floats print in shortest-round-trip form, so two tables
    /// serialize equal exactly when their knees are bit-identical.
    pub fn to_tsv(&self) -> String {
        let g = &self.grid;
        let mut out = String::from("rsg-knee-table\tv1\n");
        out.push_str(&format!("theta\t{}\n", self.theta));
        let axis = |out: &mut String, tag: &str, vals: &[f64]| {
            out.push_str(tag);
            for v in vals {
                out.push_str(&format!("\t{v}"));
            }
            out.push('\n');
        };
        let sizes: Vec<f64> = g.sizes.iter().map(|&s| s as f64).collect();
        axis(&mut out, "sizes", &sizes);
        axis(&mut out, "ccrs", &g.ccrs);
        axis(&mut out, "alphas", &g.alphas);
        axis(&mut out, "betas", &g.betas);
        out.push_str(&format!(
            "grid\t{}\t{}\t{}\n",
            g.density, g.mean_comp, g.instances
        ));
        out.push_str("knees");
        for v in self.knees() {
            out.push_str(&format!("\t{v}"));
        }
        out.push('\n');
        out.push_str("end\n");
        out
    }
}

/// Serializes measured knee tables (one section per threshold, in the
/// given order; see [`KneeTable::to_tsv`](crate::observation::KneeTable::to_tsv)).
pub fn knee_tables_to_tsv(tables: &[crate::observation::KneeTable]) -> String {
    tables.iter().map(|t| t.to_tsv()).collect()
}

/// Artifact kind recorded in size-model envelopes (`rsg train --out`).
pub const SIZE_MODEL_KIND: &str = "size-model";

/// Artifact kind recorded in heuristic-model envelopes
/// (`rsg train-heuristic --out`).
pub const HEUR_MODEL_KIND: &str = "heur-model";

/// Loads a [`ThresholdedSizeModel`] from its envelope on disk.
pub fn load_size_model(path: &Path) -> Result<ThresholdedSizeModel, StoreError> {
    ThresholdedSizeModel::from_tsv(&read_artifact(path, SIZE_MODEL_KIND)?)
}

/// Loads a [`HeuristicPredictionModel`] from its envelope on disk.
pub fn load_heuristic_model(path: &Path) -> Result<HeuristicPredictionModel, StoreError> {
    HeuristicPredictionModel::from_tsv(&read_artifact(path, HEUR_MODEL_KIND)?)
}

/// The `op` of the [`StoreError::Io`] that [`load_model_dir`] returns
/// when the directory holds no size model.
pub const LOCATE_SIZE_MODEL: &str = "locate size model";

/// The models a model directory ships, each with the file it was
/// loaded from.
#[derive(Debug, Clone)]
pub struct ModelDir {
    /// The size model.
    pub size_model: (ThresholdedSizeModel, PathBuf),
    /// The heuristic model, when the directory ships one.
    pub heuristic_model: Option<(HeuristicPredictionModel, PathBuf)>,
}

/// Where [`load_model_dir`] looks: `dir/models` when that is a
/// directory (a whole deployment tree), else `dir` itself.
pub fn model_dir(dir: &Path) -> PathBuf {
    let models = dir.join("models");
    if models.is_dir() {
        models
    } else {
        dir.to_path_buf()
    }
}

/// Finds and loads the models of a model directory or deployment tree
/// — the one discovery rule, shared by the serving registry and
/// `rsg audit`.
///
/// In [`model_dir`]`(dir)`, the size model is the regular file
/// `size_model.tsv`, else the lexicographically first regular file
/// matching `size_model*.tsv`; it is required. The heuristic model
/// (`heur_model.tsv`, else the first `heur_model*.tsv`) is optional.
/// Each must be an `rsg-artifact` envelope of the right kind.
pub fn load_model_dir(dir: &Path) -> Result<ModelDir, StoreError> {
    let dir = model_dir(dir);
    let size_path = find_model_file(&dir, "size_model")?.ok_or_else(|| {
        let e = std::io::Error::other("no size_model*.tsv in the model directory");
        StoreError::io(&dir, LOCATE_SIZE_MODEL, &e)
    })?;
    let size_model = (load_size_model(&size_path)?, size_path);
    let heuristic_model = match find_model_file(&dir, "heur_model")? {
        Some(p) => Some((load_heuristic_model(&p)?, p)),
        None => None,
    };
    Ok(ModelDir {
        size_model,
        heuristic_model,
    })
}

/// `<stem>.tsv` when it is a regular file, else the lexicographically
/// first regular file `<stem>*.tsv`.
fn find_model_file(dir: &Path, stem: &str) -> Result<Option<PathBuf>, StoreError> {
    let list_err = |e| StoreError::io(dir, "list models", &e);
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(list_err)? {
        let path = entry.map_err(list_err)?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if name.starts_with(stem) && name.ends_with(".tsv") && path.is_file() {
            found.push(path);
        }
    }
    let exact = dir.join(format!("{stem}.tsv"));
    if found.contains(&exact) {
        return Ok(Some(exact));
    }
    Ok(found.into_iter().min())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::CurveConfig;
    use crate::observation::{measure, ObservationGrid};

    fn trained() -> ThresholdedSizeModel {
        let grid = ObservationGrid::tiny();
        let tables = measure(&grid, &CurveConfig::default(), &[0.001, 0.05], 0);
        ThresholdedSizeModel::fit(&tables)
    }

    #[test]
    fn round_trip_single_model() {
        let ladder = trained();
        let m = ladder.strictest();
        let text = m.to_tsv();
        let back = SizePredictionModel::from_tsv(&text).unwrap();
        assert_eq!(back.theta, m.theta);
        // Predictions must match bit-for-bit (axes + fits identical).
        for &(n, ccr, a, b) in &[(100.0, 0.01, 0.5, 0.5), (170.0, 0.3, 0.7, 0.9)] {
            assert_eq!(
                back.predict_chars(n, ccr, a, b),
                m.predict_chars(n, ccr, a, b)
            );
        }
    }

    #[test]
    fn round_trip_ladder() {
        let ladder = trained();
        let text = ladder.to_tsv();
        let back = ThresholdedSizeModel::from_tsv(&text).unwrap();
        assert_eq!(back.thresholds(), ladder.thresholds());
        assert_eq!(
            back.strictest().predict_chars(120.0, 0.1, 0.6, 0.5),
            ladder.strictest().predict_chars(120.0, 0.1, 0.6, 0.5)
        );
    }

    #[test]
    fn corrupt_documents_rejected() {
        assert!(SizePredictionModel::from_tsv("").is_err());
        assert!(SizePredictionModel::from_tsv("garbage\t1\n").is_err());
        let good = trained().strictest().to_tsv();
        // Drop the final fit line -> count mismatch.
        let truncated: String = {
            let mut lines: Vec<&str> = good.lines().collect();
            let last_fit = lines.iter().rposition(|l| l.starts_with("fit")).unwrap();
            lines.remove(last_fit);
            lines.join("\n")
        };
        assert!(SizePredictionModel::from_tsv(&truncated).is_err());
        assert!(ThresholdedSizeModel::from_tsv("\n\n").is_err());
    }

    #[test]
    fn decode_errors_carry_typed_context() {
        // An un-parseable theta reports its artifact and line number.
        let e = SizePredictionModel::from_tsv("rsg-size-model\tv1\ntheta\tbogus\n").unwrap_err();
        match e {
            StoreError::Parse { artifact, line, .. } => {
                assert_eq!(artifact, "size-model");
                assert_eq!(line, 2);
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        // Empty axes are rejected before they can panic a later
        // prediction.
        let e = SizePredictionModel::from_tsv("rsg-size-model\tv1\ntheta\t0.1\nsizes\nccrs\t1\n")
            .unwrap_err();
        assert!(e.to_string().contains("empty sizes axis"), "{e}");
    }

    #[test]
    fn out_of_range_axis_indices_rejected() {
        // `fit 0 9 …` has a small combined index on a 2x1 grid (idx 9
        // would wrap into another row if only the flat bound were
        // checked) — it must be a typed error, not a misplaced value.
        let doc = "rsg-size-model\tv1\ntheta\t0.1\nsizes\t10\t20\nccrs\t0.5\n\
                   fit\t0\t9\t1\t1\t1\nend\n";
        let e = SizePredictionModel::from_tsv(doc).unwrap_err();
        assert!(e.to_string().contains("outside"), "{e}");
        let doc = "rsg-heur-model\tv1\nsizes\t10\t20\nccrs\t0.5\ncell\t0\t9\tMCP:1\nend\n";
        let e = crate::heurmodel::HeuristicPredictionModel::from_tsv(doc).unwrap_err();
        assert!(e.to_string().contains("outside"), "{e}");
    }

    #[test]
    fn heuristic_model_round_trip() {
        let mut t = crate::heurmodel::HeuristicTraining::fast();
        t.sizes = vec![50, 200];
        t.instances = 1;
        let m = crate::heurmodel::HeuristicPredictionModel::train(&t, &CurveConfig::default());
        let text = m.to_tsv();
        let back = crate::heurmodel::HeuristicPredictionModel::from_tsv(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.predict_chars(120.0, 0.3), m.predict_chars(120.0, 0.3));
    }

    #[test]
    fn heuristic_model_corrupt_rejected() {
        assert!(crate::heurmodel::HeuristicPredictionModel::from_tsv("").is_err());
        assert!(
            crate::heurmodel::HeuristicPredictionModel::from_tsv(
                "rsg-heur-model\tv1\nsizes\t10\nccrs\t0.1\nend\n"
            )
            .is_err(),
            "missing cells must be rejected"
        );
        assert!(crate::heurmodel::HeuristicPredictionModel::from_tsv(
            "rsg-heur-model\tv1\nsizes\t10\nccrs\t0.1\ncell\t0\t0\tBogus:1\nend\n"
        )
        .is_err());
    }

    #[test]
    fn extra_whitespace_between_sections_ok() {
        let ladder = trained();
        let text = ladder
            .models
            .iter()
            .map(|m| m.to_tsv())
            .collect::<Vec<_>>()
            .join("\n\n");
        let back = ThresholdedSizeModel::from_tsv(&text).unwrap();
        assert_eq!(back.models.len(), ladder.models.len());
    }
}
