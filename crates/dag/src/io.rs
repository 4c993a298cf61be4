//! DAG file I/O: a minimal line-oriented text format plus Graphviz DOT
//! export.
//!
//! The text format is self-describing and diff-friendly:
//!
//! ```text
//! rsg-dag v1
//! name montage-1629
//! refclock 1500
//! task 0 8.2
//! task 1 2.0
//! edge 0 1 0.0032
//! end
//! ```
//!
//! Task ids must be dense `0..n`; the reference clock must be a positive
//! finite number of MHz. Costs are seconds (reference CPU / reference
//! bandwidth).

use crate::graph::Dag;
use std::fmt;

/// Errors from decoding the DAG text format.
#[derive(Debug, Clone, PartialEq)]
pub struct DagIoError {
    /// 1-based line number.
    pub line: usize,
    /// Message.
    pub msg: String,
}

impl fmt::Display for DagIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dag decode error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for DagIoError {}

pub use crate::graph::RawDag;

/// Decodes the text format without structural validation: syntax errors
/// (bad directives, non-numeric fields, missing `end`) still fail, but
/// cycles, dangling edge endpoints, self-edges, duplicate edges and
/// non-finite costs are preserved in the returned [`RawDag`] so a
/// static analyzer can report them all instead of stopping at the
/// first.
pub fn read_dag_raw(text: &str) -> Result<RawDag, DagIoError> {
    if text.is_empty() {
        return Err(err(1, "empty document"));
    }
    let header_end = text.find('\n').map_or(text.len(), |i| i + 1);
    if text[..header_end].trim() != "rsg-dag v1" {
        return Err(err(1, "expected 'rsg-dag v1' header"));
    }
    let mut raw = RawDag::default();
    let mut f = Cursor {
        text,
        at: header_end,
        line: 2,
    };
    while f.at < text.len() {
        match f.field() {
            None => {}
            Some(comment) if comment.starts_with('#') => {}
            Some("name") => {
                let mut words = Vec::new();
                while let Some(word) = f.field() {
                    words.push(word);
                }
                raw.name = words.join(" ");
            }
            Some("refclock") => {
                raw.ref_clock_mhz = Some(f.cost("refclock needs a value", "bad refclock")?);
            }
            Some("task") => {
                let id = f.id("task needs an id", "bad task id")?;
                if id as usize != raw.tasks.len() {
                    return Err(err(f.line, "task ids must be dense and in order"));
                }
                raw.tasks
                    .push(f.cost("task needs a cost", "bad task cost")?);
            }
            Some("edge") => {
                let p = f.id("edge needs a parent id", "bad edge parent id")?;
                let c = f.id("edge needs a child id", "bad edge child id")?;
                let w = f.cost("edge needs a cost", "bad edge cost")?;
                raw.edges.push((p, c, w));
            }
            Some("end") => return Ok(raw),
            Some(other) => return Err(err(f.line, &format!("unknown directive '{other}'"))),
        }
        f.next_line();
    }
    // The cursor has stepped past every line, the header included.
    Err(err(f.line - 1, "missing 'end'"))
}

fn err(line: usize, msg: &str) -> DagIoError {
    DagIoError {
        line,
        msg: msg.to_string(),
    }
}

/// A byte cursor over a whole document, inside one line of it at a time.
///
/// Lines end at `\n`; a field is a run of characters inside one line
/// that `char::is_whitespace` rejects, which is what `str::lines` and
/// `str::split_whitespace` yield (a `\r` before the `\n` is whitespace).
struct Cursor<'a> {
    text: &'a str,
    /// Byte offset; always a char boundary of `text`.
    at: usize,
    /// The 1-based number of the line `at` is in.
    line: usize,
}

impl<'a> Cursor<'a> {
    /// Skips whitespace; `false` at the end of the line.
    fn space(&mut self) -> bool {
        while let Some((len, space)) = char_at(self.text, self.at) {
            if !space {
                return true;
            }
            self.at += len;
        }
        false
    }

    /// The next field of the current line, or `None` at its end.
    fn field(&mut self) -> Option<&'a str> {
        if !self.space() {
            return None;
        }
        let start = self.at;
        loop {
            self.at = graphic_end(self.text.as_bytes(), self.at);
            match char_at(self.text, self.at) {
                Some((len, false)) => self.at += len,
                _ => break,
            }
        }
        Some(&self.text[start..self.at])
    }

    /// Moves to the start of the next line.
    fn next_line(&mut self) {
        let rest = &self.text.as_bytes()[self.at..];
        self.at += rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| i + 1);
        self.line += 1;
    }

    /// The next field as a task id, parsed where it lies: exactly what
    /// `u32::from_str` accepts (an optional `+`, then decimal digits
    /// that fit in a `u32`); `missing` or `bad` says why not.
    fn id(&mut self, missing: &str, bad: &str) -> Result<u32, DagIoError> {
        if !self.space() {
            return Err(err(self.line, missing));
        }
        let bytes = self.text.as_bytes();
        let first = self.at + usize::from(bytes[self.at] == b'+');
        let mut id = Some(0u32);
        self.at = first;
        while let Some(d) = bytes.get(self.at).and_then(|&b| char::from(b).to_digit(10)) {
            id = id.and_then(|id| id.checked_mul(10)?.checked_add(d));
            self.at += 1;
        }
        match (id, char_at(self.text, self.at)) {
            (Some(id), None | Some((_, true))) if self.at > first => Ok(id),
            _ => Err(err(self.line, bad)),
        }
    }

    /// The next field as an `f64`; `missing` or `bad` says why not.
    fn cost(&mut self, missing: &str, bad: &str) -> Result<f64, DagIoError> {
        let f = self.field().ok_or_else(|| err(self.line, missing))?;
        f.parse().map_err(|_| err(self.line, bad))
    }
}

/// The byte length of the character at `at` and whether it is
/// whitespace; `None` at the end of the line or of the text.
fn char_at(text: &str, at: usize) -> Option<(usize, bool)> {
    match *text.as_bytes().get(at)? {
        b'\n' => None,
        b'\t' | b'\x0b' | b'\x0c' | b'\r' | b' ' => Some((1, true)),
        0..=0x7f => Some((1, false)),
        _ => Some(wide_char_at(text, at)),
    }
}

/// [`char_at`] for a character of two to four bytes. Kept out of line
/// so the ASCII cases inline into the cursor's loops.
#[cold]
fn wide_char_at(text: &str, at: usize) -> (usize, bool) {
    let c = text[at..].chars().next().unwrap_or_default();
    (c.len_utf8(), c.is_whitespace())
}

/// The offset of the first byte at or after `at` that is not in
/// `0x21..=0x7F` (no whitespace, no control byte but DEL, no byte of a
/// multi-byte character); the length of `bytes` if there is none.
///
/// Eight bytes are tested at a time: in `(w - 0x21..21) | w` the high
/// bit of a byte is set if the byte is below 0x21 or above 0x7F, and
/// the lowest such byte is marked exactly (a borrow only runs upwards
/// from a byte below 0x21, so any false mark sits above it).
fn graphic_end(bytes: &[u8], mut at: usize) -> usize {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    while let Some(word) = bytes.get(at..).and_then(<[u8]>::first_chunk::<8>) {
        let w = u64::from_le_bytes(*word);
        let stop = (w.wrapping_sub(ONES * 0x21) | w) & (ONES * 0x80);
        if stop != 0 {
            return at + (stop.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    while matches!(bytes.get(at), Some(0x21..=0x7f)) {
        at += 1;
    }
    at
}

/// Serializes a DAG to the text format.
pub fn write_dag(dag: &Dag) -> String {
    let mut out = String::with_capacity(dag.len() * 16);
    out.push_str("rsg-dag v1\n");
    if !dag.name().is_empty() {
        out.push_str(&format!("name {}\n", dag.name()));
    }
    out.push_str(&format!("refclock {}\n", dag.reference_clock_mhz()));
    for t in dag.tasks() {
        out.push_str(&format!("task {} {}\n", t.0, dag.comp(t)));
    }
    for t in dag.tasks() {
        for e in dag.children(t) {
            out.push_str(&format!("edge {} {} {}\n", t.0, e.task.0, e.comm));
        }
    }
    out.push_str("end\n");
    out
}

/// Parses and validates the text format. Structural errors carry the
/// line of the edge they concern, or line 0 when they concern the
/// whole graph.
pub fn read_dag(text: &str) -> Result<Dag, DagIoError> {
    read_dag_raw(text)?.build_located().map_err(|(e, edge)| {
        // Edge k sits on the k-th line whose first field is `edge`.
        let lines = (1..).zip(text.lines());
        let mut edge_lines = lines.filter(|(_, l)| l.split_whitespace().next() == Some("edge"));
        let line = edge.and_then(|k| edge_lines.nth(k)).map_or(0, |(n, _)| n);
        err(line, &e.to_string())
    })
}

/// Exports a DAG as Graphviz DOT (tasks labeled with their costs).
pub fn to_dot(dag: &Dag) -> String {
    let mut out = String::from("digraph rsg {\n  rankdir=TB;\n  node [shape=circle];\n");
    for t in dag.tasks() {
        out.push_str(&format!(
            "  t{} [label=\"t{}\\n{:.1}s\"];\n",
            t.0,
            t.0,
            dag.comp(t)
        ));
    }
    for t in dag.tasks() {
        for e in dag.children(t) {
            out.push_str(&format!(
                "  t{} -> t{} [label=\"{:.2}\"];\n",
                t.0, e.task.0, e.comm
            ));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DagBuilder;
    use crate::stats::DagStats;

    #[test]
    fn round_trip_montage() {
        let dag = crate::montage::montage_1629_actual();
        let text = write_dag(&dag);
        let back = read_dag(&text).unwrap();
        assert_eq!(back.len(), dag.len());
        assert_eq!(back.edge_count(), dag.edge_count());
        assert_eq!(back.name(), dag.name());
        assert_eq!(DagStats::measure(&back), DagStats::measure(&dag));
    }

    #[test]
    fn round_trip_random() {
        let dag = crate::RandomDagSpec {
            size: 120,
            ccr: 0.4,
            parallelism: 0.6,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 10.0,
        }
        .generate(9);
        let back = read_dag(&write_dag(&dag)).unwrap();
        assert_eq!(back.level_sizes(), dag.level_sizes());
        let (a, b) = (DagStats::measure(&dag), DagStats::measure(&back));
        assert!((a.ccr - b.ccr).abs() < 1e-12);
        assert!((a.mean_comp - b.mean_comp).abs() < 1e-12);
    }

    #[test]
    fn errors_carry_line_numbers() {
        assert!(read_dag("").is_err());
        assert!(read_dag("not a header\n").is_err());
        let e = read_dag("rsg-dag v1\ntask 1 5\nend\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("dense"));
        let e = read_dag("rsg-dag v1\ntask 0 5\nedge 0 9 1\nend\n").unwrap_err();
        assert_eq!(e.line, 3);
        let e = read_dag("rsg-dag v1\ntask 0 5\n").unwrap_err();
        assert!(e.msg.contains("missing 'end'"));
        let e = read_dag("rsg-dag v1\nfrobnicate\nend\n").unwrap_err();
        assert!(e.msg.contains("unknown directive"));
    }

    #[test]
    fn read_dag_rejects_non_integer_edge_ids() {
        let e = read_dag("rsg-dag v1\ntask 0 5\ntask 1 6\nedge -1 1.9 0.5\nend\n").unwrap_err();
        assert_eq!((e.line, e.msg.as_str()), (4, "bad edge parent id"));
    }

    #[test]
    fn comments_and_blank_lines_ok() {
        let text = "rsg-dag v1\n# a comment\n\ntask 0 5\ntask 1 6\nedge 0 1 0.5\nend\n";
        let dag = read_dag(text).unwrap();
        assert_eq!(dag.len(), 2);
        assert_eq!(dag.edge_count(), 1);
    }

    #[test]
    fn dot_export_mentions_every_task() {
        let dag = crate::workflows::fork_join(1, 3, 2.0, 0.1);
        let dot = to_dot(&dag);
        assert!(dot.starts_with("digraph"));
        for t in dag.tasks() {
            assert!(dot.contains(&format!("t{} ", t.0)) || dot.contains(&format!("t{} [", t.0)));
        }
        assert_eq!(dot.matches("->").count(), dag.edge_count());
    }

    #[test]
    fn raw_read_preserves_structural_defects() {
        // A cycle, a dangling endpoint, a self-edge and a NaN cost all
        // survive raw decoding (build() would reject each of them).
        let text = "rsg-dag v1\ntask 0 5\ntask 1 NaN\nedge 0 1 0.5\nedge 1 0 0.5\n\
                    edge 9 0 1\nedge 0 0 1\nend\n";
        let raw = read_dag_raw(text).unwrap();
        assert_eq!(raw.tasks.len(), 2);
        assert!(raw.tasks[1].is_nan());
        assert_eq!(raw.edges.len(), 4);
        assert!(raw.build().is_err());
        assert!(read_dag(text).is_err());
        // Syntax errors still fail raw decoding.
        assert!(read_dag_raw("rsg-dag v1\ntask 0\nend\n").is_err());
        assert!(read_dag_raw("rsg-dag v1\ntask 0 5\n").is_err());
    }

    #[test]
    fn raw_read_edge_errors_name_field_and_line() {
        for (edge, msg) in [
            ("edge", "edge needs a parent id"),
            ("edge x 1 0.5", "bad edge parent id"),
            ("edge 0", "edge needs a child id"),
            ("edge 0 -1 0.5", "bad edge child id"),
            ("edge 0 1", "edge needs a cost"),
            ("edge 0 1 cheap", "bad edge cost"),
        ] {
            let text = format!("rsg-dag v1\ntask 0 5\ntask 1 6\n\n{edge}\nend\n");
            let e = read_dag_raw(&text).unwrap_err();
            assert_eq!((e.line, e.msg.as_str()), (5, msg), "{edge}");
        }
    }

    #[test]
    fn raw_read_agrees_with_read_dag_on_valid_docs() {
        let dag = crate::workflows::fork_join(2, 5, 4.0, 0.2);
        let text = write_dag(&dag);
        let raw = read_dag_raw(&text).unwrap();
        assert_eq!(raw.tasks.len(), dag.len());
        assert_eq!(raw.edges.len(), dag.edge_count());
        let rebuilt = raw.build().unwrap();
        assert_eq!(rebuilt.level_sizes(), dag.level_sizes());
    }

    #[test]
    fn name_with_spaces_round_trips() {
        let mut b = DagBuilder::new();
        b.name("my cool workflow");
        b.add_task(1.0);
        let dag = b.build().unwrap();
        let back = read_dag(&write_dag(&dag)).unwrap();
        assert_eq!(back.name(), "my cool workflow");
    }
}
