//! Fuzz-style property tests: every parser and decoder that touches
//! persisted bytes — specification parsers, the DAG reader, model
//! decoders, store envelopes and sweep journals — must
//! return a typed error, never panic, on arbitrary input, including
//! inputs derived from valid documents by truncation or mutation.

use proptest::prelude::*;
use rsg::core::store;
use rsg::dag::io::{read_dag_raw, DagIoError, RawDag};
use rsg::select::classad::parse_classad;
use rsg::select::sword::parse_sword;
use rsg::select::vgdl::parse_vgdl;
use rsg::serve::http::read_request;
use std::io::Read as IoRead;

/// Serves a byte buffer in fixed-size fragments, so the HTTP reader
/// sees torn request lines and CRLF pairs split across reads — the
/// same shapes a hostile or merely slow TCP peer produces.
struct Torn<'a> {
    bytes: &'a [u8],
    at: usize,
    chunk: usize,
}

impl IoRead for Torn<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self
            .bytes
            .len()
            .saturating_sub(self.at)
            .min(self.chunk)
            .min(buf.len());
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// A valid enveloped size model (the clean audit fixture's).
const VALID_MODEL_ENVELOPE: &str = include_str!("fixtures/audit/clean/models/size_model.tsv");

/// The DAG text reader as it was before the byte cursor: `str::lines`,
/// `str::split_whitespace` per line and `str::parse` per field. The
/// reference `read_dag_raw` must agree with on every document.
fn reference_read_dag_raw(text: &str) -> Result<RawDag, DagIoError> {
    let mut lines = text.lines().enumerate();
    let (i, header) = lines.next().ok_or_else(|| err(1, "empty document"))?;
    if header.trim() != "rsg-dag v1" {
        return Err(err(i + 1, "expected 'rsg-dag v1' header"));
    }
    let mut raw = RawDag::default();
    let mut saw_end = false;
    for (i, line) in lines {
        let mut f = Fields {
            parts: line.split_whitespace(),
            line: i + 1,
        };
        match f.parts.next() {
            None => {}
            Some(comment) if comment.starts_with('#') => {}
            Some("name") => raw.name = f.parts.collect::<Vec<_>>().join(" "),
            Some("refclock") => {
                raw.ref_clock_mhz = Some(f.next("refclock needs a value", "bad refclock")?);
            }
            Some("task") => {
                let id: u32 = f.next("task needs an id", "bad task id")?;
                if id as usize != raw.tasks.len() {
                    return Err(err(f.line, "task ids must be dense and in order"));
                }
                raw.tasks
                    .push(f.next("task needs a cost", "bad task cost")?);
            }
            Some("edge") => {
                let p = f.next("edge needs a parent id", "bad edge parent id")?;
                let c = f.next("edge needs a child id", "bad edge child id")?;
                let w = f.next("edge needs a cost", "bad edge cost")?;
                raw.edges.push((p, c, w));
            }
            Some("end") => {
                saw_end = true;
                break;
            }
            Some(other) => return Err(err(f.line, &format!("unknown directive '{other}'"))),
        }
    }
    if !saw_end {
        return Err(err(text.lines().count(), "missing 'end'"));
    }
    Ok(raw)
}

fn err(line: usize, msg: &str) -> DagIoError {
    DagIoError {
        line,
        msg: msg.to_string(),
    }
}

/// The fields of one line, with its 1-based number for errors.
struct Fields<'a> {
    parts: std::str::SplitWhitespace<'a>,
    line: usize,
}

impl Fields<'_> {
    /// The next field, parsed; `missing` or `bad` says why not.
    fn next<T: std::str::FromStr>(&mut self, missing: &str, bad: &str) -> Result<T, DagIoError> {
        let f = self.parts.next().ok_or_else(|| err(self.line, missing))?;
        f.parse().map_err(|_| err(self.line, bad))
    }
}

/// Asserts that `read_dag_raw` and the reference reader agree on `text`:
/// the same `RawDag` (costs compared through `Debug`, so NaN matches
/// NaN) or the same error line and message.
fn assert_readers_agree(text: &str) {
    assert_eq!(
        format!("{:?}", read_dag_raw(text)),
        format!("{:?}", reference_read_dag_raw(text)),
        "{text:?}"
    );
}

/// A valid document the equivalence tests mutate: every directive, a
/// comment, a blank line, a name of several words and costs in several
/// float spellings.
const DAG_DOC: &str = "rsg-dag v1\nname my  flow\n# c\nrefclock 1500\n\ntask 0 8.2\n\
                       task 1 2\ntask 2 1e-3\nedge 0 1 0.0032\nedge 1 2 inf\nend\n";

/// What the equivalence tests splice into [`DAG_DOC`]: Unicode and
/// ASCII whitespace the two field splitters of the old reader disagreed
/// on, line endings, id spellings `u32::from_str` accepts or refuses,
/// extra fields, comments, header and `end` lines, and non-whitespace
/// characters of every UTF-8 length.
const DAG_SPLICES: &[&str] = &[
    "\u{a0}",
    "\u{2003}",
    "\u{85}",
    "\u{2028}",
    "\u{3000}",
    "\u{1680}",
    "\u{feff}",
    "\x0b",
    "\x0c",
    "\r\n",
    "\r",
    "\n",
    " ",
    "\t",
    "\x00",
    "\x1f",
    "\x7f",
    "+7",
    "+",
    "-",
    "-0",
    "007",
    "4294967295",
    "4294967296",
    "99999999999",
    " extra",
    " 3 4",
    "#",
    "# note\n",
    "rsg-dag v1\n",
    "rsg-dag v2\n",
    "end",
    "end\n",
    "\nend trailing\n",
    "x",
    "0",
    ".",
    "e5",
    "é",
    "中",
    "😀",
];

#[test]
fn dag_reader_matches_the_reference_on_spliced_docs() {
    // Every splice at every char boundary, then every truncation of the
    // document (each drops `end` or cuts a line), then header variants
    // and text after `end`.
    let mut docs = Vec::new();
    for at in (0..=DAG_DOC.len()).filter(|&i| DAG_DOC.is_char_boundary(i)) {
        for splice in DAG_SPLICES {
            docs.push(format!("{}{splice}{}", &DAG_DOC[..at], &DAG_DOC[at..]));
        }
        docs.push(DAG_DOC[..at].to_string());
    }
    let body = DAG_DOC.strip_prefix("rsg-dag v1").unwrap();
    for header in [
        "",
        "rsg-dag v1 ",
        " rsg-dag v1",
        "rsg-dag  v1",
        "rsg-dag v1\r",
        "\u{a0}rsg-dag v1\u{85}",
        "\u{feff}rsg-dag v1",
        "RSG-DAG v1",
        "rsg-dag v1 extra",
        "\n",
        "# rsg-dag v1",
    ] {
        docs.push(format!("{header}{body}"));
    }
    docs.push(format!("{DAG_DOC}task 9 x\nfrobnicate\n"));
    docs.push(DAG_DOC.replace('\n', "\r\n"));
    docs.push(DAG_DOC.replace('\n', "\r"));
    docs.push(DAG_DOC.replace(' ', "\u{a0}"));
    docs.push(DAG_DOC.replace(' ', "\u{85}"));
    docs.push(DAG_DOC.replace(' ', "\x0b"));
    docs.push(DAG_DOC.replace("end\n", ""));
    docs.push(DAG_DOC.replace("end\n", "end"));
    for doc in &docs {
        assert_readers_agree(doc);
    }
    // The splices reach both outcomes and most messages.
    let outcomes: std::collections::BTreeSet<String> = docs
        .iter()
        .map(|d| read_dag_raw(d).map_or_else(|e| e.msg, |_| "ok".to_string()))
        .collect();
    assert!(outcomes.len() >= 12, "{outcomes:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parsers_never_panic_on_garbage(s in "[ -~\\n\\t]{0,200}") {
        let _ = parse_classad(&s);
        let _ = parse_vgdl(&s);
        let _ = parse_sword(&s);
    }

    #[test]
    fn parsers_never_panic_on_mutated_valid_docs(
        cut in 0usize..400,
        insert in "[\\[\\]{}()<>\"=&|;:,a-z0-9 ]{0,12}",
    ) {
        let classad = r#"[ Type = "Job"; Count = 5; Requirements = other.Clock >= 2000 && other.OpSys == "LINUX"; Rank = other.Clock ]"#;
        let vgdl = r#"VG = TightBagOf(nodes) [10:20] [rank = Nodes] { nodes = [ (Clock >= 2000) && (Memory >= 512) ] }"#;
        let sword = "<request><group><name>g</name><num_machines>5</num_machines><clock>1.0, 2.0, MAX, MAX, 0.5</clock></group></request>";
        for doc in [classad, vgdl, sword] {
            let cut = cut.min(doc.len());
            // Splice arbitrary text into the document.
            let mutated = format!("{}{}{}", &doc[..cut], insert, &doc[cut..]);
            if mutated.is_char_boundary(cut) {
                let _ = parse_classad(&mutated);
                let _ = parse_vgdl(&mutated);
                let _ = parse_sword(&mutated);
            }
        }
    }

    #[test]
    fn parsers_never_panic_on_unicode_mutations(
        cut in 0usize..400,
        insert in "[\u{2028}\u{00A0}\u{1F600}\u{FEFF}äß中 \"<>\\[\\]{}=]{0,8}",
    ) {
        // Multi-byte whitespace (U+2028, U+00A0), a BOM, emoji and
        // accented letters spliced into valid documents: the byte-level
        // cursors must reject these with typed errors, never slice off
        // a char boundary.
        let classad = r#"[ Type = "Job"; Count = 5; Requirements = other.Clock >= 2000; Rank = other.Clock ]"#;
        let vgdl = r#"VG = TightBagOf(nodes) [10:20] { nodes = [ Clock >= 2000 ] }"#;
        let sword = "<request><group><name>g</name><num_machines>5</num_machines><clock>1.0, 2.0, MAX, MAX, 0.5</clock></group></request>";
        for doc in [classad, vgdl, sword] {
            let cut = cut.min(doc.len());
            if doc.is_char_boundary(cut) {
                let mutated = format!("{}{}{}", &doc[..cut], insert, &doc[cut..]);
                let _ = parse_classad(&mutated);
                let _ = parse_vgdl(&mutated);
                let _ = parse_sword(&mutated);
            }
        }
    }

    #[test]
    fn dag_reader_never_panics(s in "[ -~\\n\\t]{0,300}") {
        let _ = rsg::dag::io::read_dag(&s);
        let _ = rsg::dag::io::read_dag_raw(&s);
        let with_header = format!("rsg-dag v1\n{s}");
        let _ = rsg::dag::io::read_dag(&with_header);
        let _ = rsg::dag::io::read_dag_raw(&with_header);
    }

    #[test]
    fn dag_reader_matches_the_reference_under_many_splices(
        splices in prop::collection::vec((0usize..200, 0usize..DAG_SPLICES.len()), 0..8),
        cut in 0usize..400,
    ) {
        // Several splices on one document, then a cut from its end.
        let mut doc = DAG_DOC.to_string();
        for (at, k) in splices {
            let at = (0..=at.min(doc.len())).rev().find(|&i| doc.is_char_boundary(i)).unwrap();
            doc.insert_str(at, DAG_SPLICES[k]);
        }
        let keep = doc.len().saturating_sub(cut % 40);
        let keep = (0..=keep).rev().find(|&i| doc.is_char_boundary(i)).unwrap();
        assert_readers_agree(&doc[..keep]);
        assert_readers_agree(&doc);
    }

    #[test]
    fn model_decoder_never_panics(s in "[ -~\\n\\t]{0,300}") {
        let _ = rsg::core::SizePredictionModel::from_tsv(&s);
        let _ = rsg::core::ThresholdedSizeModel::from_tsv(&s);
        let _ = rsg::core::HeuristicPredictionModel::from_tsv(&s);
        let with_header = format!("rsg-size-model\tv1\n{s}");
        let _ = rsg::core::SizePredictionModel::from_tsv(&with_header);
    }

    #[test]
    fn envelope_and_journal_never_panic(s in "[ -~\\n\\t]{0,300}") {
        let _ = store::unwrap_envelope(&s);
        let with_header = format!("rsg-artifact\tv1\t{s}");
        let _ = store::unwrap_envelope(&with_header);
        // Journal replay is exercised through the read-only verifier
        // (same line parser, no filesystem writes).
        let dir = std::env::temp_dir()
            .join(format!("rsg-fuzz-journal-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("j.journal");
        std::fs::write(&path, &s).unwrap();
        let _ = rsg::core::SweepJournal::verify(&path);
        std::fs::write(&path, format!("rsg-sweep-journal\tv1\tdeadbeef\t2\n{s}")).unwrap();
        let _ = rsg::core::SweepJournal::verify(&path);
    }

    #[test]
    fn delta_journal_never_panics(
        s in "[ -~\\n\\t]{0,300}",
        seq in "[-0-9a-fx.]{0,24}",
        flip in 0usize..400,
    ) {
        // The delta journal shares the torn-tail contract with the
        // sweep journal: arbitrary bytes, truncations, bit-flips and
        // hostile sequence numbers must classify as a clean recovery
        // prefix or a typed StoreError — never a panic. Replay is
        // exercised through the read-only verifier (same line parser).
        let dir = std::env::temp_dir()
            .join(format!("rsg-fuzz-delta-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("d.journal");
        std::fs::write(&path, &s).unwrap();
        let _ = rsg::core::DeltaJournal::verify(&path);
        // Same garbage under a well-formed header: the body parser,
        // not the header sniffer, has to hold the line.
        std::fs::write(
            &path,
            format!("rsg-delta-journal\tv1\t00000000deadbeef\n{s}"),
        ).unwrap();
        let _ = rsg::core::DeltaJournal::verify(&path);
        // Hostile sequence-number field spliced into an otherwise
        // plausible record line (checksum will not match — that must
        // truncate, not crash).
        std::fs::write(
            &path,
            format!(
                "rsg-delta-journal\tv1\t00000000deadbeef\n\
                 delta\t{seq}\tprice\t0.5\t0123456789abcdef\n"
            ),
        ).unwrap();
        let _ = rsg::core::DeltaJournal::verify(&path);
        // Bit-flip a byte of a genuinely valid journal: verify must
        // report the damage (or a shortened clean prefix), not panic.
        let fp = 0x1234_5678_9abc_def0u64;
        {
            let j = rsg::core::DeltaJournal::open(&path, fp).unwrap();
            for (i, tsv) in ["price\t0.25", "clock-drift\t0\t2400", "price\t0.75"]
                .iter()
                .enumerate()
            {
                let d = rsg::platform::PlatformDelta::from_tsv(tsv).unwrap();
                j.append(&rsg::core::DeltaRecord { seq: i as u64 + 1, delta: d })
                    .unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let at = flip % bytes.len();
        bytes[at] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let _ = rsg::core::DeltaJournal::verify(&path);
    }

    #[test]
    fn platform_delta_parser_never_panics(s in "[ -~\\n\\t]{0,120}") {
        let _ = rsg::platform::PlatformDelta::from_tsv(&s);
        for head in ["host-join\t", "host-leave\t", "clock-drift\t", "bw-drift\t", "price\t"] {
            let _ = rsg::platform::PlatformDelta::from_tsv(&format!("{head}{s}"));
        }
    }

    #[test]
    fn http_reader_never_panics_on_garbage(
        s in "[ -~\\r\\n\\t]{0,400}",
        chunk in 1usize..9,
    ) {
        // Arbitrary printable bytes, delivered whole and in torn
        // fragments: the request reader must return a typed HttpError
        // or a request — never panic, never loop.
        let _ = read_request(&mut s.as_bytes(), 1024);
        let mut torn = Torn { bytes: s.as_bytes(), at: 0, chunk };
        let _ = read_request(&mut torn, 1024);
    }

    #[test]
    fn http_reader_never_panics_on_mutated_valid_requests(
        cut in 0usize..120,
        insert in "[ -~]{0,10}",
        chunk in 1usize..9,
        content_length in "[0-9]{0,24}",
    ) {
        let body = "{\"dag\": \"x\"}";
        let valid = format!(
            "POST /spec HTTP/1.1\r\nHost: f\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        // Splice garbage into a valid request, and separately truncate
        // it at an arbitrary byte: both must classify cleanly.
        let cut = cut.min(valid.len());
        let mutated = format!("{}{}{}", &valid[..cut], insert, &valid[cut..]);
        for text in [mutated.as_str(), &valid[..cut]] {
            let _ = read_request(&mut text.as_bytes(), 1024);
            let mut torn = Torn { bytes: text.as_bytes(), at: 0, chunk };
            let _ = read_request(&mut torn, 1024);
        }
        // Oversized and unparseable Content-Length values: huge decimal
        // strings must yield TooLarge or Malformed, never an attempt to
        // allocate the declared size.
        let evil = format!(
            "POST /spec HTTP/1.1\r\nHost: f\r\nContent-Length: {content_length}\r\n\r\nx"
        );
        match read_request(&mut evil.as_bytes(), 1024) {
            Ok(req) => prop_assert!(req.body.len() <= 1024),
            Err(e) => {
                let shown = format!("{e}");
                prop_assert!(!shown.is_empty());
            }
        }
    }

    #[test]
    fn truncated_and_mutated_valid_docs_never_panic(
        cut in 0usize..600,
        insert in "[\\t\\na-z0-9.]{0,8}",
    ) {
        // A valid size-model doc and its envelope, spliced and cut at
        // arbitrary points: decode must fail cleanly or succeed — never
        // panic, and a mutated *envelope* must never pass its checksum
        // unless the splice was a no-op.
        let env = VALID_MODEL_ENVELOPE;
        let (_, doc) = store::unwrap_envelope(env).unwrap();
        for text in [doc, env] {
            let cut = cut.min(text.len());
            if text.is_char_boundary(cut) {
                let truncated = &text[..cut];
                let _ = rsg::core::ThresholdedSizeModel::from_tsv(truncated);
                let _ = store::unwrap_envelope(truncated);
                let mutated = format!("{}{}{}", &text[..cut], insert, &text[cut..]);
                let _ = rsg::core::ThresholdedSizeModel::from_tsv(&mutated);
                if !insert.is_empty() {
                    if let Ok((kind, payload)) = store::unwrap_envelope(&mutated) {
                        // The envelope checksum caught every real
                        // mutation; a surviving parse means the splice
                        // landed harmlessly (e.g. inside the header's
                        // kind field before re-deriving it is possible:
                        // kind may differ, payload must not).
                        assert!(kind == "size-model" || payload == doc);
                    }
                }
            }
        }
    }
}
