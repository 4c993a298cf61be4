//! Doc-drift gate: every `rsg` invocation the README and the serve
//! docs show must use subcommands and flags that actually exist in
//! the CLI's own usage text, and every experiment ID the docs pass to
//! `reproduce` must be registered, with a golden and an EXPERIMENTS.md
//! row. A renamed or removed flag or ID fails here, at the doc that
//! still advertises it, instead of in a user's shell.

use std::path::Path;

/// The lines of a markdown document's code fences, backslash-continued
/// lines joined.
fn fenced_lines(doc: &str) -> Vec<String> {
    let mut joined: Vec<String> = Vec::new();
    let mut pending = String::new();
    let mut in_fence = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence {
            continue;
        }
        let line = line.trim();
        if let Some(head) = line.strip_suffix('\\') {
            pending.push_str(head);
            pending.push(' ');
            continue;
        }
        pending.push_str(line);
        joined.push(std::mem::take(&mut pending));
    }
    joined
}

/// Extracts `rsg` argument vectors from a markdown document's code
/// fences: lines invoking the binary directly (`rsg …`) or through
/// cargo (`cargo run … --bin rsg -- …`).
fn rsg_invocations(doc: &str) -> Vec<String> {
    fenced_lines(doc)
        .into_iter()
        .filter_map(|l| {
            if let Some((_, tail)) = l.split_once("--bin rsg -- ") {
                Some(tail.to_string())
            } else {
                l.strip_prefix("rsg ").map(str::to_string)
            }
        })
        .collect()
}

#[test]
fn documented_rsg_commands_and_flags_exist_in_the_cli_usage() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let usage = rsg_cli::USAGE;
    let docs = ["README.md", "docs/API.md", "docs/OPERATIONS.md"];
    let mut invocations = 0usize;
    for doc_name in docs {
        let doc = std::fs::read_to_string(root.join(doc_name)).unwrap();
        for inv in rsg_invocations(&doc) {
            invocations += 1;
            let mut words = inv.split_whitespace();
            let cmd = words.next().unwrap_or_default();
            assert!(
                usage.contains(&format!("rsg {cmd}")),
                "{doc_name} documents `rsg {cmd}` but the usage text has no such command:\n  {inv}"
            );
            for word in words {
                let flag = word.trim_end_matches(|c: char| !c.is_ascii_alphanumeric());
                if !flag.starts_with("--") {
                    continue;
                }
                assert!(
                    usage.contains(flag),
                    "{doc_name} documents `{flag}` (in `rsg {cmd}`) but the usage text does \
                     not mention it:\n  {inv}"
                );
            }
        }
    }
    // The gate must actually be gating something.
    assert!(
        invocations >= 10,
        "only {invocations} rsg invocations found across {docs:?} — extraction looks broken"
    );
}

/// The reverse direction: every subcommand the usage text advertises
/// has a dispatcher arm in the CLI source (checked statically — some
/// commands do real work when invoked bare).
#[test]
fn usage_subcommands_are_all_dispatched() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dispatcher = std::fs::read_to_string(root.join("crates/cli/src/lib.rs")).unwrap();
    let mut checked = 0usize;
    for line in rsg_cli::USAGE.lines() {
        let Some(rest) = line.trim_start().strip_prefix("rsg ") else {
            continue;
        };
        let Some(cmd) = rest.split_whitespace().next() else {
            continue;
        };
        if !cmd.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
            continue;
        }
        checked += 1;
        assert!(
            dispatcher.contains(&format!("\"{cmd}\" =>")),
            "usage text advertises `rsg {cmd}` but the dispatcher has no arm for it"
        );
    }
    assert!(checked >= 10, "only {checked} subcommands found in USAGE");
}

/// Every registered experiment has a committed golden and a row in
/// EXPERIMENTS.md's tables, and every experiment ID the docs pass to
/// `reproduce` (directly or through `cargo run … --bin reproduce --`)
/// is registered.
#[test]
fn documented_experiment_ids_are_registered_with_goldens_and_rows() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let experiments_md = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    for &(id, _) in rsg_bench::EXPERIMENTS {
        assert!(
            root.join(format!("results/{id}.txt")).is_file(),
            "experiment {id} has no results/{id}.txt golden"
        );
        assert!(
            experiments_md
                .lines()
                .any(|l| l.starts_with('|') && l.contains(&format!("`{id}`"))),
            "experiment {id} has no row in EXPERIMENTS.md"
        );
    }

    let mut named = 0usize;
    for doc_name in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
        let doc = std::fs::read_to_string(root.join(doc_name)).unwrap();
        for line in fenced_lines(&doc) {
            let line = line.split('#').next().unwrap_or_default();
            let Some(args) = line
                .split_once("--bin reproduce --")
                .map(|(_, tail)| tail)
                .or_else(|| line.strip_prefix("reproduce"))
            else {
                continue;
            };
            let mut words = args.split_whitespace();
            while let Some(word) = words.next() {
                if word == "--scale" {
                    words.next();
                } else {
                    named += 1;
                    assert!(
                        rsg_bench::experiment(word).is_some(),
                        "{doc_name} runs `reproduce {word}` but no experiment has that ID:\n  {line}"
                    );
                }
            }
        }
    }
    assert!(
        named >= 5,
        "only {named} experiment IDs found in reproduce commands — extraction looks broken"
    );
}
