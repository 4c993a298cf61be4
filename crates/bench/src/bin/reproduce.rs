//! `reproduce [--scale fast|full] [ID ...]` — regenerates the paper's
//! tables and figures.
//!
//! Runs the named experiments (every one, in registry order, when no ID
//! is given) at the `fast` preset (default) or the paper's `full`
//! parameters, prints their reports on stdout and progress on stderr,
//! and checks the paper's stated bounds on each report.
//!
//! Exit codes: 0 when every bound holds, 1 when one is violated (each
//! violation is named on stderr), 2 on a usage error such as an unknown
//! ID.

use rsg_bench::{claims, experiment, Scale, EXPERIMENTS};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
    eprintln!(
        "reproduce: {problem}\nusage: reproduce [--scale fast|full] [ID ...]\nIDs: {}",
        ids.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut scale = Scale::Fast;
    let mut chosen = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--scale" {
            match args.next().as_deref().and_then(Scale::from_name) {
                Some(s) => scale = s,
                None => return usage("--scale takes fast or full"),
            }
        } else if let Some(run) = experiment(&arg) {
            chosen.push((arg, run));
        } else {
            return usage(&format!("unknown experiment '{arg}'"));
        }
    }
    if chosen.is_empty() {
        chosen = EXPERIMENTS
            .iter()
            .map(|&(id, run)| (id.to_string(), run))
            .collect();
    }

    let mut violated = false;
    for (id, run) in chosen {
        eprintln!("[reproduce] {id} ({} scale)", scale.name());
        let report = run(scale);
        print!("{report}");
        for v in claims::violations(&id, &report) {
            eprintln!("[reproduce] {id}: paper bound violated: {v}");
            violated = true;
        }
    }
    if violated {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
