//! Minimal argument parsing: positionals plus `--flag value` options,
//! with typed accessors (kept dependency-free on purpose). The accessors
//! record which options a command read, so it can reject the rest
//! ([`Args::reject_unread`]) instead of silently ignoring a misspelt or
//! unsupported option.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};

/// Argument-parsing error.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgError(pub String);

/// A parsed argument vector.
#[derive(Debug)]
pub struct Args {
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
    next_positional: Cell<usize>,
    /// Option keys looked up so far, present or not.
    read: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Splits `argv` into positionals and `--key value` options.
    pub fn new(argv: &[String]) -> Args {
        Self::new_with_flags(argv, &[])
    }

    /// Like [`Args::new`], but keys listed in `flags` are boolean: they
    /// do not consume the following token as a value.
    pub fn new_with_flags(argv: &[String], flags: &[&str]) -> Args {
        let mut positionals = Vec::new();
        let mut options = BTreeMap::new();
        let mut i = 0usize;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                if flags.contains(&key) {
                    options.insert(key.to_string(), String::new());
                    i += 1;
                } else {
                    let value = argv.get(i + 1).cloned().unwrap_or_default();
                    options.insert(key.to_string(), value);
                    i += 2;
                }
            } else {
                positionals.push(a.clone());
                i += 1;
            }
        }
        Args {
            positionals,
            options,
            next_positional: Cell::new(0),
            read: RefCell::default(),
        }
    }

    /// Whether a boolean flag was present.
    pub fn flag(&self, key: &str) -> bool {
        self.opt(key).is_some()
    }

    /// Fails on the first option `command` has not read, naming both:
    /// call it once the command has read every option it takes and
    /// before it does any work.
    pub fn reject_unread(&self, command: &str) -> Result<(), ArgError> {
        let read = self.read.borrow();
        match self.options.keys().find(|k| !read.contains(*k)) {
            Some(key) => Err(ArgError(format!("'{command}' takes no option --{key}"))),
            None => Ok(()),
        }
    }

    /// Next positional argument, if any.
    pub fn positional(&self) -> Option<String> {
        let p = self.positionals.get(self.next_positional.get()).cloned();
        if p.is_some() {
            self.next_positional.set(self.next_positional.get() + 1);
        }
        p
    }

    /// Required positional with a descriptive error.
    pub fn require_positional(&self, what: &str) -> Result<String, ArgError> {
        self.positional()
            .ok_or_else(|| ArgError(format!("missing {what}")))
    }

    /// Optional string option.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.options.get(key).map(String::as_str)
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.opt(key)
            .ok_or_else(|| ArgError(format!("missing --{key}")))
    }

    /// Optional numeric option with a default.
    pub fn num(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects a number, got '{v}'"))),
        }
    }

    /// Optional integer option with a default.
    pub fn int(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects an integer, got '{v}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::new(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn splits_positionals_and_options() {
        let a = args(&["gen", "random", "--size", "100", "--out", "f.dag"]);
        assert_eq!(a.positional().as_deref(), Some("gen"));
        assert_eq!(a.positional().as_deref(), Some("random"));
        assert_eq!(a.positional(), None);
        assert_eq!(a.opt("size"), Some("100"));
        assert_eq!(a.int("size", 0).unwrap(), 100);
        assert_eq!(a.opt("out"), Some("f.dag"));
        assert_eq!(a.num("ccr", 1.5).unwrap(), 1.5);
    }

    #[test]
    fn boolean_flags_do_not_consume_values() {
        let v: Vec<String> = ["spec", "--trace", "wf.dag", "--report", "r.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = Args::new_with_flags(&v, &["trace"]);
        assert!(a.flag("trace"));
        assert!(!a.flag("report-missing"));
        assert_eq!(a.positional().as_deref(), Some("spec"));
        assert_eq!(a.positional().as_deref(), Some("wf.dag"));
        assert_eq!(a.opt("report"), Some("r.json"));
    }

    #[test]
    fn typed_errors() {
        let a = args(&["--size", "abc"]);
        assert!(a.int("size", 0).is_err());
        assert!(a.require("missing").is_err());
    }

    #[test]
    fn unread_options_are_rejected() {
        let a = args(&["train", "--grid", "tiny", "--jounral", "j"]);
        assert_eq!(a.opt("grid"), Some("tiny"));
        assert_eq!(a.opt("journal"), None);
        let e = a.reject_unread("train").unwrap_err();
        assert_eq!(e.0, "'train' takes no option --jounral");
        // Reading an option, present or not, accepts it.
        assert_eq!(a.opt("jounral"), Some("j"));
        assert!(a.reject_unread("train").is_ok());
    }

    #[test]
    fn require_positional_message() {
        let a = args(&[]);
        let e = a.require_positional("input file").unwrap_err();
        assert!(e.0.contains("input file"));
    }
}
