//! The strict command-line scan shared by the `repro` and `bench_report`
//! binaries. Every argument must be a known flag, the value of a
//! value-taking flag, or a positional: silently dropping one would turn a
//! typo into a different run (a mistyped `--smoke` runs the full tier, a
//! mistyped speedup floor gates nothing).

use std::collections::BTreeMap;
use std::fmt;

/// Why a command line was rejected. Both binaries exit 2 on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// A `--`-prefixed argument that is not a known flag.
    Unrecognized(String),
    /// A value-taking flag at the end of the line or followed by a flag.
    MissingValue(&'static str),
    /// A flag given more than once.
    Repeated(&'static str),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::Unrecognized(arg) => write!(f, "unrecognized argument {arg}"),
            UsageError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            UsageError::Repeated(flag) => write!(f, "{flag} given more than once"),
        }
    }
}

impl std::error::Error for UsageError {}

/// A scanned command line.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// The arguments that are neither flags nor flag values, in order.
    pub positionals: Vec<String>,
    /// Each flag given: value flags map to their value, switches to `None`.
    flags: BTreeMap<&'static str, Option<String>>,
}

impl Args {
    /// The value of a value-taking flag, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag)?.as_deref()
    }

    /// Whether a flag (switch or value flag) was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }
}

/// Scans `args` against the known `value_flags` (each takes the next
/// argument, which must not start with `--`) and `switches`. Anything
/// else starting with `--` is an error; the rest are positionals.
pub fn parse(
    args: &[String],
    value_flags: &[&'static str],
    switches: &[&'static str],
) -> Result<Args, UsageError> {
    let mut out = Args::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            out.positionals.push(arg.clone());
            continue;
        }
        let (flag, value) = if let Some(&flag) = value_flags.iter().find(|f| **f == arg.as_str()) {
            match rest.next() {
                Some(v) if !v.starts_with("--") => (flag, Some(v.clone())),
                _ => return Err(UsageError::MissingValue(flag)),
            }
        } else if let Some(&flag) = switches.iter().find(|f| **f == arg.as_str()) {
            (flag, None)
        } else {
            return Err(UsageError::Unrecognized(arg.clone()));
        };
        if out.flags.insert(flag, value).is_some() {
            return Err(UsageError::Repeated(flag));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(line: &str) -> Result<Args, UsageError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args, &["--out-dir", "--window"], &["--smoke"])
    }

    #[test]
    fn flags_values_and_positionals_are_separated() {
        let args = scan("--smoke table1 --out-dir out extra --window -5").expect("valid line");
        assert_eq!(args.positionals, ["table1", "extra"]);
        assert!(args.has("--smoke"));
        assert_eq!(args.value("--smoke"), None);
        assert_eq!(args.value("--out-dir"), Some("out"));
        assert_eq!(
            args.value("--window"),
            Some("-5"),
            "values may start with one dash"
        );
        assert!(!args.has("--quick"));
        assert_eq!(scan("").expect("empty line"), Args::default());
    }

    #[test]
    fn bad_lines_are_typed_errors() {
        assert_eq!(
            scan("--smok figures").map(|_| ()),
            Err(UsageError::Unrecognized("--smok".to_string()))
        );
        assert_eq!(
            scan("--smoke --out-dir --smoke sdp").map(|_| ()),
            Err(UsageError::MissingValue("--out-dir"))
        );
        assert_eq!(
            scan("sdp --out-dir").map(|_| ()),
            Err(UsageError::MissingValue("--out-dir"))
        );
        assert_eq!(
            scan("--smoke sdp --smoke").map(|_| ()),
            Err(UsageError::Repeated("--smoke"))
        );
        assert_eq!(
            UsageError::MissingValue("--out-dir").to_string(),
            "--out-dir requires a value"
        );
    }
}
