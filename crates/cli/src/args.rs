//! Dependency-free argument parsing.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error produced while parsing command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand was given.
    MissingCommand,
    /// The subcommand is not recognized.
    UnknownCommand(String),
    /// A flag is not recognized for this subcommand.
    UnknownFlag(String),
    /// A required flag is absent.
    MissingFlag(&'static str),
    /// A value could not be parsed.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending value.
        value: String,
    },
    /// A value parsed but the flag refuses it.
    OutOfRange {
        /// Flag name.
        flag: String,
        /// Offending value.
        value: String,
        /// What the flag takes, e.g. `"at least 1"`.
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => {
                write!(
                    f,
                    "missing command (try: search, datasets, devices, estimate)"
                )
            }
            ArgError::UnknownCommand(c) => write!(f, "unknown command {c:?}"),
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            ArgError::MissingFlag(flag) => write!(f, "required flag {flag} is missing"),
            ArgError::BadValue { flag, value } => {
                write!(f, "cannot parse {value:?} for {flag}")
            }
            ArgError::OutOfRange {
                flag,
                value,
                expected,
            } => write!(f, "invalid value {value:?} for {flag}: expected {expected}"),
        }
    }
}

impl Error for ArgError {}

/// A parsed command line: subcommand plus `--flag value` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: HashMap<String, String>,
}

impl Parsed {
    /// Parses `argv` (without the program name). Every non-command
    /// token is a `--flag` optionally followed by a value; a flag
    /// followed by another `--flag` (or the end of the line) is a
    /// boolean switch and gets the value `"true"`, so `--metrics` and
    /// `--metrics true` are equivalent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for a missing command or stray positional.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, ArgError> {
        let mut it = argv.into_iter().peekable();
        let command = it.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with('-') {
            return Err(ArgError::MissingCommand);
        }
        let mut flags = HashMap::new();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ArgError::UnknownFlag(tok));
            };
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().expect("peeked"),
                _ => "true".to_string(),
            };
            flags.insert(name.to_string(), value);
        }
        Ok(Self { command, flags })
    }

    /// Whether a boolean switch is on: present with no value (or any
    /// value other than `"false"`).
    pub fn is_set(&self, flag: &str) -> bool {
        matches!(self.get(flag), Some(v) if v != "false")
    }

    /// A flag's raw value, if present.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// A required flag's raw value.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::MissingFlag`] when absent.
    pub fn require(&self, flag: &'static str) -> Result<&str, ArgError> {
        self.get(flag).ok_or(ArgError::MissingFlag(flag))
    }

    /// A parsed optional flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when present but unparseable.
    pub fn get_parse<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        Ok(self.get_in(flag, |_| true, "")?.unwrap_or(default))
    }

    /// A parsed optional flag that `accept` must take; `expected` says
    /// what it takes in the refusal.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when present but unparseable, and
    /// [`ArgError::OutOfRange`] when it parses but `accept` refuses it.
    pub fn get_in<T: std::str::FromStr>(
        &self,
        flag: &str,
        accept: impl Fn(&T) -> bool,
        expected: &'static str,
    ) -> Result<Option<T>, ArgError> {
        self.get(flag)
            .map(|text| parse_checked(format!("--{flag}"), text, accept, expected))
            .transpose()
    }

    /// Validates that every provided flag is in `allowed`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::UnknownFlag`] for the first stray flag.
    pub fn check_allowed(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.flags.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError::UnknownFlag(format!("--{k}")));
            }
        }
        Ok(())
    }
}

/// Parses a comma-separated list of positive integers
/// (e.g. `--layers 784,256,10`).
///
/// # Errors
///
/// Returns [`ArgError::BadValue`] on a non-integer entry and
/// [`ArgError::OutOfRange`] on a zero one.
pub fn parse_usize_list(flag: &str, text: &str) -> Result<Vec<usize>, ArgError> {
    text.split(',')
        .map(|t| parse_checked(flag.to_string(), t.trim(), |&v: &usize| v > 0, "at least 1"))
        .collect()
}

/// Parses `text`, the value of `flag`, and checks it with `accept`: a
/// parse failure is [`ArgError::BadValue`], a refusal
/// [`ArgError::OutOfRange`].
fn parse_checked<T: std::str::FromStr>(
    flag: String,
    text: &str,
    accept: impl Fn(&T) -> bool,
    expected: &'static str,
) -> Result<T, ArgError> {
    let value = text.to_string();
    match text.parse() {
        Err(_) => Err(ArgError::BadValue { flag, value }),
        Ok(v) if accept(&v) => Ok(v),
        Ok(_) => Err(ArgError::OutOfRange {
            flag,
            value,
            expected,
        }),
    }
}

/// Parses a grid spec `RxCxV` or `RxCxV,IMxIN`
/// (e.g. `8x8x4` or `8x8x4,16x16`), returning
/// `(rows, cols, vec, interleave_m, interleave_n)` with interleaves
/// defaulting to 4.
///
/// # Errors
///
/// Returns [`ArgError::BadValue`] on malformed specs.
pub fn parse_grid(text: &str) -> Result<(u32, u32, u32, u32, u32), ArgError> {
    let bad = || ArgError::BadValue {
        flag: "--grid".to_string(),
        value: text.to_string(),
    };
    let (dims, il) = match text.split_once(',') {
        Some((d, i)) => (d, Some(i)),
        None => (text, None),
    };
    let parts: Vec<u32> = dims
        .split('x')
        .map(|p| p.trim().parse::<u32>().map_err(|_| bad()))
        .collect::<Result<_, _>>()?;
    let [rows, cols, vec] = parts.as_slice() else {
        return Err(bad());
    };
    let (im, inn) = match il {
        None => (4, 4),
        Some(i) => {
            let ps: Vec<u32> = i
                .split('x')
                .map(|p| p.trim().parse::<u32>().map_err(|_| bad()))
                .collect::<Result<_, _>>()?;
            let [a, b] = ps.as_slice() else {
                return Err(bad());
            };
            (*a, *b)
        }
    };
    Ok((*rows, *cols, *vec, im, inn))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let p = Parsed::parse(argv("search --data x.csv --seed 7")).unwrap();
        assert_eq!(p.command, "search");
        assert_eq!(p.get("data"), Some("x.csv"));
        assert_eq!(p.get_parse("seed", 0u64).unwrap(), 7);
        assert_eq!(p.get_parse("threads", 3usize).unwrap(), 3);
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(
            Parsed::parse(argv("")).unwrap_err(),
            ArgError::MissingCommand
        );
        assert_eq!(
            Parsed::parse(argv("--data x")).unwrap_err(),
            ArgError::MissingCommand
        );
    }

    #[test]
    fn bare_flags_are_boolean_switches() {
        let p = Parsed::parse(argv("search --metrics --seed 7 --data x.csv")).unwrap();
        assert!(p.is_set("metrics"));
        assert_eq!(p.get("metrics"), Some("true"));
        assert_eq!(p.get_parse("seed", 0u64).unwrap(), 7);
        assert_eq!(p.get("data"), Some("x.csv"));
        // Trailing bare flag, explicit values, and absence all behave.
        let q = Parsed::parse(argv("search --metrics false --trace")).unwrap();
        assert!(!q.is_set("metrics"));
        assert!(q.is_set("trace"));
        assert!(!q.is_set("absent"));
    }

    #[test]
    fn stray_positional_rejected() {
        assert!(matches!(
            Parsed::parse(argv("search oops")).unwrap_err(),
            ArgError::UnknownFlag(_)
        ));
    }

    #[test]
    fn require_and_allowed() {
        let p = Parsed::parse(argv("estimate --layers 1,2")).unwrap();
        assert_eq!(p.require("layers").unwrap(), "1,2");
        assert!(matches!(
            p.require("grid"),
            Err(ArgError::MissingFlag("grid"))
        ));
        assert!(p.check_allowed(&["layers", "grid"]).is_ok());
        assert!(matches!(
            p.check_allowed(&["grid"]),
            Err(ArgError::UnknownFlag(_))
        ));
    }

    #[test]
    fn usize_list() {
        assert_eq!(
            parse_usize_list("--layers", "784, 256,10").unwrap(),
            vec![784, 256, 10]
        );
        assert!(parse_usize_list("--layers", "a,2").is_err());
        assert!(parse_usize_list("--layers", "0").is_err());
    }

    #[test]
    fn grid_specs() {
        assert_eq!(parse_grid("8x8x4").unwrap(), (8, 8, 4, 4, 4));
        assert_eq!(parse_grid("16x8x2,32x1").unwrap(), (16, 8, 2, 32, 1));
        assert!(parse_grid("8x8").is_err());
        assert!(parse_grid("axbxc").is_err());
        assert!(parse_grid("8x8x4,9").is_err());
    }

    #[test]
    fn bad_numeric_flag() {
        let p = Parsed::parse(argv("search --seed many")).unwrap();
        assert!(matches!(
            p.get_parse("seed", 0u64),
            Err(ArgError::BadValue { .. })
        ));
    }
}
