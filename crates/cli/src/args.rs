//! Minimal dependency-free argument parsing: `--key value` flags plus a
//! positional subcommand and its trailing positionals.

use std::collections::BTreeMap;

/// Parsed command line: subcommand plus `--key value` options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// First positional token (the subcommand), if any.
    pub command: Option<String>,
    /// Positional tokens after the subcommand (e.g. `scenario run NAME`).
    /// Commands that take none reject them with
    /// [`ArgError::ExtraPositional`] via [`Args::no_positionals`].
    pub positionals: Vec<String>,
    /// `--key value` pairs, keys without the leading dashes.
    pub options: BTreeMap<String, String>,
    /// Bare `--flag` switches (no value).
    pub flags: Vec<String>,
}

/// Errors produced while parsing or validating arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// An option was given twice.
    Duplicate(String),
    /// A required option is missing.
    Missing(String),
    /// An option value failed to parse.
    Invalid {
        /// Option name.
        key: String,
        /// Offending value.
        value: String,
        /// Parser message.
        msg: String,
    },
    /// Unexpected extra positional argument.
    ExtraPositional(String),
    /// An option or flag the command does not read.
    Unknown {
        /// The command.
        command: String,
        /// The option, without its leading dashes.
        key: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Duplicate(k) => write!(f, "option --{k} given more than once"),
            ArgError::Missing(k) => write!(f, "missing required option --{k}"),
            ArgError::Invalid { key, value, msg } => {
                write!(f, "invalid value {value:?} for --{key}: {msg}")
            }
            ArgError::ExtraPositional(p) => write!(f, "unexpected argument {p:?}"),
            ArgError::Unknown { command, key } => {
                write!(f, "rsdc {command} does not take --{key}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse an iterator of argument tokens (excluding the program name).
    ///
    /// Grammar: the first non-dashed token is the subcommand; every
    /// `--key` consumes the following token as its value unless that token
    /// starts with `--` or is absent, in which case it is a bare flag.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut it = args.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let takes_value = it
                    .peek()
                    .map(|next| !next.starts_with("--"))
                    .unwrap_or(false);
                if takes_value {
                    let val = it.next().expect("peeked");
                    if out.options.insert(key.to_string(), val).is_some() {
                        return Err(ArgError::Duplicate(key.to_string()));
                    }
                } else {
                    out.flags.push(key.to_string());
                }
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else {
                out.positionals.push(tok);
            }
        }
        Ok(out)
    }

    /// Required option parsed into `T`.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError>
    where
        T::Err: std::fmt::Display,
    {
        let raw = self
            .options
            .get(key)
            .ok_or_else(|| ArgError::Missing(key.to_string()))?;
        raw.parse().map_err(|e: T::Err| ArgError::Invalid {
            key: key.to_string(),
            value: raw.clone(),
            msg: e.to_string(),
        })
    }

    /// Optional option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: std::fmt::Display,
    {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|e: T::Err| ArgError::Invalid {
                key: key.to_string(),
                value: raw.clone(),
                msg: e.to_string(),
            }),
        }
    }

    /// Optional string option.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// True if the bare flag was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Reject any `--key` or `--flag` not named in `known` — the guard
    /// that keeps a mistyped option from being silently ignored.
    pub fn only(&self, known: &[&[&str]]) -> Result<(), ArgError> {
        let mut given = self.options.keys().chain(&self.flags);
        match given.find(|k| !known.iter().any(|l| l.contains(&k.as_str()))) {
            None => Ok(()),
            Some(key) => Err(ArgError::Unknown {
                command: self.command.clone().unwrap_or_default(),
                key: key.clone(),
            }),
        }
    }

    /// Reject trailing positionals — the guard every subcommand without a
    /// positional grammar calls before dispatching.
    pub fn no_positionals(&self) -> Result<(), ArgError> {
        match self.positionals.first() {
            None => Ok(()),
            Some(p) => Err(ArgError::ExtraPositional(p.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_subcommand_and_options() {
        let a = parse(&["solve", "--trace", "t.json", "--beta", "2.5"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("solve"));
        assert_eq!(a.get_str("trace"), Some("t.json"));
        assert_eq!(a.require::<f64>("beta").unwrap(), 2.5);
    }

    #[test]
    fn bare_flags() {
        let a = parse(&["solve", "--quiet", "--trace", "x"]).unwrap();
        assert!(a.has_flag("quiet"));
        assert_eq!(a.get_str("trace"), Some("x"));
    }

    #[test]
    fn trailing_flag_without_value() {
        let a = parse(&["run", "--verbose"]).unwrap();
        assert!(a.has_flag("verbose"));
    }

    #[test]
    fn duplicate_option_rejected() {
        let e = parse(&["x", "--a", "1", "--a", "2"]).unwrap_err();
        assert_eq!(e, ArgError::Duplicate("a".into()));
    }

    #[test]
    fn positionals_collected_after_subcommand() {
        let a = parse(&["scenario", "run", "diurnal-baseline", "--quick"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("scenario"));
        assert_eq!(a.positionals, vec!["run", "diurnal-baseline"]);
        assert!(a.has_flag("quick"));
        assert_eq!(
            a.no_positionals().unwrap_err(),
            ArgError::ExtraPositional("run".into())
        );
    }

    #[test]
    fn no_positionals_accepts_bare_subcommand() {
        let a = parse(&["solve", "--trace", "t.json"]).unwrap();
        a.no_positionals().unwrap();
    }

    #[test]
    fn missing_and_invalid() {
        let a = parse(&["x", "--n", "abc"]).unwrap();
        assert!(matches!(a.require::<u32>("m"), Err(ArgError::Missing(_))));
        assert!(matches!(
            a.require::<u32>("n"),
            Err(ArgError::Invalid { .. })
        ));
        assert_eq!(a.get_or("k", 7u32).unwrap(), 7);
    }
}
