//! The one flag reader every `ahn-exp` command parses its arguments
//! with, and the error every command hands back to `main`.

use std::fmt::Display;
use std::str::FromStr;

/// Why a command stopped: `main` prints `error: {message}` and exits 2
/// for bad input or 1 for a runtime failure.
#[derive(Debug)]
pub(crate) enum CliError {
    /// Bad input.
    Bad(String),
    /// Bad input, followed by the usage text.
    Usage(String),
    /// A runtime failure, such as a fidelity miss, a bench regression or
    /// orphaned spans.
    Failed(String),
}

impl CliError {
    /// An argument no flag of `command` matches.
    pub(crate) fn unknown(command: &str, flag: &str) -> Self {
        CliError::Bad(format!("unknown {command} flag {flag:?}"))
    }

    /// This error, followed by the usage text.
    pub(crate) fn with_usage(self) -> Self {
        match self {
            CliError::Bad(message) => CliError::Usage(message),
            other => other,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (CliError::Bad(message) | CliError::Usage(message) | CliError::Failed(message)) = self;
        f.write_str(message)
    }
}

/// The library reports bad input as a `String`.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Bad(message)
    }
}

/// Reads a command line left to right as `--flag [value]` items. Every
/// failure is bad input whose message names the flag.
pub(crate) struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    pub(crate) fn new(args: &'a [String]) -> Self {
        Args(args.iter())
    }

    /// The next flag (or bare argument); `None` once all are read.
    pub(crate) fn flag(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value after `flag`.
    pub(crate) fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.flag()
            .ok_or_else(|| CliError::Bad(format!("{flag} needs a value")))
    }

    /// The value after `flag`, parsed.
    pub(crate) fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, CliError>
    where
        T::Err: Display,
    {
        self.value(flag)?
            .parse()
            .map_err(|e| CliError::Bad(format!("{flag}: {e}")))
    }

    /// The value after `flag` as `read` accepts it; a missing or
    /// rejected value fails as "`flag` needs `what`".
    pub(crate) fn checked<T>(
        &mut self,
        flag: &str,
        what: &str,
        read: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, CliError> {
        self.flag()
            .and_then(read)
            .ok_or_else(|| CliError::Bad(format!("{flag} needs {what}")))
    }

    pub(crate) fn positive<T: FromStr + PartialOrd + Default>(
        &mut self,
        flag: &str,
    ) -> Result<T, CliError> {
        self.checked(flag, "a positive integer", |v| {
            v.parse().ok().filter(|n| *n > T::default())
        })
    }

    pub(crate) fn fraction(&mut self, flag: &str) -> Result<f64, CliError> {
        self.checked(flag, "a fraction in [0, 1]", |v| {
            v.parse().ok().filter(|f| (0.0..=1.0).contains(f))
        })
    }

    pub(crate) fn percent(&mut self, flag: &str) -> Result<u8, CliError> {
        self.checked(flag, "a percentage in [0, 100]", |v| {
            v.parse().ok().filter(|&p| p <= 100)
        })
    }

    /// A comma-separated list, every item parsed.
    pub(crate) fn list<T: FromStr>(&mut self, flag: &str) -> Result<Vec<T>, CliError> {
        self.checked(flag, "a comma-separated list", |v| {
            v.split(',').map(|item| item.parse().ok()).collect()
        })
    }
}
