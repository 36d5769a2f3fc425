//! Command-line arguments of the bench binaries.
//!
//! A binary reads each of its flags once, with [`Args::value`],
//! [`Args::required`], [`Args::parse`], [`Args::parse_with`] or
//! [`Args::switch`], and then calls [`Args::finish`] before any other
//! work. `finish` exits with code 2, printing one line per problem and a
//! usage line built from the flags read, when an argument was not consumed
//! (an unknown flag, `--help`, a positional argument) or a read met a
//! problem (a flag without its value, or an unparsable, repeated or
//! non-UTF-8 value). A flag's value is the argument after it, unless that
//! argument starts with `--`.

use std::ffi::OsString;
use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;

use crate::Harness;

/// The arguments of one process, consumed by the flags its binary reads.
pub struct Args {
    program: String,
    /// The arguments after the program path; `Err` holds a non-UTF-8 one.
    args: Vec<Result<String, OsString>>,
    used: Vec<bool>,
    problems: Vec<String>,
    usage: String,
}

impl Args {
    /// The arguments of this process.
    pub fn from_env() -> Args {
        Args::new(std::env::args_os())
    }

    /// The arguments of `argv`, whose first item is the program path.
    fn new(argv: impl IntoIterator<Item = OsString>) -> Args {
        let mut argv = argv.into_iter();
        let program = argv.next().unwrap_or_default();
        let program = Path::new(&program).file_name().unwrap_or_default();
        let args: Vec<_> = argv.map(OsString::into_string).collect();
        Args {
            program: program.to_string_lossy().into_owned(),
            used: vec![false; args.len()],
            args,
            problems: Vec::new(),
            usage: String::new(),
        }
    }

    /// The value of `flag` if it is given; `meta` names it in the usage.
    pub fn value(&mut self, flag: &str, meta: &str) -> Option<String> {
        self.usage += &format!(" [{flag} {meta}]");
        self.take(flag, meta)
    }

    /// The value of `flag`, which must be given (empty when it is not).
    pub fn required(&mut self, flag: &str, meta: &str) -> String {
        self.usage += &format!(" {flag} {meta}");
        if !self.args.iter().any(|a| a.as_deref() == Ok(flag)) {
            self.problems.push(format!("{flag} is required"));
        }
        self.take(flag, meta).unwrap_or_default()
    }

    /// The value of `flag` parsed as a `T`, if it is given.
    pub fn parse<T: FromStr<Err: Display>>(&mut self, flag: &str, meta: &str) -> Option<T> {
        self.parse_with(flag, meta, |raw| {
            raw.parse().map_err(|e: T::Err| e.to_string())
        })
    }

    /// The value of `flag` converted by `parse`, whose error says what is
    /// wrong with it, if the flag is given.
    pub fn parse_with<T>(
        &mut self,
        flag: &str,
        meta: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Option<T> {
        let raw = self.value(flag, meta)?;
        parse(&raw)
            .map_err(|e| self.problems.push(format!("{flag} {raw:?}: {e}")))
            .ok()
    }

    /// Whether the switch `flag` is given.
    pub fn switch(&mut self, flag: &str) -> bool {
        self.usage += &format!(" [{flag}]");
        !self.occurrences(flag).is_empty()
    }

    /// Consumes every occurrence of `flag` with its value; the value when
    /// the flag occurs once.
    fn take(&mut self, flag: &str, meta: &str) -> Option<String> {
        let mut values = Vec::new();
        for i in self.occurrences(flag) {
            match self.args.get(i + 1) {
                Some(Ok(v)) if !v.starts_with("--") => values.push(v.clone()),
                Some(Err(raw)) => self.problems.push(format!("{flag} {raw:?} is not UTF-8")),
                _ => {
                    self.problems.push(format!("{flag} is missing its {meta}"));
                    continue;
                }
            }
            self.used[i + 1] = true;
        }
        values.pop().filter(|_| values.is_empty())
    }

    /// Consumes every occurrence of `flag`; more than one is a problem.
    fn occurrences(&mut self, flag: &str) -> Vec<usize> {
        let at: Vec<usize> = (0..self.args.len())
            .filter(|&i| self.args[i].as_deref() == Ok(flag))
            .collect();
        at.iter().for_each(|&i| self.used[i] = true);
        if at.len() > 1 {
            self.problems
                .push(format!("{flag} is given {} times", at.len()));
        }
        at
    }

    /// `Ok` when every argument was consumed without a problem; otherwise
    /// one line per problem and then the usage line.
    fn check(mut self) -> Result<(), String> {
        let unused = self.args.iter().zip(&self.used).filter(|(_, &used)| !used);
        self.problems.extend(unused.map(|(arg, _)| match arg {
            Ok(flag) if flag.starts_with("--") => format!("unknown flag {flag}"),
            Ok(arg) => format!("unexpected argument {arg:?}"),
            Err(raw) => format!("argument {raw:?} is not UTF-8"),
        }));
        if self.problems.is_empty() {
            return Ok(());
        }
        let (program, usage) = (&self.program, &self.usage);
        let lines: String = self
            .problems
            .iter()
            .map(|p| format!("{program}: {p}\n"))
            .collect();
        Err(format!("{lines}usage: {program}{usage}"))
    }

    /// Returns when every argument was consumed without a problem;
    /// otherwise prints one line per problem and the usage line to stderr
    /// and exits with code 2.
    pub fn finish(self) {
        if let Err(report) = self.check() {
            eprintln!("{report}");
            std::process::exit(2);
        }
    }
}

/// Serves the live metrics plane on `addr` (a `--metrics-addr` value)
/// unless `AQUA_METRICS_ADDR` already attached one; an address that cannot
/// be bound exits with code 2.
pub fn bind_metrics(harness: &mut Harness, addr: Option<String>) {
    let Some(addr) = addr.filter(|_| harness.metrics.is_none()) else {
        return;
    };
    match aqua_telemetry::MetricsPlane::bind(&addr) {
        Ok(plane) => harness.metrics = Some(plane),
        Err(e) => {
            eprintln!("cannot bind --metrics-addr {addr}: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The arguments of a command line split at spaces.
    fn args(line: &str) -> Args {
        Args::new(line.split(' ').map(OsString::from))
    }

    #[test]
    fn a_fully_consumed_mix_passes() {
        let mut a = args("target/release/p --epochs 3 --on --w -2.5");
        assert_eq!(a.parse::<u64>("--epochs", "N"), Some(3));
        assert_eq!(a.parse::<f64>("--w", "PP"), Some(-2.5));
        assert_eq!(a.value("--out", "FILE"), None);
        assert!(a.switch("--on") && !a.switch("--off"));
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn every_problem_is_reported_with_the_usage() {
        // Unknown flags, --help and a positional; a value that is another
        // flag, a trailing flag without one; an unparsable and a repeated
        // value; a missing required flag.
        let mut a =
            args("/bin/p --no-such --help x --out --on --epochs abc --seed 1 --seed 2 --trh");
        assert_eq!(a.required("--addr", "HOST:PORT"), "");
        assert_eq!(a.value("--out", "FILE"), None);
        assert!(a.switch("--on"));
        assert_eq!(a.parse::<u64>("--epochs", "N"), None);
        assert_eq!(a.parse::<u64>("--seed", "N"), None);
        assert_eq!(a.parse::<u64>("--trh", "N"), None);
        assert_eq!(
            a.check().unwrap_err(),
            "p: --addr is required\n\
             p: --out is missing its FILE\n\
             p: --epochs \"abc\": invalid digit found in string\n\
             p: --seed is given 2 times\n\
             p: --trh is missing its N\n\
             p: unknown flag --no-such\n\
             p: unknown flag --help\n\
             p: unexpected argument \"x\"\n\
             usage: p --addr HOST:PORT [--out FILE] [--on] [--epochs N] [--seed N] [--trh N]"
        );
    }

    #[cfg(unix)]
    #[test]
    fn arguments_that_are_not_utf8_are_reported() {
        use std::os::unix::ffi::OsStringExt;
        let bad = || OsString::from_vec(vec![b'x', 0xff]);
        let mut a = Args::new(["p".into(), "--out".into(), bad(), bad()]);
        assert_eq!(a.value("--out", "FILE"), None);
        assert_eq!(
            a.check().unwrap_err(),
            "p: --out \"x\\xFF\" is not UTF-8\n\
             p: argument \"x\\xFF\" is not UTF-8\n\
             usage: p [--out FILE]"
        );
    }
}
