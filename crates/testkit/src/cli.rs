//! Unified command-line parsing for the workspace binaries.
//!
//! Every in-tree binary (the experiment/figure binaries of `l15-bench`,
//! the `l15-serve` service and its `loadgen` client) accepts the same
//! flag grammar:
//!
//! * `--quick` — shrink the workload to a seconds-scale smoke run;
//! * declared *boolean* flags (present or absent);
//! * declared *value* flags consuming one unsigned integer (`--port 8080`).
//!
//! Unknown flags, missing values and non-numeric values are errors; the
//! [`parse_or_exit`] entry prints a usage line and exits with status 2, so
//! a typo can never be silently ignored.

/// The result of parsing a binary's arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Parsed {
    /// `--quick` was given.
    pub quick: bool,
    bools: Vec<String>,
    values: Vec<(String, u64)>,
}

impl Parsed {
    /// Whether the declared boolean flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }

    /// The value of the declared value flag `name`, if given.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// [`Parsed::value`] with a default.
    pub fn value_or(&self, name: &str, default: u64) -> u64 {
        self.value(name).unwrap_or(default)
    }
}

/// Parses `args` (program name already stripped) against the declared
/// flags. `--quick` is always accepted; `bool_flags` and `value_flags`
/// declare the rest. A value flag given twice keeps its last value.
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values and
/// values that do not parse as `u64`.
pub fn parse_args(
    args: &[String],
    bool_flags: &[&str],
    value_flags: &[&str],
) -> Result<Parsed, String> {
    let mut out = Parsed::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg == "--quick" {
            out.quick = true;
        } else if bool_flags.contains(&arg) {
            if !out.flag(arg) {
                out.bools.push(arg.to_owned());
            }
        } else if value_flags.contains(&arg) {
            let v = args.get(i + 1).ok_or_else(|| format!("`{arg}` needs a value"))?;
            let parsed =
                v.parse::<u64>().map_err(|_| format!("`{arg}` needs a number, got {v:?}"))?;
            out.values.retain(|(n, _)| n != arg);
            out.values.push((arg.to_owned(), parsed));
            i += 1;
        } else {
            return Err(format!("unknown argument {arg:?}"));
        }
        i += 1;
    }
    Ok(out)
}

/// The usage line [`parse_or_exit`] prints: `usage: <bin> [--quick]` plus
/// every declared flag.
pub fn usage(bin: &str, bool_flags: &[&str], value_flags: &[&str]) -> String {
    let bools: String = bool_flags.iter().map(|f| format!(" [{f}]")).collect();
    let values: String = value_flags.iter().map(|f| format!(" [{f} N]")).collect();
    format!("usage: {bin} [--quick]{bools}{values}")
}

/// [`parse_args`] over the real command line; prints the error and the
/// usage line to stderr and exits with status 2 on invalid arguments.
/// Every workspace binary calls this as its first statement.
pub fn parse_or_exit(bin: &str, bool_flags: &[&str], value_flags: &[&str]) -> Parsed {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args, bool_flags, value_flags) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{bin}: {e}");
            eprintln!("{}", usage(bin, bool_flags, value_flags));
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn quick_is_always_accepted() {
        let p = parse_args(&args(&["--quick"]), &[], &[]).unwrap();
        assert!(p.quick);
        assert!(!parse_args(&args(&[]), &[], &[]).unwrap().quick);
    }

    #[test]
    fn bool_and_value_flags_parse() {
        let p =
            parse_args(&args(&["--smoke", "--port", "8080", "--quick"]), &["--smoke"], &["--port"])
                .unwrap();
        assert!(p.quick && p.flag("--smoke"));
        assert_eq!(p.value("--port"), Some(8080));
        assert_eq!(p.value_or("--conns", 4), 4);
    }

    #[test]
    fn last_value_wins() {
        let p = parse_args(&args(&["--port", "1", "--port", "2"]), &[], &["--port"]).unwrap();
        assert_eq!(p.value("--port"), Some(2));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_args(&args(&["--typo"]), &[], &[]).is_err());
        assert!(parse_args(&args(&["--port"]), &[], &["--port"]).is_err());
        assert!(parse_args(&args(&["--port", "lots"]), &[], &["--port"]).is_err());
        assert!(parse_args(&args(&["--smoke"]), &[], &[]).is_err(), "undeclared bool flag");
    }

    #[test]
    fn usage_lists_every_flag() {
        let u = usage("loadgen", &["--smoke"], &["--port", "--conns"]);
        assert_eq!(u, "usage: loadgen [--quick] [--smoke] [--port N] [--conns N]");
    }
}
