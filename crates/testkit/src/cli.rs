//! Unified command-line parsing: every `l15` subcommand declares a
//! [`Grammar`] and gets its arguments through [`parse_args`]. Besides
//! `--quick` (always accepted: shrink the workload to a seconds-scale
//! smoke run) a grammar declares boolean flags, *number* flags consuming
//! one unsigned integer in decimal or `0x` hex ([`parse_u64`]: `--port
//! 8080`, `--seed 0x1282c5cd2debcee8`), *string* flags consuming one word
//! (`--out FILE`) and positionals (`<dir>` required, `[count]` optional).
//!
//! Unknown flags, missing values, non-numeric values and missing or
//! surplus positionals are errors, which `l15` reports as usage errors
//! (exit status 2), so a typo can never be silently ignored.

/// What one command accepts besides `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct Grammar {
    /// Present-or-absent flags.
    pub bools: &'static [&'static str],
    /// Flags consuming one number.
    pub numbers: &'static [&'static str],
    /// Flags consuming one string.
    pub strings: &'static [&'static str],
    /// Positional names in order: `<name>` is required, `[name]` optional.
    pub positionals: &'static [&'static str],
}

/// The result of parsing a command's arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Parsed {
    /// `--quick` was given.
    pub quick: bool,
    bools: Vec<String>,
    values: Vec<(String, String)>,
    positionals: Vec<String>,
}

impl Parsed {
    /// Whether the declared boolean flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }

    /// The value of the declared string or number flag `name`, if given.
    pub fn string(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The value of the declared number flag `name`, if given.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.string(name).and_then(parse_u64)
    }

    /// [`Parsed::value`] with a default.
    pub fn value_or(&self, name: &str, default: u64) -> u64 {
        self.value(name).unwrap_or(default)
    }

    /// [`Parsed::value_or`] narrowed to `T`: an error when the value does
    /// not fit (`--port 70000` must not wrap to 4464).
    pub fn number<T: TryFrom<u64>>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => T::try_from(v).map_err(|_| format!("`{name}` is out of range, got {v}")),
        }
    }

    /// The `i`-th positional argument, if given.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }
}

/// Parses an unsigned integer in decimal or with a `0x` / `0X` hex prefix,
/// surrounding whitespace ignored — the form every printed seed takes, so
/// a seed pastes straight back into a flag or `L15_PROP_SEED`.
pub fn parse_u64(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

/// Parses `args` against `grammar`; a value flag given twice keeps its
/// last value. The error is a human-readable message.
pub fn parse_args(args: &[String], grammar: &Grammar) -> Result<Parsed, String> {
    let mut out = Parsed::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let arg = arg.as_str();
        let is_number = grammar.numbers.contains(&arg);
        if arg == "--quick" {
            out.quick = true;
        } else if grammar.bools.contains(&arg) {
            if !out.flag(arg) {
                out.bools.push(arg.to_owned());
            }
        } else if is_number || grammar.strings.contains(&arg) {
            let v = args.next().ok_or_else(|| format!("`{arg}` needs a value"))?;
            if is_number && parse_u64(v).is_none() {
                return Err(format!("`{arg}` needs a number, got {v:?}"));
            }
            out.values.retain(|(n, _)| n != arg);
            out.values.push((arg.to_owned(), v.clone()));
        } else if arg.starts_with("--") || out.positionals.len() == grammar.positionals.len() {
            return Err(format!("unknown argument {arg:?}"));
        } else {
            out.positionals.push(arg.to_owned());
        }
    }
    match grammar.positionals[out.positionals.len()..].first() {
        Some(missing) if missing.starts_with('<') => Err(format!("missing {missing}")),
        _ => Ok(out),
    }
}

/// The usage line of `command` under `grammar`: `<command> [--quick]`
/// plus every declared flag and positional.
pub fn usage(command: &str, g: &Grammar) -> String {
    let metavar = |f: &str| f.trim_start_matches('-').to_uppercase();
    let words = g
        .bools
        .iter()
        .map(|f| format!(" [{f}]"))
        .chain(g.numbers.iter().map(|f| format!(" [{f} N]")))
        .chain(g.strings.iter().map(|f| format!(" [{f} {}]", metavar(f))))
        .chain(g.positionals.iter().map(|p| format!(" {p}")));
    format!("{command} [--quick]{}", words.collect::<String>())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    const NONE: Grammar = Grammar { bools: &[], numbers: &[], strings: &[], positionals: &[] };

    #[test]
    fn quick_is_always_accepted() {
        let p = parse_args(&args(&["--quick"]), &NONE).unwrap();
        assert!(p.quick);
        assert!(!parse_args(&args(&[]), &NONE).unwrap().quick);
    }

    #[test]
    fn bool_and_value_flags_parse() {
        let g = Grammar { bools: &["--smoke"], numbers: &["--port"], ..NONE };
        let p = parse_args(&args(&["--smoke", "--port", "8080", "--quick"]), &g).unwrap();
        assert!(p.quick && p.flag("--smoke"));
        assert_eq!(p.value("--port"), Some(8080));
        assert_eq!(p.value_or("--conns", 4), 4);
    }

    #[test]
    fn last_value_wins() {
        let g = Grammar { numbers: &["--port"], strings: &["--out"], ..NONE };
        let p = parse_args(&args(&["--port", "1", "--out", "a", "--port", "2", "--out", "b"]), &g)
            .unwrap();
        assert_eq!(p.value("--port"), Some(2));
        assert_eq!(p.string("--out"), Some("b"));
    }

    #[test]
    fn numbers_take_decimal_or_hex() {
        let g = Grammar { numbers: &["--seed"], ..NONE };
        for (raw, want) in
            [("42", 42), ("0x2a", 42), ("0X2A", 42), ("0x1282c5cd2debcee8", 0x1282_c5cd_2deb_cee8)]
        {
            assert_eq!(
                parse_args(&args(&["--seed", raw]), &g).unwrap().value("--seed"),
                Some(want)
            );
        }
        for bad in ["", "0x", "-1", "12a", "0x1g", "0x10000000000000000"] {
            assert_eq!(parse_u64(bad), None, "{bad:?}");
        }
        assert_eq!(parse_u64(" 7\n"), Some(7));
    }

    #[test]
    fn strings_and_positionals_parse() {
        let g = Grammar { strings: &["--out"], positionals: &["<dir>", "[count]"], ..NONE };
        let p = parse_args(&args(&["d", "--out", "f.json", "5"]), &g).unwrap();
        assert_eq!(
            (p.positional(0), p.positional(1), p.positional(2)),
            (Some("d"), Some("5"), None)
        );
        assert_eq!(p.string("--out"), Some("f.json"));
        assert_eq!(parse_args(&args(&["d"]), &g).unwrap().positional(1), None);
        assert!(parse_args(&args(&[]), &g).is_err(), "missing required positional");
        assert!(parse_args(&args(&["d", "5", "6"]), &g).is_err(), "surplus positional");
    }

    #[test]
    fn narrowing_rejects_out_of_range_values() {
        let g = Grammar { numbers: &["--port"], ..NONE };
        let p = parse_args(&args(&["--port", "70000"]), &g).unwrap();
        assert!(p.number::<u16>("--port", 0).is_err(), "70000 must not wrap to 4464");
        let p = parse_args(&args(&["--port", "65535"]), &g).unwrap();
        assert_eq!(p.number::<u16>("--port", 0), Ok(65535));
        assert_eq!(Parsed::default().number::<u16>("--port", 8), Ok(8));
    }

    #[test]
    fn errors_are_reported() {
        let g = Grammar { numbers: &["--port"], strings: &["--out"], ..NONE };
        assert!(parse_args(&args(&["--typo"]), &NONE).is_err());
        assert!(parse_args(&args(&["stray"]), &NONE).is_err());
        assert!(parse_args(&args(&["--port"]), &g).is_err());
        assert!(parse_args(&args(&["--out"]), &g).is_err());
        assert!(parse_args(&args(&["--port", "lots"]), &g).is_err());
        assert!(parse_args(&args(&["--smoke"]), &NONE).is_err(), "undeclared bool flag");
    }

    #[test]
    fn usage_lists_every_flag() {
        let g = Grammar {
            bools: &["--smoke"],
            numbers: &["--port"],
            strings: &["--out"],
            positionals: &["<dir>"],
        };
        assert_eq!(usage("l15 x", &g), "l15 x [--quick] [--smoke] [--port N] [--out OUT] <dir>");
    }
}
