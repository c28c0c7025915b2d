//! Parsing of `SPANGLE_*` environment knobs.
//!
//! Every knob is read here and nowhere else, through [`env_parse`], so an
//! invalid value is never silently ignored: the first time a malformed
//! knob is seen, one warning goes to stderr naming the variable, the
//! rejected value, and the default that will be used instead. (Silently
//! falling back would turn a typo like
//! `SPANGLE_MEMORY_WATERMARK_BYTES=abc` into a whole CI leg running at
//! defaults while claiming otherwise.)

use crate::sync::Mutex;
use std::collections::HashSet;
use std::str::FromStr;
use std::sync::OnceLock;

/// Variables already warned about, so a knob read in a loop (builders are
/// constructed per test) complains exactly once per process.
fn warned() -> &'static Mutex<HashSet<String>> {
    static WARNED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Reads and parses the environment knob `var`.
///
/// * unset (or not valid UTF-8 and empty) — `None`, silently;
/// * set to a value `T` parses — `Some(value)`;
/// * set to anything else — `None`, after warning once to stderr that the
///   value was rejected and the built-in default stands.
pub(crate) fn env_parse<T: FromStr>(var: &str) -> Option<T> {
    let raw = std::env::var_os(var)?;
    let text = raw.to_string_lossy();
    match text.trim().parse::<T>() {
        Ok(value) => Some(value),
        Err(_) => {
            if warned().lock().insert(var.to_string()) {
                eprintln!(
                    "spangle: ignoring invalid {var}={text:?} (cannot parse as {}); \
                     using the built-in default",
                    std::any::type_name::<T>()
                );
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_knobs_fall_back_to_default_and_valid_ones_parse() {
        // A variable name no other test uses, so parallel test threads
        // cannot race this mutation.
        let var = "SPANGLE_ENV_PARSE_UNIT_TEST_MS";
        std::env::remove_var(var);
        assert_eq!(env_parse::<u64>(var), None, "unset is silently None");

        std::env::set_var(var, "abc");
        assert_eq!(env_parse::<u64>(var), None, "invalid falls back");
        // The warn-once set now contains the var; a second read still
        // returns None without panicking (and without a second warning).
        assert_eq!(env_parse::<u64>(var), None);
        assert!(warned().lock().contains(var), "must have warned");

        std::env::set_var(var, " 42 ");
        assert_eq!(env_parse::<u64>(var), Some(42), "valid (trimmed) parses");
        std::env::remove_var(var);
    }
}
