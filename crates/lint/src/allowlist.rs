//! The consolidated per-rule allow-lists.
//!
//! Every rule-level exemption in the linter lives here, in one place,
//! with the reason it exists. These are *structural* exemptions — "this
//! file is the sanctioned implementation of the thing the rule bans" —
//! as opposed to per-site `// orv-lint: allow(...)` suppressions, which
//! carry their reason inline.
//!
//! The unit test at the bottom asserts every listed path exists in the
//! workspace: when a sanctioned file is renamed or deleted, the stale
//! entry fails the build instead of silently widening the exemption to
//! a file that may someday reappear under that name.

/// The registry module itself defines the canonical strings.
pub const L005_ALLOWED: &[&str] = &["crates/obs/src/names.rs"];

/// The files implementing the sanctioned retry machinery — their internal
/// loops *are* the policy.
pub const L007_ALLOWED: &[&str] = &["crates/cluster/src/fault.rs"];

/// Where a `BdsService` may be built or asked for a sub-table directly:
/// the crate that implements the interface (and its one client, the
/// `SubTableReader`), and the reference oracle, which reads below the
/// reader so it shares nothing with the paths it checks.
pub const L007_READ_ALLOWED: &[&str] = &["crates/join/src/reference.rs"];
pub const L007_READ_ALLOWED_DIRS: &[&str] = &["crates/bds/src/"];

/// Every file-path allowlist, labelled, for the existence test and for
/// `orv-lint --allowlists` style introspection.
pub const ALL_FILE_LISTS: &[(&str, &[&str])] = &[
    ("L005_ALLOWED", L005_ALLOWED),
    ("L007_ALLOWED", L007_ALLOWED),
    ("L007_READ_ALLOWED", L007_READ_ALLOWED),
];

/// Every directory-prefix allowlist, labelled.
pub const ALL_DIR_LISTS: &[(&str, &[&str])] = &[("L007_READ_ALLOWED_DIRS", L007_READ_ALLOWED_DIRS)];

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn workspace_root() -> std::path::PathBuf {
        // crates/lint → workspace root is two levels up.
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root resolves")
    }

    #[test]
    fn every_allowlisted_file_exists() {
        let root = workspace_root();
        for (list, paths) in ALL_FILE_LISTS {
            for p in *paths {
                assert!(
                    root.join(p).is_file(),
                    "{list} entry `{p}` does not exist — remove the stale exemption"
                );
            }
        }
    }

    #[test]
    fn every_allowlisted_dir_exists() {
        let root = workspace_root();
        for (list, dirs) in ALL_DIR_LISTS {
            for d in *dirs {
                assert!(
                    root.join(d).is_dir(),
                    "{list} entry `{d}` does not exist — remove the stale exemption"
                );
            }
        }
    }

    #[test]
    fn allowlists_have_no_duplicates() {
        for (list, paths) in ALL_FILE_LISTS.iter().chain(ALL_DIR_LISTS) {
            let mut sorted: Vec<_> = paths.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                paths.len(),
                "{list} contains a duplicate entry"
            );
        }
    }
}
