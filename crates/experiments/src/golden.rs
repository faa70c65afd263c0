//! The golden tests' one compare-or-regenerate routine.

use std::path::Path;

use crate::RunnerOptions;

/// Check `current` against the golden file at `path`. With
/// `PSA_UPDATE_GOLDEN=1` ([`RunnerOptions::update_golden`]) the file is
/// rewritten instead, its directory created if need be.
///
/// # Panics
///
/// Panics, naming the file, when the golden is missing or `current`
/// differs from it: at the first differing line, then on a line-count
/// mismatch, then on any remaining byte difference (line endings). Also
/// panics on a malformed `PSA_*` variable or a failed regeneration.
#[track_caller]
pub fn check(path: impl AsRef<Path>, current: &str) {
    let update = RunnerOptions::from_env()
        .expect("PSA_* variables parse")
        .update_golden;
    check_or_update(path.as_ref(), current, update);
}

#[track_caller]
fn check_or_update(path: &Path, current: &str, update: bool) {
    let at = path.display();
    if update {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        }
        std::fs::write(path, current).unwrap_or_else(|e| panic!("write {at}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("no golden at {at}: {e}; regenerate with PSA_UPDATE_GOLDEN=1"));
    if current == golden {
        return;
    }
    for (i, (c, g)) in current.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            c,
            g,
            "{at} diverged at line {} (regenerate with PSA_UPDATE_GOLDEN=1 only if the \
             change is intentional)",
            i + 1
        );
    }
    let (c, g) = (current.lines().count(), golden.lines().count());
    assert_eq!(c, g, "{at} has {g} lines, the current output {c}");
    panic!("{at} differs from the current output in its line endings");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn dir(test: &str) -> PathBuf {
        std::env::temp_dir().join(format!("psa-golden-{test}-{}", std::process::id()))
    }

    /// The panic message `check_or_update` raises against `golden`.
    fn failure(test: &str, golden: &str, current: &str) -> String {
        let path = dir(test).join("g.txt");
        check_or_update(&path, golden, true);
        let err = std::panic::catch_unwind(|| check_or_update(&path, current, false))
            .expect_err("a differing output fails");
        std::fs::remove_dir_all(dir(test)).unwrap();
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn regenerates_into_a_new_directory_then_passes() {
        let path = dir("regen").join("nested/g.txt");
        check_or_update(&path, "a\nb\n", true);
        check_or_update(&path, "a\nb\n", false);
        std::fs::remove_dir_all(dir("regen")).unwrap();
    }

    #[test]
    fn names_the_file_and_the_first_differing_line() {
        let msg = failure("line", "a\nb\nc\n", "a\nB\nC\n");
        assert!(msg.contains("g.txt diverged at line 2"), "{msg}");
    }

    #[test]
    fn a_missing_line_an_extra_line_or_a_line_ending_fails() {
        let msg = failure("short", "a\nb\n", "a\n");
        assert!(msg.contains("has 2 lines, the current output 1"), "{msg}");
        let msg = failure("long", "a\nb\n", "a\nb\nc\n");
        assert!(msg.contains("has 2 lines, the current output 3"), "{msg}");
        let msg = failure("ending", "a\nb\n", "a\nb");
        assert!(msg.contains("line endings"), "{msg}");
    }
}
