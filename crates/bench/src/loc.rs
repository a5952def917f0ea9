//! A comment-aware Rust line counter — our substitute for the `tokei`
//! analysis behind the paper's Table 2 ("we analyze our software in terms
//! of lines of code").

use std::path::{Path, PathBuf};

/// Line counts for one source set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocCount {
    /// Code lines (non-blank, non-comment).
    pub code: usize,
    /// Comment lines (`//` and `/* */`, including doc comments).
    pub comments: usize,
    /// Blank lines.
    pub blank: usize,
    /// Files counted.
    pub files: usize,
}

impl LocCount {
    /// Merges another count into this one.
    pub fn add(&mut self, other: LocCount) {
        self.code += other.code;
        self.comments += other.comments;
        self.blank += other.blank;
        self.files += other.files;
    }
}

/// The item after a `#[cfg(test)]` attribute, being skipped: test code
/// is compiled out of every enclave, so it is no part of a TCB.
#[derive(Default)]
struct TestItem {
    depth: usize,
    opened: bool,
    in_str: bool,
}

impl TestItem {
    /// Scans one line of the item; `true` once the item has ended — at
    /// the brace closing its body, or at a `;` before any body opened.
    /// Braces in string and char literals and in `//` comments do not
    /// count.
    fn ends_on(&mut self, line: &str) -> bool {
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            match chars[i] {
                '\\' if self.in_str => i += 1,
                '"' => self.in_str = !self.in_str,
                _ if self.in_str => {}
                '/' if chars.get(i + 1) == Some(&'/') => break,
                '\'' if chars.get(i + 2) == Some(&'\'') => i += 2,
                '{' => {
                    self.depth += 1;
                    self.opened = true;
                }
                '}' => {
                    self.depth = self.depth.saturating_sub(1);
                    if self.depth == 0 {
                        return true;
                    }
                }
                ';' if !self.opened => return true,
                _ => {}
            }
            i += 1;
        }
        false
    }
}

/// Counts one Rust source string. The item following each
/// `#[cfg(test)]` attribute (a test module, a test-only helper) is
/// skipped: its lines count as nothing.
pub fn count_source(source: &str) -> LocCount {
    let mut count = LocCount { files: 1, ..Default::default() };
    let mut in_block_comment = false;
    let mut test_item: Option<TestItem> = None;
    for line in source.lines() {
        let trimmed = line.trim();
        if let Some(item) = &mut test_item {
            if item.ends_on(line) {
                test_item = None;
            }
            continue;
        }
        if !in_block_comment {
            if let Some(rest) = trimmed.strip_prefix("#[cfg(test)]") {
                let mut item = TestItem::default();
                if !item.ends_on(rest) {
                    test_item = Some(item);
                }
                continue;
            }
        }
        if in_block_comment {
            count.comments += 1;
            if trimmed.contains("*/") {
                in_block_comment = false;
            }
            continue;
        }
        if trimmed.is_empty() {
            count.blank += 1;
        } else if trimmed.starts_with("//") {
            count.comments += 1;
        } else if trimmed.starts_with("/*") {
            count.comments += 1;
            if !trimmed.contains("*/") {
                in_block_comment = true;
            }
        } else {
            count.code += 1;
        }
    }
    count
}

/// Counts a single `.rs` file.
pub fn count_file(path: &Path) -> std::io::Result<LocCount> {
    Ok(count_source(&std::fs::read_to_string(path)?))
}

fn collect_rs_files(path: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    for entry in std::fs::read_dir(path)? {
        let entry = entry?;
        collect_rs_files(&entry.path(), out)?;
    }
    Ok(())
}

/// Counts every `.rs` file under each of `paths` (files or directories),
/// relative to `root`.
pub fn count_paths(root: &Path, paths: &[&str]) -> std::io::Result<LocCount> {
    let mut total = LocCount::default();
    for rel in paths {
        let mut files = Vec::new();
        collect_rs_files(&root.join(rel), &mut files)?;
        for f in files {
            total.add(count_file(&f)?);
        }
    }
    Ok(total)
}

/// Locates the workspace root from the compiled crate's manifest dir.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).expect("crates/bench has a workspace root").to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_comments_and_blanks() {
        let src = "\
// a comment
fn main() {

    /* block
       comment */
    let x = 1; // trailing comments count as code lines
}
";
        let c = count_source(src);
        assert_eq!(c.code, 3, "{c:?}"); // fn, let, closing brace
        assert_eq!(c.comments, 3);
        assert_eq!(c.blank, 1);
    }

    #[test]
    fn skips_the_item_after_a_cfg_test_attribute() {
        let src = r#"
fn kept() {}
#[cfg(test)]
use helper::thing;
#[cfg(test)]
#[allow(dead_code)]
mod tests {
    // A brace in a comment: {
    fn f() -> char {
        let s = "}}} not a brace {";
        let q = '"';
        let _ = (s, q);
        '}'
    }
}
fn also_kept() {
    let x = 1;
}
#[cfg(test)] fn one_line() { }
"#;
        let c = count_source(src);
        assert_eq!(c.code, 4, "{c:?}"); // kept, also_kept's three lines
        assert_eq!(c.comments, 0);
        assert_eq!(c.blank, 1);
    }

    #[test]
    fn counts_real_workspace_files() {
        let root = workspace_root();
        let c = count_paths(&root, &["crates/types/src"]).unwrap();
        assert!(c.files >= 7, "found {} files", c.files);
        assert!(c.code > 500, "counted {} code lines", c.code);
        assert!(c.comments > 100);
    }
}
