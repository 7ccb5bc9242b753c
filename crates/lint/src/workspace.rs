//! Workspace discovery and source loading.
//!
//! The analyzer walks `crates/*/src/**.rs` under the workspace root. Test
//! directories (`tests/`, `benches/`, `examples/`) and the lint crate's
//! own fixtures are never part of the analyzed tree; in-file test items
//! are stripped at the token level by [`crate::lexer::strip_test_items`].

use std::path::{Path, PathBuf};

/// A loaded source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (`crates/relay/src/service.rs`).
    pub rel_path: String,
    /// The crate directory name (`relay`, `crypto`, ...).
    pub crate_name: String,
    /// Full file text.
    pub text: String,
}

/// Finds the workspace root: the nearest ancestor of `start` containing a
/// `Cargo.toml` with a `[workspace]` table.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Every crate directory name under `crates/`, sorted.
pub fn crate_names(root: &Path) -> std::io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let entry = entry?;
        if entry.path().is_dir() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    Ok(names)
}

/// Loads every `src/**/*.rs` of the given crates (by crate directory name).
pub fn load_crates(root: &Path, crates: &[&str]) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    for name in crates {
        let src = root.join("crates").join(name).join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        walk(&src, &mut files)?;
        files.sort();
        for path in files {
            let text = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile {
                rel_path: rel,
                crate_name: (*name).to_owned(),
                text,
            });
        }
    }
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
