//! `unsafe` pass: the workspace's `unsafe` stays where it was reviewed,
//! and each use says why it is sound.
//!
//! Rationale (ISSUE 21): the only `unsafe` in the tree is the two hash
//! kernels' CPU-instruction code (DESIGN.md "Hash kernels"). Anywhere else
//! an `unsafe` is a finding, whatever it does — adding a file to
//! [`UNSAFE_FILES`] is the review. Inside those files every `unsafe` block
//! (or `impl`) must sit under a `// SAFETY:` comment naming what makes it
//! sound, and every `unsafe fn` (or `trait`) must carry a `# Safety` doc
//! section stating what its callers must uphold. Test code is scanned too:
//! it runs in the same process as everything else.

use crate::diag::Diagnostic;
use crate::lexer::{lex, Tok};
use crate::workspace::SourceFile;

const PASS: &str = "unsafe";

/// The only files allowed to contain `unsafe`, workspace-relative.
pub const UNSAFE_FILES: &[&str] = &["crates/crypto/src/sha256.rs", "crates/obs/src/crc32.rs"];

/// Runs the pass over one file, appending findings.
pub fn check_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let lexed = lex(&file.text);
    let lines: Vec<&str> = file.text.lines().collect();
    let allowed = UNSAFE_FILES.contains(&file.rel_path.as_str());
    for (i, t) in lexed.tokens.iter().enumerate() {
        if !t.tok.is_ident("unsafe") {
            continue;
        }
        let next = lexed.tokens.get(i + 1).map(|n| &n.tok);
        let declares = matches!(next, Some(Tok::Ident(kw)) if kw == "fn" || kw == "trait");
        let message = if !allowed {
            format!(
                "`unsafe` outside the reviewed kernel files ({}); keep it there or add the file \
                 to `lint::unsafety::UNSAFE_FILES` with a review",
                UNSAFE_FILES.join(", ")
            )
        } else if declares && !doc_has_safety_section(&lines, t.line) {
            "`unsafe fn` without a `# Safety` doc section: state what callers must uphold"
                .to_owned()
        } else if !declares && !comment_has_safety(&lines, t.line) {
            "`unsafe` block without a `// SAFETY:` comment directly above it: name the detection \
             and the bounds that make it sound"
                .to_owned()
        } else {
            continue;
        };
        out.push(Diagnostic::new(PASS, &file.rel_path, t.line, message));
    }
}

/// The lines directly above 1-based `line` that satisfy `keep`, nearest
/// first.
fn block_above<'a>(
    lines: &'a [&str],
    line: u32,
    keep: impl Fn(&str) -> bool,
) -> impl Iterator<Item = &'a str> {
    let above = lines
        .get(..(line as usize).saturating_sub(1))
        .unwrap_or(&[]);
    above
        .iter()
        .rev()
        .map(|l| l.trim())
        .take_while(move |l| keep(l))
}

/// A `// SAFETY:` line in the comment block directly above `line`, or
/// trailing on the line itself.
fn comment_has_safety(lines: &[&str], line: u32) -> bool {
    let own = lines
        .get((line as usize).saturating_sub(1))
        .is_some_and(|l| l.contains("// SAFETY:"));
    own || block_above(lines, line, |l| l.starts_with("//")).any(|l| l.starts_with("// SAFETY:"))
}

/// A `# Safety` heading in the doc comment above `line`, attributes
/// in between allowed.
fn doc_has_safety_section(lines: &[&str], line: u32) -> bool {
    block_above(lines, line, |l| l.starts_with("///") || l.starts_with("#["))
        .any(|l| l.trim_start_matches('/').trim() == "# Safety")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let file = SourceFile {
            rel_path: path.into(),
            crate_name: "obs".into(),
            text: src.into(),
        };
        let mut out = Vec::new();
        check_file(&file, &mut out);
        out
    }

    const KERNEL: &str = "crates/obs/src/crc32.rs";

    #[test]
    fn documented_block_and_fn_pass_in_a_kernel_file() {
        let src = r#"
            fn f(p: *const u8) -> u8 {
                // SAFETY: p points at a live byte.
                unsafe { *p }
            }
            /// Reads one byte.
            ///
            /// # Safety
            ///
            /// `p` must point at a live byte.
            #[inline]
            unsafe fn g(p: *const u8) -> u8 { *p }
        "#;
        assert!(run(KERNEL, src).is_empty(), "{:?}", run(KERNEL, src));
    }

    #[test]
    fn safety_comment_must_be_directly_above() {
        let src = "// SAFETY: about something else\n\nfn f() { unsafe { g() } }";
        let d = run(KERNEL, src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("SAFETY"));
    }

    #[test]
    fn any_unsafe_elsewhere_is_flagged_even_in_tests_and_even_documented() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn f() {
                    // SAFETY: documented, but not in a reviewed file.
                    unsafe { g() }
                }
            }
        "#;
        let d = run("crates/relay/src/service.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("outside"));
    }

    #[test]
    fn the_word_in_strings_and_comments_is_not_code() {
        let src = "// unsafe { }\nconst S: &str = \"unsafe fn\";";
        assert!(run("crates/relay/src/service.rs", src).is_empty());
    }
}
