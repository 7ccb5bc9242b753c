//! Diagnostics shared by all passes.

use std::fmt;

/// A single finding, anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Pass that produced the finding (`lock-order`, `panic`, `ct`, `wire`,
    /// `obs`, `sync`, `unsafe`).
    pub pass: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line; 0 when the finding is not line-anchored.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    pub fn new(
        pass: &'static str,
        file: impl Into<String>,
        line: u32,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            pass,
            file: file.into(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "[{}] {}: {}", self.pass, self.file, self.message)
        } else {
            write!(
                f,
                "[{}] {}:{}: {}",
                self.pass, self.file, self.line, self.message
            )
        }
    }
}
