//! Pluggable relay discovery.
//!
//! The relay "designed to support pluggable discovery services, performs a
//! lookup using such a service for the address of the destination relay
//! based on the remote network's name" (paper §3.3, Step 2). The paper's
//! proof-of-concept plugged "a local file-based registry" into the SWT
//! relay; both that and a static in-memory registry are provided.

use crate::error::RelayError;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Resolves a network name to a relay endpoint string.
///
/// Endpoint strings are transport-specific, e.g. `inproc:stl-relay-0` for
/// the in-process bus or `tcp:127.0.0.1:9040` for the TCP transport.
pub trait DiscoveryService: Send + Sync {
    /// Looks up the relay endpoint for `network_id`.
    ///
    /// # Errors
    ///
    /// Returns [`RelayError::DiscoveryFailed`] when the network is unknown.
    fn lookup(&self, network_id: &str) -> Result<String, RelayError>;
}

/// A static in-memory registry.
#[derive(Debug, Default)]
pub struct StaticRegistry {
    entries: RwLock<HashMap<String, String>>,
}

impl StaticRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the endpoint for a network.
    pub fn register(&self, network_id: impl Into<String>, endpoint: impl Into<String>) {
        self.entries
            .write()
            .insert(network_id.into(), endpoint.into());
    }
}

impl DiscoveryService for StaticRegistry {
    fn lookup(&self, network_id: &str) -> Result<String, RelayError> {
        self.entries.read().get(network_id).cloned().ok_or_else(|| {
            RelayError::DiscoveryFailed(format!("network {network_id:?} not registered"))
        })
    }
}

/// The paper's local file-based registry: a text file of
/// `network_id=endpoint` lines, re-read on every lookup so out-of-band
/// updates take effect immediately.
#[derive(Debug)]
pub struct FileRegistry {
    path: PathBuf,
}

impl FileRegistry {
    /// Creates a registry backed by `path`.
    pub fn new(path: impl AsRef<Path>) -> Self {
        FileRegistry {
            path: path.as_ref().to_path_buf(),
        }
    }

    /// Writes a full registry file (helper for setup code and tests).
    ///
    /// # Errors
    ///
    /// Returns [`RelayError::DiscoveryFailed`] when the file can't be written.
    pub fn write_entries<'a, I>(path: impl AsRef<Path>, entries: I) -> Result<(), RelayError>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let mut content = String::new();
        for (network, endpoint) in entries {
            content.push_str(network);
            content.push('=');
            content.push_str(endpoint);
            content.push('\n');
        }
        std::fs::write(path, content)
            .map_err(|e| RelayError::DiscoveryFailed(format!("cannot write registry: {e}")))
    }
}

impl DiscoveryService for FileRegistry {
    fn lookup(&self, network_id: &str) -> Result<String, RelayError> {
        let content = std::fs::read_to_string(&self.path).map_err(|e| {
            RelayError::DiscoveryFailed(format!(
                "cannot read registry {}: {e}",
                self.path.display()
            ))
        })?;
        for line in content.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((network, endpoint)) = line.split_once('=') {
                if network.trim() == network_id {
                    return Ok(endpoint.trim().to_string());
                }
            }
        }
        Err(RelayError::DiscoveryFailed(format!(
            "network {network_id:?} not in registry {}",
            self.path.display()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_registry_roundtrip() {
        let reg = StaticRegistry::new();
        assert!(reg.lookup("stl").is_err());
        reg.register("stl", "inproc:stl-relay");
        assert_eq!(reg.lookup("stl").unwrap(), "inproc:stl-relay");
    }

    #[test]
    fn static_registry_replaces() {
        let reg = StaticRegistry::new();
        reg.register("stl", "a");
        reg.register("stl", "b");
        assert_eq!(reg.lookup("stl").unwrap(), "b");
    }

    #[test]
    fn file_registry_lookup() {
        let dir = std::env::temp_dir().join(format!("tdt-reg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("registry.txt");
        FileRegistry::write_entries(
            &path,
            [("stl", "tcp:127.0.0.1:9040"), ("swt", "inproc:swt-relay")],
        )
        .unwrap();
        let reg = FileRegistry::new(&path);
        assert_eq!(reg.lookup("stl").unwrap(), "tcp:127.0.0.1:9040");
        assert_eq!(reg.lookup("swt").unwrap(), "inproc:swt-relay");
        assert!(reg.lookup("other").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_registry_tolerates_comments_and_blanks() {
        let dir = std::env::temp_dir().join(format!("tdt-reg2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("registry.txt");
        std::fs::write(&path, "# comment\n\n  stl = tcp:1.2.3.4:9 \n").unwrap();
        let reg = FileRegistry::new(&path);
        assert_eq!(reg.lookup("stl").unwrap(), "tcp:1.2.3.4:9");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_registry_missing_file() {
        let reg = FileRegistry::new("/nonexistent/registry.txt");
        assert!(matches!(
            reg.lookup("stl"),
            Err(RelayError::DiscoveryFailed(_))
        ));
    }

    #[test]
    fn file_registry_reflects_updates() {
        let dir = std::env::temp_dir().join(format!("tdt-reg3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("registry.txt");
        FileRegistry::write_entries(&path, [("stl", "old")]).unwrap();
        let reg = FileRegistry::new(&path);
        assert_eq!(reg.lookup("stl").unwrap(), "old");
        FileRegistry::write_entries(&path, [("stl", "new")]).unwrap();
        assert_eq!(reg.lookup("stl").unwrap(), "new");
        std::fs::remove_dir_all(&dir).ok();
    }
}
