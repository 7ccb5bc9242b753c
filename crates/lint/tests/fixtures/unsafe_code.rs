// Fixture for the `unsafe` pass: one sound-looking use of each kind and
// one seeded violation of each kind.

fn documented_block(p: *const u8) -> u8 {
    // SAFETY: the caller hands over a pointer to a live byte.
    unsafe { *p }
}

fn undocumented_block(p: *const u8) -> u8 {
    unsafe { *p } // seeded: no SAFETY comment
}

/// Reads one byte.
///
/// # Safety
///
/// `p` must point at a live byte.
unsafe fn documented_fn(p: *const u8) -> u8 {
    // SAFETY: forwarded from this function's own contract.
    unsafe { *p }
}

/// Reads one byte (seeded: no `# Safety` section).
unsafe fn undocumented_fn(p: *const u8) -> u8 {
    // SAFETY: forwarded from this function's own contract.
    unsafe { *p }
}
