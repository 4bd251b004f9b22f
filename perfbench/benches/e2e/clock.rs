//! The bench's one clock. Every timing in the benchmark reads it here,
//! the way the workspace confines clock reads to its timing module (lint
//! L002 and its clippy mirror): this whole package is a timing harness.

use std::time::Instant;

/// The current instant.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}
