//! Stand-in for `bytes`: four crates declare it, none imports it.
