//! Bulk, column-at-a-time operators.
//!
//! These are the non-adaptive building blocks: full-column scans with range
//! predicates ([`select`]), late-materializing projections ([`project`]) and
//! aggregations ([`aggregate`]). The adaptive operators in the other crates
//! replace only the *selection* path; everything downstream keeps consuming
//! position lists from here.

pub mod aggregate;
pub mod project;
pub mod select;
