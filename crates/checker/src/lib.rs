//! Deterministic differential fuzzing and invariant checking for the ANN
//! evaluation stack.
//!
//! Six invariant classes, each seed-driven and fully reproducible:
//!
//! * [`Class::Diff`] — every [`Algorithm`](ann_core::Algorithm) variant
//!   must match brute force byte-for-byte under the canonical tie-break
//!   (per query, ascending `(distance, s_oid)`), across adversarial
//!   workloads: duplicates, coincident/collinear/clustered/skewed sets,
//!   `k ∈ {0, 1, |S|−1, |S|, >|S|}`, empty sides, `exclude_self`
//!   self-joins with duplicates, and `D ∈ {1, 2, 8}`. Failures shrink to
//!   a minimal reproducer and carry the diverging run's
//!   `ExecutionReport`.
//! * [`Class::Nxn`] — NXNDIST upper-bounds the true per-point NN
//!   distance, is never negative or NaN, and respects
//!   `MINMINDIST ≤ NXNDIST ≤ MAXMAXDIST` exactly, including degenerate
//!   (point, touching, coincident) MBR pairs at cancellation-prone
//!   offsets.
//! * [`Class::Kernels`] — every batched SoA kernel in
//!   [`ann_geom::kernels`] reproduces its scalar counterpart bit-for-bit
//!   on adversarial candidate sets (coincident/duplicate points, `1e8`
//!   offsets, degenerate boxes, `D ∈ {1, 2, 8}`), and the scalar
//!   `min_min_dist_sq_within` early exit accepts exactly the
//!   `MINMINDIST²`s within its bound, bit-equal.
//! * [`Class::Tree`] — MBRQT and R*-tree structural invariants and the
//!   exact object census survive random insert/delete interleavings.
//! * [`Class::Recovery`] — journal recovery after an injected torn-write
//!   crash lands on a committed prefix and is idempotent across reopens.
//! * [`Class::Faults`] — a query hit by a scheduled transient fault, bit
//!   flip, or device crash lands in exactly one of three clean outcomes:
//!   retried-and-byte-identical, a structured [`QueryError`]
//!   (`ann_core::QueryError`) with every pin released and a byte-identical
//!   re-run, or a quarantined page that fails fast until healed — never a
//!   panic, wrong answer, or poisoned pool.
//! * [`Class::Parallel`] — the morsel-driven parallel engine (DESIGN.md
//!   §16) is answer-invisible: every algorithm variant at
//!   `threads ∈ {2, 3, 8}` reproduces its serial run byte-for-byte on
//!   adversarial workloads, and a parallel query hit mid-flight by a
//!   cancel, deadline, exhausted budget, or injected storage fault lands
//!   in a typed [`QueryError`](ann_core::QueryError) with zero leaked
//!   pins and a byte-identical cold re-run.
//! * [`Class::Wire`] — the serving wire schema (DESIGN.md §14):
//!   fuzz-generated [`QuerySpec`](ann_core::QuerySpec)s round-trip
//!   `to_json → from_json` as the identity and byte-stably,
//!   [`QueryOutcome`](ann_core::QueryOutcome) distances survive JSON
//!   bit-exactly for arbitrary non-NaN bit patterns, trailing bytes and
//!   duplicate object keys are hard parse errors, and a randomly
//!   corrupted document never panics the hand-rolled parser.
//! * [`Class::Interleave`] — MVCC snapshot isolation (DESIGN.md §15):
//!   versioned commits racing pinned readers; every pinned snapshot's
//!   census and ANN answers stay byte-identical to brute force over
//!   exactly its version's point set, aborts and GC leave nothing
//!   pinned, and threaded pin/census/release loops never see a torn
//!   read.
//!
//! Run via `cargo run -p checker --bin fuzz -- --seed 1 --cases 200`.

pub mod common;
pub mod diff;
pub mod faults;
pub mod gen;
pub mod interleave;
pub mod invariants;
pub mod parallel;
pub mod report;
pub mod shrink;

use ann_datagen::Rng;
use report::Failure;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The invariant classes the fuzzer can exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Diff,
    Nxn,
    Kernels,
    Tree,
    Recovery,
    Faults,
    Wire,
    Interleave,
    Parallel,
}

impl Class {
    pub const ALL: [Class; 9] = [
        Class::Diff,
        Class::Nxn,
        Class::Kernels,
        Class::Tree,
        Class::Recovery,
        Class::Faults,
        Class::Wire,
        Class::Interleave,
        Class::Parallel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Diff => "diff",
            Class::Nxn => "nxn",
            Class::Kernels => "kernels",
            Class::Tree => "tree",
            Class::Recovery => "recovery",
            Class::Faults => "faults",
            Class::Wire => "wire",
            Class::Interleave => "interleave",
            Class::Parallel => "parallel",
        }
    }

    pub fn parse(s: &str) -> Option<Class> {
        Class::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// Runs `cases` cases of one class from `seed`; returns every failure.
pub fn run_class(class: Class, seed: u64, cases: usize) -> Vec<Failure> {
    let mut parent = Rng::new(seed ^ splitmix_tag(class));
    let mut failures = Vec::new();
    for i in 0..cases {
        let case_seed = parent.next_u64();
        let f = match class {
            // Round-robin the dimensionalities the paper's analysis
            // spans: the planar base case, the 1-D degenerate case, a
            // high-D case where MBR faces dominate, and the benchmark's
            // 10-D join.
            Class::Diff => match i % 4 {
                0 => diff_one::<2>(case_seed, i),
                1 => diff_one::<1>(case_seed, i),
                2 => diff_one::<8>(case_seed, i),
                _ => diff_one::<10>(case_seed, i),
            },
            Class::Nxn => match i % 3 {
                0 => invariant_one::<2>(class, case_seed, i),
                1 => invariant_one::<1>(class, case_seed, i),
                _ => invariant_one::<8>(class, case_seed, i),
            },
            Class::Kernels => match i % 4 {
                0 => invariant_one::<2>(class, case_seed, i),
                1 => invariant_one::<1>(class, case_seed, i),
                2 => invariant_one::<8>(class, case_seed, i),
                _ => invariant_one::<10>(class, case_seed, i),
            },
            Class::Tree => match i % 3 {
                0 => invariant_one::<2>(class, case_seed, i),
                1 => invariant_one::<1>(class, case_seed, i),
                _ => invariant_one::<8>(class, case_seed, i),
            },
            Class::Recovery => invariant_one::<2>(class, case_seed, i),
            // Fault scheduling is op-index-based; the 2-D planar case
            // already exercises every pool-backed traversal.
            Class::Faults => invariant_one::<2>(class, case_seed, i),
            // The wire schema is dimension-agnostic: oids and distances.
            Class::Wire => invariant_one::<2>(class, case_seed, i),
            // MVCC versioning is dimension-agnostic (it lives below the
            // node layer); the planar case exercises every code path.
            Class::Interleave => invariant_one::<2>(class, case_seed, i),
            // Parallel dispatch is dimension-agnostic (morsels wrap the
            // same traversals); the planar case covers every engine path.
            Class::Parallel => invariant_one::<2>(class, case_seed, i),
        };
        failures.extend(f);
    }
    failures
}

/// Runs every class with the same seed and case budget.
pub fn run_all(seed: u64, cases: usize) -> Vec<Failure> {
    Class::ALL
        .into_iter()
        .flat_map(|c| run_class(c, seed, cases))
        .collect()
}

/// Distinct per-class seed streams so `--class nxn` replays the exact
/// cases the all-classes run saw.
fn splitmix_tag(class: Class) -> u64 {
    match class {
        Class::Diff => 0xD1FF,
        Class::Nxn => 0x0171,
        Class::Kernels => 0xB175,
        Class::Tree => 0x7EEE,
        Class::Recovery => 0x6EC0,
        Class::Faults => 0xFA17,
        Class::Wire => 0x3133,
        Class::Interleave => 0x171E,
        Class::Parallel => 0x9A7A,
    }
}

fn diff_one<const D: usize>(case_seed: u64, index: usize) -> Option<Failure> {
    let mut rng = Rng::new(case_seed);
    let case = gen::diff_case::<D>(&mut rng);
    let div = diff::check_case(&case)?;
    let (min_case, min_div) = shrink::shrink(case, div);
    let trace = catch_unwind(AssertUnwindSafe(|| {
        diff::trace_divergence(&min_case, &min_div)
    }))
    .ok();
    Some(Failure {
        class: "diff",
        seed: case_seed,
        case_index: index,
        dims: D,
        message: format!("{}: {}", min_div.label, min_div.detail),
        repro: format!(
            "k={} exclude_self={} group_size={} occupancy={} r={:?} s={:?}",
            min_case.k,
            min_case.exclude_self,
            min_case.group_size,
            min_case.avg_cell_occupancy,
            min_case.r,
            min_case.s
        ),
        trace_json: trace,
    })
}

fn invariant_one<const D: usize>(class: Class, case_seed: u64, index: usize) -> Option<Failure> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut rng = Rng::new(case_seed);
        match class {
            Class::Nxn => invariants::check_nxn_case::<D>(&mut rng),
            Class::Kernels => invariants::check_kernels_case::<D>(&mut rng),
            Class::Tree => invariants::check_tree_case::<D>(&mut rng),
            Class::Recovery => invariants::check_recovery_case(&mut rng),
            Class::Faults => faults::check_faults_case(&mut rng),
            Class::Wire => invariants::check_wire_case(&mut rng),
            Class::Interleave => interleave::check_interleave_case(&mut rng),
            Class::Parallel => parallel::check_parallel_case(&mut rng),
            Class::Diff => unreachable!("diff has its own driver"),
        }
    }));
    let message = match outcome {
        Ok(None) => return None,
        Ok(Some(m)) => m,
        Err(e) => format!("panicked: {}", common::panic_text(&*e)),
    };
    Some(Failure {
        class: class.name(),
        seed: case_seed,
        case_index: index,
        dims: D,
        message,
        repro: format!("rerun with Rng::new({case_seed:#x}) in {}", class.name()),
        trace_json: None,
    })
}
