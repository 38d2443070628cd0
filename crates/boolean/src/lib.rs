//! Cube/cover Boolean algebra for speed-independent circuit synthesis.
//!
//! This crate is the Boolean substrate of the `sisyn` workspace — the
//! reproduction of Pastor, Cortadella, Kondratyev and Roig, *“Structural
//! Methods for the Synthesis of Speed-Independent Circuits”*. It provides
//! exactly the machinery §II-A of the paper assumes:
//!
//! * [`Bits`] — fixed-width bit vectors (vertices, markings, node sets);
//! * [`Cube`] — three-valued cubes in positional notation (`10-1`);
//! * [`Cover`] — sums of cubes with tautology/containment/complement;
//! * [`minimize`] — a compact espresso-style two-level minimizer;
//! * [`Minimizer`] / [`MinimizerChoice`] — pluggable minimizer backends
//!   (espresso-style, iterated, BDD-backed exact, and per-cover `auto`);
//! * [`Bdd`] — a small hash-consed ROBDD package behind the exact
//!   backend.
//!
//! # Examples
//!
//! ```
//! use si_boolean::{Cover, Cube, minimize};
//!
//! // f = a·b + a·b'  minimizes to  a
//! let on = Cover::from_cubes(2, vec!["11".parse()?, "10".parse()?]);
//! let r = minimize(&on, &Cover::empty(2));
//! assert!(r.cover.equivalent(&Cover::from_cube("1-".parse()?)));
//! # Ok::<(), si_boolean::ParseCubeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bdd;
mod bits;
mod cover;
mod cube;
mod espresso;
pub mod hash;
mod minimize;
mod minimizer;

pub use bdd::{Bdd, BddRef, BDD_FALSE, BDD_TRUE};
pub use bits::{hash_word_slice, Bits, IterOnes};
#[cfg(debug_assertions)]
#[doc(hidden)]
pub use cover::lockstep;
pub use cover::Cover;
pub use cube::{Cube, CubeVal, ParseCubeError, Vertices};
pub use espresso::{
    essential_cubes, minimize_exact_iterated, minimize_exact_iterated_off, reduce_cube,
};
pub use minimize::{expand_cube, minimize, minimize_against_off, MinimizeResult};
pub use minimizer::{
    AutoMinimizer, BddMinimizer, EspressoMinimizer, ExactMinimizer, Minimizer, MinimizerChoice,
};
