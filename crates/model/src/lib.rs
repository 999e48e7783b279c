//! Domain model for overlapping-aware stencil planning (OSP) in MCC e-beam
//! lithography systems.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! E-BLOW workspace:
//!
//! * [`Character`] — a stencil character candidate: outer size, blank margins
//!   on all four sides, and its VSB shot count `n_i`.
//! * [`Instance`] — a full OSP instance: the stencil outline, the set of
//!   character candidates, and the repeat matrix `t_ic` over the `P` wafer
//!   regions of an MCC system.
//! * [`Selection`] — which candidates are on the stencil; writing-time
//!   accounting per Eqn. (1) of the paper.
//! * [`Placement1d`] / [`Placement2d`] — physical placements with
//!   blank-sharing ("overlapping") semantics, plus validators.
//! * [`overlap`] — the blank-sharing arithmetic, including Lemma 1.
//! * [`simulate`] — a shot-by-shot simulator of the MCC writing process
//!   that independently validates the Eqn. (1) accounting.
//! * [`io`] — a small self-contained text format for instances.
//!
//! All geometric quantities are integer micrometers (`u64`); shot counts and
//! writing times are integer shots (`u64`). Nothing in this crate is
//! stochastic.
//!
//! # Example
//!
//! ```
//! use eblow_model::{Character, Instance, Stencil, Selection};
//!
//! # fn main() -> Result<(), eblow_model::ModelError> {
//! let chars = vec![
//!     Character::new(40, 40, [5, 5, 5, 5], 20)?,
//!     Character::new(50, 40, [8, 6, 5, 5], 35)?,
//! ];
//! // One region; character 0 repeats 10 times, character 1 repeats 4 times.
//! let inst = Instance::new(Stencil::with_rows(200, 40, 40)?, chars, vec![vec![10], vec![4]])?;
//! let sel = Selection::from_indices(inst.num_chars(), [0]);
//! // T = t_00*n_0 + t_10*n_1 - t_00*(n_0-1) = 10*20 + 4*35 - 10*19 = 150
//! assert_eq!(inst.total_writing_time(&sel), 150);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod character;
mod digest;
mod error;
mod instance;
pub mod io;
pub mod overlap;
mod placement1d;
mod placement2d;
mod selection;
pub mod shard;
pub mod simulate;

pub use character::{Blanks, CharId, Character};
pub use digest::{Fnv64, InstanceDigest};
pub use error::ModelError;
pub use instance::{Instance, SparseRepeat, Stencil};
pub use placement1d::{Placement1d, Row};
pub use placement2d::{PlacedChar, Placement2d};
pub use selection::Selection;
pub use shard::{stitch_1d, Stitched1d, SubInstance};
