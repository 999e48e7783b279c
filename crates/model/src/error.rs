use std::fmt;

/// Errors produced when constructing or validating model objects.
///
/// Every constructor in this crate validates its arguments
/// (blanks must fit inside the character, repeat matrices must be
/// rectangular, placements must respect the stencil outline, …) and reports
/// violations through this type.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// Character blanks do not fit inside the character outline.
    BlanksExceedSize {
        /// Axis on which the blanks overflow (`"horizontal"` / `"vertical"`).
        axis: &'static str,
        /// Sum of the two blanks on that axis.
        blanks: u64,
        /// Character extent on that axis.
        size: u64,
    },
    /// A character dimension is zero.
    ZeroDimension,
    /// VSB shot count must be at least 1.
    ZeroShots,
    /// The stencil outline has a zero dimension.
    EmptyStencil,
    /// A stencil planned in 2D has a side above
    /// [`Stencil::MAX_2D_SIDE`](crate::Stencil::MAX_2D_SIDE).
    StencilTooLarge {
        /// Stencil width.
        width: u64,
        /// Stencil height.
        height: u64,
    },
    /// Row height is zero or larger than the stencil height.
    BadRowHeight {
        /// Offending row height.
        row_height: u64,
        /// Stencil height.
        stencil_height: u64,
    },
    /// The repeat matrix is not `num_chars × num_regions`-rectangular.
    RaggedRepeats {
        /// Index of the character row with the wrong arity.
        char_index: usize,
        /// Number of regions in that row.
        got: usize,
        /// Expected number of regions.
        expected: usize,
    },
    /// An instance must have at least one region.
    NoRegions,
    /// An instance may have at most
    /// [`Instance::MAX_REGIONS`](crate::Instance::MAX_REGIONS) regions.
    TooManyRegions {
        /// The region count asked for.
        regions: usize,
    },
    /// A character id is out of range for the instance.
    UnknownChar {
        /// The offending id.
        id: usize,
        /// Number of characters in the instance.
        num_chars: usize,
    },
    /// A character appears more than once in a placement.
    DuplicateChar {
        /// The duplicated id.
        id: usize,
    },
    /// A 1D placement uses more rows than the stencil provides.
    TooManyRows {
        /// Rows used by the placement.
        got: usize,
        /// Rows available on the stencil.
        available: usize,
    },
    /// A row is wider than the stencil even with maximal blank sharing.
    RowOverflow {
        /// Index of the overflowing row.
        row: usize,
        /// Minimum achievable width of the row contents, saturated at
        /// `u64::MAX`.
        width: u64,
        /// Stencil width.
        stencil_width: u64,
    },
    /// A 1D placement contains a character whose height exceeds the row height.
    CharTallerThanRow {
        /// The offending id.
        id: usize,
        /// Character height.
        height: u64,
        /// Row height.
        row_height: u64,
    },
    /// The instance has no row structure but a 1D placement was validated.
    NotRowStructured,
    /// A placed character extends outside the stencil outline.
    OutsideOutline {
        /// The offending id.
        id: usize,
    },
    /// Two placed characters overlap more than their shared blanks allow.
    IllegalOverlap {
        /// First character id.
        a: usize,
        /// Second character id.
        b: usize,
    },
    /// A shard's row band lies outside (or degenerately inside) its
    /// parent instance's stencil.
    ShardBand {
        /// First row of the band.
        start: u64,
        /// Rows in the band.
        extent: u64,
        /// Rows in the parent stencil.
        available: u64,
    },
    /// A writing time or reduction sum of the instance exceeds `u64`.
    Overflow {
        /// The candidate whose repeats pushed the sum over.
        char_index: usize,
        /// The region being accumulated.
        region: usize,
    },
    /// Failure while parsing the text instance format.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BlanksExceedSize { axis, blanks, size } => write!(
                f,
                "{axis} blanks sum to {blanks} which exceeds the character extent {size}"
            ),
            ModelError::ZeroDimension => write!(f, "character dimensions must be positive"),
            ModelError::ZeroShots => write!(f, "VSB shot count must be at least 1"),
            ModelError::EmptyStencil => write!(f, "stencil dimensions must be positive"),
            ModelError::StencilTooLarge { width, height } => write!(
                f,
                "stencil {width}×{height} has a side above the 2D limit of {} µm",
                crate::Stencil::MAX_2D_SIDE
            ),
            ModelError::BadRowHeight {
                row_height,
                stencil_height,
            } => write!(
                f,
                "row height {row_height} is invalid for stencil height {stencil_height}"
            ),
            ModelError::RaggedRepeats {
                char_index,
                got,
                expected,
            } => write!(
                f,
                "repeat row {char_index} has {got} regions, expected {expected}"
            ),
            ModelError::NoRegions => write!(f, "an instance needs at least one region"),
            ModelError::TooManyRegions { regions } => write!(
                f,
                "{regions} regions exceed the limit of {}",
                crate::Instance::MAX_REGIONS
            ),
            ModelError::UnknownChar { id, num_chars } => {
                write!(
                    f,
                    "character id {id} out of range (instance has {num_chars})"
                )
            }
            ModelError::DuplicateChar { id } => {
                write!(f, "character id {id} appears more than once")
            }
            ModelError::TooManyRows { got, available } => {
                write!(f, "placement uses {got} rows but stencil has {available}")
            }
            ModelError::RowOverflow {
                row,
                width,
                stencil_width,
            } => write!(
                f,
                "row {row} needs width {width} exceeding stencil width {stencil_width}"
            ),
            ModelError::CharTallerThanRow {
                id,
                height,
                row_height,
            } => write!(
                f,
                "character {id} of height {height} does not fit row height {row_height}"
            ),
            ModelError::NotRowStructured => {
                write!(
                    f,
                    "instance has no row structure (stencil row height unset)"
                )
            }
            ModelError::OutsideOutline { id } => {
                write!(f, "character {id} extends outside the stencil outline")
            }
            ModelError::IllegalOverlap { a, b } => {
                write!(
                    f,
                    "characters {a} and {b} overlap beyond their shared blanks"
                )
            }
            ModelError::ShardBand {
                start,
                extent,
                available,
            } => write!(
                f,
                "shard band [{start}, {start}+{extent}) lies outside the parent extent {available}"
            ),
            ModelError::Overflow { char_index, region } => write!(
                f,
                "writing time of character {char_index} in region {region} overflows u64"
            ),
            ModelError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ModelError {}
