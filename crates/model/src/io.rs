//! A small line-oriented text format for OSP instances.
//!
//! The format is self-contained (no serde / JSON dependency) and diff-
//! friendly, so generated benchmark instances can be checked into a
//! repository or shipped to other tools.
//!
//! ```text
//! EBLOW-INSTANCE v1
//! stencil <W> <H> <row_height|0>
//! regions <P>
//! chars <N>
//! <w> <h> <bl> <br> <bb> <bt> <shots> <t_1> ... <t_P>     (N lines)
//! ```
//!
//! Lines starting with `#` and blank lines are ignored.
//!
//! # Example
//!
//! ```
//! use eblow_model::{Character, Instance, Stencil};
//! use eblow_model::io::{to_string, from_str};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let inst = Instance::new(
//!     Stencil::with_rows(200, 80, 40)?,
//!     vec![Character::new(40, 40, [5, 5, 5, 5], 10)?],
//!     vec![vec![3, 4]],
//! )?;
//! let text = to_string(&inst);
//! let back = from_str(&text)?;
//! assert_eq!(inst, back);
//! # Ok(())
//! # }
//! ```

use crate::{Character, Instance, ModelError, Stencil};
use std::fmt::Write as _;

const MAGIC: &str = "EBLOW-INSTANCE v1";

/// Serializes an instance to the text format.
pub fn to_string(instance: &Instance) -> String {
    let mut out = String::new();
    let s = instance.stencil();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(
        out,
        "stencil {} {} {}",
        s.width(),
        s.height(),
        s.row_height().unwrap_or(0)
    );
    let _ = writeln!(out, "regions {}", instance.num_regions());
    let _ = writeln!(out, "chars {}", instance.num_chars());
    for (i, c) in instance.chars().iter().enumerate() {
        let b = c.blanks();
        let _ = write!(
            out,
            "{} {} {} {} {} {} {}",
            c.width(),
            c.height(),
            b.left,
            b.right,
            b.bottom,
            b.top,
            c.vsb_shots()
        );
        for t in instance.repeat_row(i) {
            let _ = write!(out, " {t}");
        }
        out.push('\n');
    }
    out
}

fn parse_err(line: usize, message: impl Into<String>) -> ModelError {
    ModelError::Parse {
        line,
        message: message.into(),
    }
}

fn parse_u64(tok: &str, line: usize, what: &str) -> Result<u64, ModelError> {
    tok.parse::<u64>()
        .map_err(|_| parse_err(line, format!("invalid {what}: {tok:?}")))
}

/// Parses an instance from the text format.
///
/// # Errors
///
/// Returns [`ModelError::Parse`] with a 1-based line number on any syntax
/// problem, and the underlying model error if the parsed data violates model
/// invariants (e.g. blanks exceeding a character's size, or more than
/// [`Instance::MAX_REGIONS`] regions).
pub fn from_str(text: &str) -> Result<Instance, ModelError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (ln, magic) = lines.next().ok_or_else(|| parse_err(1, "empty input"))?;
    if magic != MAGIC {
        return Err(parse_err(ln, format!("expected header {MAGIC:?}")));
    }

    let (ln, stencil_line) = lines
        .next()
        .ok_or_else(|| parse_err(ln, "missing stencil line"))?;
    let toks: Vec<&str> = stencil_line.split_whitespace().collect();
    if toks.len() != 4 || toks[0] != "stencil" {
        return Err(parse_err(ln, "expected `stencil <W> <H> <row_height|0>`"));
    }
    let w = parse_u64(toks[1], ln, "stencil width")?;
    let h = parse_u64(toks[2], ln, "stencil height")?;
    let rh = parse_u64(toks[3], ln, "row height")?;
    let stencil = if rh == 0 {
        Stencil::new(w, h)?
    } else {
        Stencil::with_rows(w, h, rh)?
    };

    let (ln, regions_line) = lines
        .next()
        .ok_or_else(|| parse_err(ln, "missing regions line"))?;
    let toks: Vec<&str> = regions_line.split_whitespace().collect();
    if toks.len() != 2 || toks[0] != "regions" {
        return Err(parse_err(ln, "expected `regions <P>`"));
    }
    // Counts past `usize` saturate; both are checked before they size
    // anything.
    let num_regions =
        usize::try_from(parse_u64(toks[1], ln, "region count")?).unwrap_or(usize::MAX);

    let (ln, chars_line) = lines
        .next()
        .ok_or_else(|| parse_err(ln, "missing chars line"))?;
    let toks: Vec<&str> = chars_line.split_whitespace().collect();
    if toks.len() != 2 || toks[0] != "chars" {
        return Err(parse_err(ln, "expected `chars <N>`"));
    }
    let num_chars = usize::try_from(parse_u64(toks[1], ln, "char count")?).unwrap_or(usize::MAX);

    // A character line holds `fields` tokens of at least one byte each, so
    // the text holds at most `capacity` of them.
    let fields = num_regions.saturating_add(7);
    let capacity = num_chars.min(text.len() / fields);
    let mut instance = Instance::empty(stencil, num_regions, capacity)?;
    let mut vals = Vec::new();
    let mut last_ln = ln;
    for _ in 0..num_chars {
        let (ln, line) = lines
            .next()
            .ok_or_else(|| parse_err(last_ln, "missing character line"))?;
        last_ln = ln;
        vals.clear();
        for tok in line.split_whitespace() {
            vals.push(parse_u64(tok, ln, "character field")?);
        }
        if vals.len() != fields {
            return Err(parse_err(
                ln,
                format!(
                    "expected {fields} fields (7 + {num_regions} repeats), found {}",
                    vals.len()
                ),
            ));
        }
        let ch = Character::new(
            vals[0],
            vals[1],
            [vals[2], vals[3], vals[4], vals[5]],
            vals[6],
        )?;
        instance.push(ch, vals[7..].iter().copied().enumerate())?;
    }
    if let Some((ln, _)) = lines.next() {
        return Err(parse_err(ln, "trailing content after character table"));
    }
    Ok(instance)
}

/// Writes an instance to a file at `path`.
///
/// # Errors
///
/// Propagates I/O errors from the filesystem.
pub fn write_file(instance: &Instance, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_string(instance))
}

/// Reads an instance from a file at `path`.
///
/// # Errors
///
/// Returns an I/O error or a boxed [`ModelError`] on parse failure.
pub fn read_file(path: &std::path::Path) -> Result<Instance, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(from_str(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Instance {
        let chars = vec![
            Character::new(40, 40, [5, 6, 4, 3], 10).unwrap(),
            Character::new(33, 40, [1, 2, 3, 4], 7).unwrap(),
        ];
        Instance::new(
            Stencil::with_rows(1000, 1000, 40).unwrap(),
            chars,
            vec![vec![3, 0, 9], vec![1, 5, 2]],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_1d() {
        let inst = sample();
        assert_eq!(from_str(&to_string(&inst)).unwrap(), inst);
    }

    #[test]
    fn roundtrip_2d() {
        let chars = vec![Character::new(40, 30, [5, 6, 4, 3], 10).unwrap()];
        let inst = Instance::new(Stencil::new(500, 600).unwrap(), chars, vec![vec![2]]).unwrap();
        assert_eq!(from_str(&to_string(&inst)).unwrap(), inst);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let inst = sample();
        let mut text = String::from("# generated\n\n");
        text.push_str(&to_string(&inst));
        assert_eq!(from_str(&text).unwrap(), inst);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = from_str("EBLOW-INSTANCE v1\nstencil 10 10\n").unwrap_err();
        assert!(matches!(e, ModelError::Parse { line: 2, .. }), "{e}");
        let e = from_str("nope").unwrap_err();
        assert!(matches!(e, ModelError::Parse { line: 1, .. }));
    }

    #[test]
    fn wrong_field_count_rejected() {
        let text = "EBLOW-INSTANCE v1\nstencil 100 100 0\nregions 2\nchars 1\n40 40 5 5 5 5 10 1\n";
        let e = from_str(text).unwrap_err();
        assert!(matches!(e, ModelError::Parse { line: 5, .. }), "{e}");
    }

    /// Regression: `t = shots = 2³²` used to panic with a multiply
    /// overflow in debug builds and parse with `T_VSB = 0` in release.
    #[test]
    fn overflowing_writing_time_is_an_error() {
        let big = 1u64 << 32;
        let text = format!(
            "EBLOW-INSTANCE v1\nstencil 100 100 40\nregions 1\nchars 1\n40 40 5 5 5 5 {big} {big}\n"
        );
        let e = from_str(&text).unwrap_err();
        assert_eq!(
            e,
            ModelError::Overflow {
                char_index: 0,
                region: 0
            },
            "{e}"
        );
        // Each term fits, but their sum over the candidates does not.
        let half = u64::MAX / 2 + 1;
        let text = format!(
            "EBLOW-INSTANCE v1\nstencil 100 100 40\nregions 1\nchars 2\n\
             40 40 5 5 5 5 1 {half}\n40 40 5 5 5 5 1 {half}\n"
        );
        assert!(matches!(
            from_str(&text),
            Err(ModelError::Overflow { char_index: 1, .. })
        ));
        // The largest representable writing time still parses.
        let text = format!(
            "EBLOW-INSTANCE v1\nstencil 100 100 40\nregions 1\nchars 1\n40 40 5 5 5 5 1 {}\n",
            u64::MAX
        );
        assert_eq!(from_str(&text).unwrap().vsb_time(0), u64::MAX);
    }

    /// Regression: blanks of 2⁶³ + 2⁶³ used to wrap to 0 and parse (in
    /// release builds), so a 2D instance whose blanks exceed its 10 × 10
    /// characters reached the planner and came back as an invalid
    /// placement.
    #[test]
    fn blank_sums_that_overflow_are_an_error() {
        let half = 1u64 << 63;
        for (blanks, axis) in [
            (format!("{half} {half} 0 0"), "horizontal"),
            (format!("0 0 {half} {half}"), "vertical"),
        ] {
            let text = format!(
                "EBLOW-INSTANCE v1\nstencil 100 100 0\nregions 1\nchars 2\n\
                 10 10 {blanks} 1 1\n10 10 {blanks} 1 1\n"
            );
            assert_eq!(
                from_str(&text),
                Err(ModelError::BlanksExceedSize {
                    axis,
                    blanks: u64::MAX,
                    size: 10,
                })
            );
        }
    }

    /// A free-form stencil one past [`Stencil::MAX_2D_SIDE`] is refused;
    /// at the bound it parses, and row-structured widths keep the full
    /// `u64` range.
    #[test]
    fn free_form_sides_past_the_2d_bound_are_an_error() {
        let max = Stencil::MAX_2D_SIDE;
        let text = |w: u64, h: u64, rh: u64| {
            format!(
                "EBLOW-INSTANCE v1\nstencil {w} {h} {rh}\nregions 1\nchars 1\n10 10 0 0 0 0 2 1\n"
            )
        };
        for (w, h) in [(max + 1, 100), (100, max + 1), (u64::MAX, u64::MAX)] {
            assert_eq!(
                from_str(&text(w, h, 0)),
                Err(ModelError::StencilTooLarge {
                    width: w,
                    height: h
                })
            );
        }
        assert_eq!(from_str(&text(max, max, 0)).unwrap().stencil().width(), max);
        let rows = from_str(&text(u64::MAX, u64::MAX, 10)).unwrap();
        assert_eq!(rows.stencil().width(), u64::MAX);
        assert!(rows.stencil().check_2d().is_err());
    }

    /// A text with the given header counts over a 1D stencil.
    fn with_counts(
        regions: impl std::fmt::Display,
        chars: impl std::fmt::Display,
        body: &str,
    ) -> String {
        format!("EBLOW-INSTANCE v1\nstencil 100 100 40\nregions {regions}\nchars {chars}\n{body}")
    }

    /// Regression: `chars u64::MAX` panicked with a capacity overflow, as
    /// the character table was pre-sized by the header's count; a count
    /// below the overflow line asked for terabytes up front.
    #[test]
    fn a_char_count_past_the_text_is_an_error() {
        for count in [u64::MAX, 1_000_000_000_000] {
            let e = from_str(&with_counts(1, count, "40 40 5 5 5 5 10 1\n")).unwrap_err();
            assert!(matches!(e, ModelError::Parse { line: 5, .. }), "{e}");
        }
    }

    /// Regression: `regions u64::MAX` wrapped the field count `7 + P` to 6
    /// in release builds, so a six-field character line passed the check
    /// and reading its seventh field panicked.
    #[test]
    fn a_region_count_that_wraps_the_field_count_is_an_error() {
        assert_eq!(
            from_str(&with_counts(u64::MAX, 1, "40 40 5 5 5 5\n")),
            Err(ModelError::TooManyRegions {
                regions: usize::MAX
            })
        );
    }

    /// Regression: `regions u64::MAX − 6` overflowed `7 + P` (a panic in
    /// debug builds, "expected 0 fields" in release). Region counts are
    /// checked against [`Instance::MAX_REGIONS`] first.
    #[test]
    fn a_region_count_that_overflows_the_field_count_is_an_error() {
        let regions = u64::MAX - 6;
        assert_eq!(
            from_str(&with_counts(regions, 1, "40 40 5 5 5 5 10 1\n")),
            Err(ModelError::TooManyRegions {
                regions: regions as usize
            })
        );
        let max = Instance::MAX_REGIONS;
        assert_eq!(
            from_str(&with_counts(max, 0, "")).unwrap().num_regions(),
            max
        );
        assert!(from_str(&with_counts(max + 1, 0, "")).is_err());
        assert_eq!(from_str(&with_counts(0, 0, "")), Err(ModelError::NoRegions));
    }

    #[test]
    fn trailing_content_rejected() {
        let mut text = to_string(&sample());
        text.push_str("40 40 5 5 5 5 10 1 1 1\n");
        assert!(from_str(&text).is_err());
    }
}
