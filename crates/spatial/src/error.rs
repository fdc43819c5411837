//! Error type for spatial operations.

use std::fmt;

/// Errors from constructing or querying spatial structures.
#[derive(Debug, Clone, PartialEq)]
pub enum SpatialError {
    /// A point's dimensionality did not match the store's.
    DimensionMismatch {
        /// Dimensionality the structure was built with.
        expected: usize,
        /// Dimensionality of the offending input.
        got: usize,
    },
    /// Requested dimensionality exceeds [`crate::MAX_DIMS`].
    TooManyDims {
        /// The requested dimensionality.
        requested: usize,
    },
    /// Dimensionality must be at least 1.
    ZeroDims,
    /// ε must be a finite positive number.
    InvalidEpsilon {
        /// The offending value.
        value: f64,
    },
    /// `minPts` must be at least 1.
    InvalidMinPts,
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate {
        /// Index of the offending point.
        point: usize,
        /// Offending dimension.
        dim: usize,
    },
    /// A coordinate is finite but so large, relative to the ε-cell side,
    /// that its cell index is not exact (`|x / side| ≥ 2^53`; see
    /// [`crate::cell::MAX_CELL_INDEX`]).
    CoordinateOutOfRange {
        /// Index of the offending point.
        point: usize,
        /// Offending dimension.
        dim: usize,
    },
    /// A streaming source replayed different points on its second pass
    /// than it produced on the first (the two-pass cell-major builder
    /// requires byte-identical replay).
    StreamMismatch,
}

impl fmt::Display for SpatialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpatialError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            SpatialError::TooManyDims { requested } => {
                write!(
                    f,
                    "dimensionality {requested} exceeds maximum supported ({})",
                    crate::MAX_DIMS
                )
            }
            SpatialError::ZeroDims => write!(f, "dimensionality must be at least 1"),
            SpatialError::InvalidEpsilon { value } => {
                write!(f, "epsilon must be finite and positive, got {value}")
            }
            SpatialError::InvalidMinPts => write!(f, "minPts must be at least 1"),
            SpatialError::NonFiniteCoordinate { point, dim } => {
                write!(f, "point {point} has a non-finite coordinate in dim {dim}")
            }
            SpatialError::CoordinateOutOfRange { point, dim } => write!(
                f,
                "point {point} has a coordinate in dim {dim} beyond the exact cell range \
                 (|x| / cell side must stay below 2^53)"
            ),
            SpatialError::StreamMismatch => write!(
                f,
                "streaming source did not replay the same points on its second pass"
            ),
        }
    }
}

impl std::error::Error for SpatialError {}

// Compile-time proof of the XL004 contract: the error type is
// `Display + std::error::Error + Send + Sync`.
const fn _assert_error_bounds<T: std::error::Error + Send + Sync + 'static>() {}
const _: () = _assert_error_bounds::<SpatialError>();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SpatialError::DimensionMismatch {
            expected: 2,
            got: 3
        }
        .to_string()
        .contains("expected 2, got 3"));
        assert!(SpatialError::TooManyDims { requested: 99 }
            .to_string()
            .contains("99"));
        assert!(SpatialError::InvalidEpsilon { value: -1.0 }
            .to_string()
            .contains("-1"));
        assert!(SpatialError::ZeroDims.to_string().contains("at least 1"));
        assert!(SpatialError::InvalidMinPts.to_string().contains("minPts"));
        assert!(SpatialError::NonFiniteCoordinate { point: 7, dim: 1 }
            .to_string()
            .contains("point 7"));
        assert!(SpatialError::CoordinateOutOfRange { point: 3, dim: 0 }
            .to_string()
            .contains("point 3"));
    }
}
