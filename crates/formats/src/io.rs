//! Matrix Market exchange-format I/O (Boisvert et al., the paper's
//! source for its Appendix-A test matrices).
//!
//! Supports the coordinate format with `real`, `integer` and `pattern`
//! fields and `general`/`symmetric`/`skew-symmetric` symmetry, which
//! covers the matrices the paper used (`685_bus`, `bcsstm27`,
//! `gr_30_30`, `memplus`, `sherman1`). If real Matrix Market files are
//! available they can be dropped in; otherwise the synthetic twins from
//! [`crate::gen`] stand in (documented in DESIGN.md).

use crate::triplet::Triplets;
use std::io::{BufRead, Write};

/// Errors from Matrix Market parsing.
#[derive(Debug)]
pub enum MmError {
    Io(std::io::Error),
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(s) => write!(f, "Matrix Market parse error: {s}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Read a Matrix Market coordinate file into triplets.
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<Triplets, MmError> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| parse_err("empty file"))??;
    let head: Vec<String> = header.split_whitespace().map(|s| s.to_lowercase()).collect();
    if head.len() < 5 || head[0] != "%%matrixmarket" || head[1] != "matrix" {
        return Err(parse_err(format!("bad header line: {header}")));
    }
    if head[2] != "coordinate" {
        return Err(parse_err(format!("unsupported representation {}", head[2])));
    }
    let field = match head[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        f => return Err(parse_err(format!("unsupported field type {f}"))),
    };
    let sym = match head[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        s => return Err(parse_err(format!("unsupported symmetry {s}"))),
    };

    // Skip comments, read the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some(line);
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|s| s.parse::<usize>().map_err(|e| parse_err(format!("size line: {e}"))))
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(parse_err(format!("size line needs 3 fields: {size_line}")));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);

    // The size line is outside input: a count no matrix of this shape
    // can hold is a parse error, and the reservation is capped so a
    // lying header cannot request terabytes up front (the entry vector
    // grows as real entries arrive; ×2 leaves room for mirrored ones).
    if nrows.checked_mul(ncols).is_some_and(|cells| nnz > cells) {
        return Err(parse_err(format!("size line declares {nnz} entries in a {nrows} x {ncols} matrix")));
    }
    const MAX_RESERVED_ENTRIES: usize = 1 << 16;
    let mut t = Triplets::with_capacity(nrows, ncols, nnz.min(MAX_RESERVED_ENTRIES) * 2);
    let mut count = 0usize;
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let i: usize = it
            .next()
            .ok_or_else(|| parse_err("missing row index"))?
            .parse()
            .map_err(|e| parse_err(format!("row index: {e}")))?;
        let j: usize = it
            .next()
            .ok_or_else(|| parse_err("missing column index"))?
            .parse()
            .map_err(|e| parse_err(format!("column index: {e}")))?;
        let v: f64 = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => it
                .next()
                .ok_or_else(|| parse_err("missing value"))?
                .parse()
                .map_err(|e| parse_err(format!("value: {e}")))?,
        };
        // A trailing token means the line disagrees with the declared
        // field type (most commonly a value column in a `pattern` file,
        // i.e. the header is wrong or the data is). Ignoring it would
        // silently misread the file, so it is a format error.
        if let Some(extra) = it.next() {
            return Err(parse_err(format!(
                "unexpected trailing token '{extra}' on data line '{trimmed}'{}",
                if field == Field::Pattern {
                    " (pattern entries carry no value column)"
                } else {
                    ""
                }
            )));
        }
        if i == 0 || j == 0 || i > nrows || j > ncols {
            return Err(parse_err(format!("index ({i},{j}) out of 1..{nrows} x 1..{ncols}")));
        }
        // Matrix Market is 1-based.
        let (r, c) = (i - 1, j - 1);
        // Symmetric variants store only the lower triangle (i >= j,
        // strictly so for skew-symmetric). An upper-triangle entry
        // would be mirrored *again*, silently double-counting it — so
        // it is a format error, not data.
        if sym != Symmetry::General && r < c {
            return Err(parse_err(format!(
                "entry ({i},{j}) above the diagonal in a {} file (only the lower triangle may be stored)",
                if sym == Symmetry::Symmetric { "symmetric" } else { "skew-symmetric" },
            )));
        }
        // Skew-symmetry forces A(i,i) = -A(i,i) = 0: a stored nonzero
        // diagonal entry contradicts the declared symmetry (pattern
        // files imply the value 1.0, so a diagonal pattern entry is
        // rejected too). An explicit stored zero is tolerated.
        if sym == Symmetry::SkewSymmetric && r == c && v != 0.0 {
            return Err(parse_err(format!(
                "nonzero diagonal entry ({i},{i}) = {v} in a skew-symmetric file (the diagonal must be zero)"
            )));
        }
        t.push(r, c, v);
        match sym {
            Symmetry::General => {}
            Symmetry::Symmetric => {
                if r != c {
                    t.push(c, r, v);
                }
            }
            Symmetry::SkewSymmetric => {
                if r != c {
                    t.push(c, r, -v);
                }
            }
        }
        count += 1;
    }
    if count != nnz {
        return Err(parse_err(format!("expected {nnz} entries, found {count}")));
    }
    Ok(t)
}

/// Write triplets as a general real coordinate Matrix Market file.
pub fn write_matrix_market<W: Write>(t: &Triplets, mut w: W) -> Result<(), MmError> {
    let c = t.canonical_entries();
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by bernoulli-formats")?;
    writeln!(w, "{} {} {}", t.nrows(), t.ncols(), c.len())?;
    for &(r, cc, v) in c.iter() {
        writeln!(w, "{} {} {:.17e}", r + 1, cc + 1, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parse_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 2\n\
                    1 1 2.5\n\
                    3 2 -1.0\n";
        let t = read_matrix_market(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(t.canonicalize().entries(), &[(0, 0, 2.5), (2, 1, -1.0)]);
    }

    #[test]
    fn parse_symmetric_expands() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 1.0\n\
                    2 1 3.0\n";
        let t = read_matrix_market(BufReader::new(text.as_bytes())).unwrap();
        let c = t.canonicalize();
        assert_eq!(c.entries(), &[(0, 0, 1.0), (0, 1, 3.0), (1, 0, 3.0)]);
        assert!(t.is_symmetric());
    }

    #[test]
    fn parse_skew_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 1\n\
                    2 1 4.0\n";
        let t = read_matrix_market(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(t.canonicalize().entries(), &[(0, 1, -4.0), (1, 0, 4.0)]);
    }

    #[test]
    fn parse_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 3 2\n\
                    1 3\n\
                    2 1\n";
        let t = read_matrix_market(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(t.canonicalize().entries(), &[(0, 2, 1.0), (1, 0, 1.0)]);
    }

    #[test]
    fn parse_symmetric_pattern_expands_mirror() {
        // The natural input for an undirected graph: a symmetric
        // pattern file stores each edge once (lower triangle) and reads
        // back as the full 0/1 adjacency.
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    3 3 2\n\
                    2 1\n\
                    3 2\n";
        let t = read_matrix_market(BufReader::new(text.as_bytes())).unwrap();
        assert!(t.is_symmetric());
        assert_eq!(
            t.canonicalize().entries(),
            &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]
        );
        // The triangle rule applies to pattern files too.
        let upper = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                     3 3 1\n\
                     1 2\n";
        let err = read_matrix_market(BufReader::new(upper.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("lower triangle"), "{err}");
    }

    #[test]
    fn pattern_line_with_value_column_rejected() {
        // A value column in a pattern file means the header lies about
        // the data; silently ignoring the token would misread the file.
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 2\n\
                    1 1\n\
                    2 1 7.5\n";
        let err = read_matrix_market(BufReader::new(text.as_bytes())).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("'7.5'") && msg.contains("no value column"), "{msg}");
        // Same guard for real files: a fourth token is rejected.
        let four = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 1\n\
                    1 1 2.0 9\n";
        let err = read_matrix_market(BufReader::new(four.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("'9'"), "{err}");
    }

    #[test]
    fn roundtrip_through_writer() {
        let t = Triplets::from_entries(3, 2, &[(0, 0, 1.25), (2, 1, -0.5)]);
        let mut buf = Vec::new();
        write_matrix_market(&t, &mut buf).unwrap();
        let back = read_matrix_market(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.canonicalize(), t.canonicalize());
    }

    #[test]
    fn symmetric_upper_triangle_entry_rejected() {
        // Regression: an above-diagonal entry in a symmetric file used
        // to be mirrored again, double-counting it. It must be rejected
        // with a message naming the offending coordinate.
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 2\n\
                    1 1 1.0\n\
                    1 3 2.0\n";
        let err = read_matrix_market(BufReader::new(text.as_bytes())).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("(1,3)") && msg.contains("lower triangle"), "{msg}");
    }

    #[test]
    fn skew_symmetric_upper_triangle_entry_rejected() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    3 3 1\n\
                    1 2 5.0\n";
        let err = read_matrix_market(BufReader::new(text.as_bytes())).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("(1,2)") && msg.contains("skew-symmetric"), "{msg}");
    }

    #[test]
    fn skew_symmetric_nonzero_diagonal_rejected() {
        // Regression: A(i,i) = -A(i,i) forces a zero diagonal; a stored
        // nonzero diagonal entry used to be kept silently.
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 2\n\
                    1 1 3.0\n\
                    2 1 4.0\n";
        let err = read_matrix_market(BufReader::new(text.as_bytes())).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("diagonal") && msg.contains("(1,1)"), "{msg}");
        // Pattern field: a diagonal entry implies the value 1.0.
        let pat = "%%MatrixMarket matrix coordinate pattern skew-symmetric\n\
                   2 2 1\n\
                   1 1\n";
        assert!(read_matrix_market(BufReader::new(pat.as_bytes())).is_err());
        // An explicit stored zero on the diagonal is tolerated.
        let zero = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 2\n\
                    1 1 0.0\n\
                    2 1 4.0\n";
        let t = read_matrix_market(BufReader::new(zero.as_bytes())).unwrap();
        // canonicalize() drops explicit zeros; only the mirrored pair remains.
        assert_eq!(t.canonicalize().entries(), &[(0, 1, -4.0), (1, 0, 4.0)]);
    }

    #[test]
    fn symmetric_diagonal_still_allowed() {
        // The triangle check must not reject legitimate lower-triangle
        // or diagonal entries of a symmetric file.
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 3\n\
                    1 1 1.0\n\
                    2 2 2.0\n\
                    3 1 5.0\n";
        let t = read_matrix_market(BufReader::new(text.as_bytes())).unwrap();
        assert!(t.is_symmetric());
        assert_eq!(t.canonicalize().len(), 4);
    }

    #[test]
    fn errors_reported() {
        let bad_header = "%%NotMM matrix coordinate real general\n1 1 0\n";
        assert!(read_matrix_market(BufReader::new(bad_header.as_bytes())).is_err());
        let bad_count = "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1.0\n";
        assert!(read_matrix_market(BufReader::new(bad_count.as_bytes())).is_err());
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(BufReader::new(oob.as_bytes())).is_err());
        let dense_repr = "%%MatrixMarket matrix array real general\n2 2 4\n";
        assert!(read_matrix_market(BufReader::new(dense_repr.as_bytes())).is_err());
    }
}
