//! Dataset file I/O: load real datasets (e.g. the actual TAC or Forest
//! Cover files) and persist generated ones, as CSV — one point per line,
//! `D` numeric columns (plus optionally an id in the first column);
//! delimiter `,`, `;`, whitespace or tab; `#`-prefixed lines and blank
//! lines are skipped. This reads the UCI covtype file (after cutting the
//! 10 numeric columns) and typical astrometric catalog exports. No
//! external crates.

use ann_geom::Point;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Errors from dataset parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying file I/O failure.
    Io(std::io::Error),
    /// A malformed line or field, with its 1-based line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Splits a CSV/whitespace line into numeric fields.
fn fields(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| c == ',' || c == ';' || c.is_whitespace())
        .filter(|s| !s.is_empty())
}

/// Reads `D`-dimensional points from a delimited text file.
///
/// Lines must have either `D` numeric fields (points are numbered
/// sequentially from 0) or `D + 1` fields with an integer id first.
/// Extra columns beyond `D + 1` are an error — slice your file first, so
/// silent truncation never misreads a dataset.
pub fn read_csv<const D: usize, P: AsRef<Path>>(path: P) -> Result<Vec<(u64, Point<D>)>, IoError> {
    let reader = BufReader::new(std::fs::File::open(path)?);
    let mut out = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = fields(trimmed).collect();
        let lineno = idx + 1;
        let (oid, coords) = match cols.len() {
            n if n == D => (out.len() as u64, &cols[..]),
            n if n == D + 1 => {
                let oid = cols[0].parse::<u64>().map_err(|e| IoError::Parse {
                    line: lineno,
                    message: format!("bad id {:?}: {e}", cols[0]),
                })?;
                (oid, &cols[1..])
            }
            n => {
                return Err(IoError::Parse {
                    line: lineno,
                    message: format!("expected {D} or {} fields, found {n}", D + 1),
                })
            }
        };
        let mut c = [0.0; D];
        for (d, field) in coords.iter().enumerate() {
            c[d] = field.parse::<f64>().map_err(|e| IoError::Parse {
                line: lineno,
                message: format!("bad number {field:?}: {e}"),
            })?;
            if !c[d].is_finite() {
                return Err(IoError::Parse {
                    line: lineno,
                    message: format!("non-finite coordinate {field:?}"),
                });
            }
        }
        out.push((oid, Point::new(c)));
    }
    Ok(out)
}

/// Writes points as CSV (`oid,coord0,...,coordD-1` per line).
pub fn write_csv<const D: usize, P: AsRef<Path>>(
    path: P,
    points: &[(u64, Point<D>)],
) -> Result<(), IoError> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for (oid, p) in points {
        write!(w, "{oid}")?;
        for d in 0..D {
            write!(w, ",{}", p[d])?;
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ann-datagen-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn csv_round_trip() {
        let pts = crate::uniform::<3>(200, 9);
        let path = tmp("roundtrip.csv");
        write_csv(&path, &pts).unwrap();
        let back = read_csv::<3, _>(&path).unwrap();
        assert_eq!(back.len(), 200);
        for ((ao, ap), (bo, bp)) in pts.iter().zip(&back) {
            assert_eq!(ao, bo);
            // f64 -> decimal -> f64 is exact with Rust's shortest-repr
            // formatting.
            assert_eq!(ap.coords(), bp.coords());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn csv_without_ids_numbers_sequentially() {
        let path = tmp("noids.csv");
        std::fs::write(&path, "# comment\n1.5, 2.5\n\n3 4\n5;6\n").unwrap();
        let pts = read_csv::<2, _>(&path).unwrap();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (0, ann_geom::Point::new([1.5, 2.5])));
        assert_eq!(pts[2], (2, ann_geom::Point::new([5.0, 6.0])));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn csv_rejects_malformed_lines() {
        let path = tmp("bad.csv");
        std::fs::write(&path, "1,2\nX,4\n").unwrap();
        match read_csv::<2, _>(&path) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::write(&path, "1,2,3,4\n").unwrap();
        assert!(matches!(
            read_csv::<2, _>(&path),
            Err(IoError::Parse { line: 1, .. })
        ));
        std::fs::write(&path, "1,inf\n").unwrap();
        assert!(read_csv::<2, _>(&path).is_err());
        std::fs::remove_file(path).ok();
    }
}
