//! Run an AkNN join over your own data: points come from CSV files, the
//! neighbor pairs go back out as CSV. This is the path for running the
//! paper's experiments on the *real* TAC or Forest Cover files.
//!
//! ```sh
//! # self-join, k=1 (classic ANN, self-matches excluded):
//! cargo run --release --example csv_ann -- points.csv
//!
//! # R against S, 5 neighbors each, results to a file:
//! cargo run --release --example csv_ann -- r.csv s.csv --k 5 --out pairs.csv
//! ```
//!
//! Input lines hold 2 numeric columns (or 3 with a leading integer id);
//! `#` comments and blank lines are fine. For other dimensionalities,
//! change the `DIMS` constant and rebuild — dimensionality is a
//! compile-time constant throughout the library.

use allnn::core::query::{run, Algorithm, AnnRequest, Input};
use allnn::mbrqt::{Mbrqt, MbrqtConfig};
use allnn::store::{BufferPool, MemDisk};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

const DIMS: usize = 2;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut paths: Vec<String> = Vec::new();
    let mut k = 1usize;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--k" => k = args.next().ok_or("--k needs a value")?.parse()?,
            "--out" => out_path = Some(args.next().ok_or("--out needs a path")?),
            _ => paths.push(a),
        }
    }
    if paths.is_empty() || paths.len() > 2 {
        eprintln!("usage: csv_ann <r.csv> [s.csv] [--k K] [--out pairs.csv]");
        std::process::exit(2);
    }

    let r = allnn::datagen::io::read_csv::<DIMS, _>(&paths[0])?;
    let self_join = paths.len() == 1;
    let s = if self_join {
        r.clone()
    } else {
        allnn::datagen::io::read_csv::<DIMS, _>(&paths[1])?
    };
    eprintln!("loaded |R| = {}, |S| = {}", r.len(), s.len());

    let pool = Arc::new(BufferPool::new(MemDisk::new(), 1024));
    let t0 = Instant::now();
    let ir = Mbrqt::bulk_build(pool.clone(), &r, &MbrqtConfig::default())?;
    let is = Mbrqt::bulk_build(pool, &s, &MbrqtConfig::default())?;
    eprintln!("indices built in {:.2?}", t0.elapsed());

    let req = AnnRequest::new(Algorithm::mba())
        .k(k)
        .exclude_self(self_join);
    let t0 = Instant::now();
    let mut out = run::<DIMS, _, _>(&req, Input::Index(&ir), Input::Index(&is))?;
    out.sort();
    eprintln!(
        "join done in {:.2?}: {} pairs, {} distance computations",
        t0.elapsed(),
        out.results.len(),
        out.stats.distance_computations
    );

    let mut sink: Box<dyn Write> = match out_path {
        Some(p) => Box::new(std::io::BufWriter::new(std::fs::File::create(p)?)),
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    };
    writeln!(sink, "# r_id,s_id,distance")?;
    for pair in &out.results {
        writeln!(sink, "{},{},{}", pair.r_oid, pair.s_oid, pair.dist)?;
    }
    sink.flush()?;
    Ok(())
}
