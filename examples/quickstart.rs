//! Quickstart: index two point sets and evaluate the all-nearest-neighbor
//! join through the unified query API, with an execution trace attached.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use allnn::geom::Point;
use allnn::mbrqt::{Mbrqt, MbrqtConfig};
use allnn::prelude::*;
use allnn::store::{BufferPool, MemDisk};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A buffer pool of 64 8-KiB frames (the paper's 512 KiB configuration)
    // over an in-memory disk. Swap `MemDisk` for `FileDisk::create(path)?`
    // to put the indices in a real file.
    let pool = Arc::new(BufferPool::new(MemDisk::new(), 64));

    // The query set R: a small grid of sensors.
    let sensors: Vec<(u64, Point<2>)> = (0..100)
        .map(|i| {
            let (x, y) = (i % 10, i / 10);
            (i, Point::new([x as f64 * 10.0, y as f64 * 10.0]))
        })
        .collect();

    // The target set S: synthetic "events" scattered over the same area.
    let events = allnn::datagen::uniform::<2>(5_000, 42)
        .into_iter()
        .map(|(oid, p)| (oid, Point::new([p[0] * 90.0, p[1] * 90.0])))
        .collect::<Vec<_>>();

    // Disk-resident MBRQT indices over both sets.
    let sensor_index = Mbrqt::bulk_build(pool.clone(), &sensors, &MbrqtConfig::default())?;
    let event_index = Mbrqt::bulk_build(pool.clone(), &events, &MbrqtConfig::default())?;

    // For every sensor, the nearest event — one request, one call. Attach
    // a RecordingSink to capture a structured execution report; drop the
    // `.trace(..)` line and the run is bit-identical with zero overhead.
    let sink = RecordingSink::new();
    let mut output = AnnRequest::new(Algorithm::mba())
        .k(1)
        .metric(MetricChoice::Nxn)
        .trace(&sink)
        .run(Input::Index(&sensor_index), Input::Index(&event_index))?;
    output.sort();

    println!(
        "nearest event per sensor (first 10 of {}):",
        output.results.len()
    );
    for pair in output.results.iter().take(10) {
        println!(
            "  sensor #{:<3} -> event #{:<4} at distance {:.3}",
            pair.r_oid, pair.s_oid, pair.dist
        );
    }

    let st = &output.stats;
    println!("\nwork done:");
    println!("  distance computations : {}", st.distance_computations);
    println!("  queue entries created : {}", st.enqueued);
    println!(
        "  page reads            : {} logical / {} physical",
        st.io.logical_reads, st.io.physical_reads
    );

    // The execution report: phase wall times with I/O deltas, per-level
    // expansion histograms, pruning breakdown — serializable to JSON.
    println!(
        "\nexecution report:\n{}",
        sink.report("quickstart").to_json()
    );
    Ok(())
}
