//! Regenerates Table 1: benchmark characteristics (paper vs. measured).
//!
//! ```text
//! cargo run -p mlo-bench --release --bin table1
//! ```

use mlo_core::experiments::{format_table1, table1};

fn main() {
    let rows = table1();
    println!("Table 1: benchmark codes (paper vs. this reconstruction)\n");
    println!("{}", format_table1(&rows));
    println!(
        "Domain size = total number of candidate layouts across all arrays;\n\
         data size = total array footprint.  The reconstructed benchmarks are\n\
         synthetic kernels matched to the published characteristics (the\n\
         substitution rule is stated in the mlo-benchmarks crate doc)."
    );
}
