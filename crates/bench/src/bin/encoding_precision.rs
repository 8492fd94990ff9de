//! Regenerates the **§3.2 encoding-quality claims** (Figures 1–3, Table 1):
//! exact representation up to 511 bytes, sub-0.2% average fragmentation,
//! and the 6-bit permission compression round-trip.

fn main() {
    print!("{}", cheriot_bench::harness::encoding().write());
}
