//! Regenerates **Table 4** and **Figures 5/6** from one allocator sweep
//! per core: cycles to allocate 1 MiB at each allocation size for the four
//! temporal-safety configurations with and without the stack high-water
//! mark (`results/table4_alloc_cycles_{flute,ibex}.csv`), and the same
//! grid as overheads relative to Baseline (`results/fig5_alloc_flute.csv`,
//! `results/fig6_alloc_ibex.csv`).

fn main() {
    print!("{}", cheriot_bench::harness::alloc().write());
}
