//! Traced benchmark runs: spans, step histograms and allocation counts.

#[global_allocator]
static ALLOC: perfbench::alloc::Counting = perfbench::alloc::Counting;

fn main() {
    std::process::exit(perfbench::main(true));
}
