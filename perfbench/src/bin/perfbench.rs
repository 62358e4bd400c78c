//! Untraced benchmark runs: the system allocator, no spans.

fn main() {
    std::process::exit(perfbench::main(false));
}
