fn main() -> std::process::ExitCode {
    perfbench::cli::main(std::env::args().skip(1).collect())
}
