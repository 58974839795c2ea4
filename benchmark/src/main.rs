fn main() -> std::process::ExitCode {
    mfbc_benchmark::cli::main(std::env::args().skip(1).collect())
}
