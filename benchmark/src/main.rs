fn main() {
    // `workers(2)` re-execs this binary as its Step-2 workers (socket and
    // worker id travel through the environment): serve the lease loop
    // and exit before parsing anything.
    match parahash::worker_from_env() {
        Ok(true) => return,
        Ok(false) => {}
        Err(e) => {
            eprintln!("parabench: shard worker failed: {e}");
            std::process::exit(1);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(parabench::cli::main(&args));
}
