// The benchmark shim: its machine query is the one sanctioned
// `available_parallelism` and stays silent, but a thread spawned here is
// reported like anywhere else.
pub fn configured_parallelism() -> usize {
    std::thread::spawn(|| {});
    std::thread::available_parallelism().map_or(1, |p| p.get())
}
