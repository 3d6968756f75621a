//! DeltaCFS standing benchmark (see `benchmark/README.md`).

pub mod compare;
pub mod config;
pub mod driver;
pub mod meter;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
pub mod staged;
pub mod verify;
pub mod workloads;

#[global_allocator]
static ALLOC: meter::CountingAlloc = meter::CountingAlloc;

/// A directory next to the running executable — inside the cargo target
/// directory, hence inside the checkout and ignored by git — for the
/// few files the benchmark writes (durable-store probes, test outputs).
///
/// # Panics
///
/// Panics if the executable's path cannot be determined.
pub fn scratch_dir() -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.parent()
        .expect("an executable lives in a directory")
        .join("deltacfs-bench-tmp")
}
