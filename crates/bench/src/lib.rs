//! # pdsp-bench-benches
//!
//! Benchmark entry points, one binary each: `figures` regenerates every
//! table and figure of the paper's evaluation; `bench`, `batching`,
//! `chaos` and `tracing` are the smoke benchmarks CI runs at reduced
//! scale, each writing a `BENCH_*.json` report. Per-layer timings of the
//! engine (operators, plan expansion, schema inference, the wire codec,
//! the simulator) are measured by the standalone `benchmark/` package.
