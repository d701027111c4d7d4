//! Streaming-vs-one-shot ingestion benchmark.
//!
//! Writes `BENCH_streaming.json` into the working directory, one row
//! per window count: per-upload wall time for the one-shot batch run
//! and the windowed epoch, the overhead factor, and the bitwise
//! `identical` verdict. Every timing is the median and quartiles of
//! five repetitions. `--smoke` shrinks the deployment to finish in
//! seconds; `--devices` and `--windows` override the axes.

use arboretum_bench::streambench::bench_streaming;

/// Timed repetitions behind every row.
const REPS: usize = 5;

fn main() {
    let mut n_devices = 512usize;
    let mut windows: Vec<usize> = vec![1, 2, 4, 8];
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => n_devices = 64,
            "--devices" => {
                n_devices = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--devices needs a number");
            }
            "--windows" => {
                windows = args
                    .next()
                    .expect("--windows needs a value")
                    .split(',')
                    .map(|t| t.trim().parse().expect("--windows takes numbers"))
                    .collect();
            }
            other => {
                eprintln!("unknown flag {other}; use --smoke | --devices N | --windows A,B,C");
                std::process::exit(2);
            }
        }
    }
    let bench = bench_streaming(n_devices, &windows, REPS);
    println!(
        "streaming ingestion: {} devices x {} categories, {} host CPU(s), median [q1, q3] of {} reps",
        bench.n_devices, bench.categories, bench.host_cpus, bench.reps
    );
    println!(
        "{:>8} {:>24} {:>24} {:>20} {:>10}",
        "windows", "one-shot ns/up", "streamed ns/up", "overhead", "identical"
    );
    for p in &bench.points {
        let (o, s, r) = (
            p.one_shot_ns_per_upload,
            p.streamed_ns_per_upload,
            p.overhead,
        );
        println!(
            "{:>8} {:>8.0} [{:>6.0}, {:>6.0}] {:>8.0} [{:>6.0}, {:>6.0}] {:>5.2}x [{:.2}, {:.2}] {:>10}",
            p.windows, o.median, o.q1, o.q3, s.median, s.q1, s.q3, r.median, r.q1, r.q3, p.identical
        );
    }
    std::fs::write("BENCH_streaming.json", bench.to_json()).expect("write BENCH_streaming.json");
    println!("wrote BENCH_streaming.json");
}
