//! Bad `PCIE_BENCH_*` knob values make the extension benches exit 2
//! with a one-line error before any simulation starts, instead of
//! panicking inside an engine constructor or silently running at a
//! default.

use std::process::Command;

/// Runs `bin --quick` with the knob `name=value` and returns its exit
/// code and stderr.
fn run_quick(bin: &str, name: &str, value: &str) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .arg("--quick")
        .env_remove("PCIE_BENCH_QUEUES")
        .env_remove("PCIE_BENCH_N")
        .env(name, value)
        .output()
        .expect("bench binary starts");
    assert!(out.stdout.is_empty(), "no output before the knob check");
    (
        out.status.code(),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

const BENCHES: [&str; 2] = [
    env!("CARGO_BIN_EXE_ext_flows"),
    env!("CARGO_BIN_EXE_ext_rpc"),
];

#[test]
fn queue_count_above_the_engine_bound_exits_2() {
    for bin in BENCHES {
        let (code, stderr) = run_quick(bin, "PCIE_BENCH_QUEUES", "300");
        assert_eq!(code, Some(2), "{bin}: {stderr}");
        assert_eq!(
            stderr, "error: PCIE_BENCH_QUEUES=\"300\": queues 300 out of range 1..=256\n",
            "{bin}"
        );
    }
}

#[test]
fn unparsable_scale_exits_2() {
    for bin in BENCHES {
        let (code, stderr) = run_quick(bin, "PCIE_BENCH_N", "abc");
        assert_eq!(code, Some(2), "{bin}: {stderr}");
        assert_eq!(
            stderr, "error: PCIE_BENCH_N=\"abc\": expected a positive number\n",
            "{bin}"
        );
    }
}
