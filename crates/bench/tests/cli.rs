//! Command-line error handling of the `experiments` binary: malformed
//! arguments must exit nonzero with the usage line instead of silently
//! running a default. Only the fast failure paths run here — the happy paths
//! execute whole experiment sweeps.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = experiments(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit with status 2"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not run anything");
}

#[test]
fn unknown_experiment_id_is_a_usage_error() {
    assert_usage_error(&["--exp", "e99"]);
}

#[test]
fn missing_experiment_id_is_a_usage_error() {
    assert_usage_error(&["--exp"]);
}

#[test]
fn unrecognized_flag_is_a_usage_error() {
    assert_usage_error(&["--bogus"]);
}

#[test]
fn removed_executor_sweep_is_a_usage_error() {
    assert_usage_error(&["--executor-sweep", "10"]);
}

#[test]
fn max_n_without_json_is_a_usage_error() {
    assert_usage_error(&["--max-n", "10"]);
}

#[test]
fn non_numeric_max_n_is_a_usage_error() {
    assert_usage_error(&["--json", "--max-n", "lots"]);
}

#[test]
fn two_modes_at_once_are_a_usage_error() {
    assert_usage_error(&["--exp", "e7", "--compare", "a.json", "b.json"]);
}

#[test]
fn compare_without_both_files_is_a_usage_error() {
    assert_usage_error(&["--compare", "BENCH_baseline.json"]);
}
