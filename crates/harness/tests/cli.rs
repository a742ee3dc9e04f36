//! Binary-level behaviour of `reproduce`: input errors get a one-line
//! message and exit status 2, never a panic backtrace or a run over an
//! empty trace selection; `--help` prints the usage and exits 0; scale
//! trails survive the child-process hop.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("the reproduce binary runs")
}

#[test]
fn unknown_or_malformed_trace_numbers_exit_2() {
    let trail = std::env::temp_dir().join(format!("cesrm-cli-traces-{}.json", std::process::id()));
    let trail = trail.to_str().expect("UTF-8 temp path");
    let cases: [&[&str]; 7] = [
        &["--traces", "99", "--digest", trail],
        &["--traces", "99"],
        &["--traces", "abc"],
        &["--traces", "4,0"],
        &["--traces", "4,"],
        &["--traces", "-1"],
        &["--traces"],
    ];
    for args in cases {
        let out = reproduce(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(
            stderr.lines().count(),
            1,
            "{args:?}: one-line error, got:\n{stderr}"
        );
        assert!(stderr.starts_with("--traces"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no tables are printed");
    }
    assert!(
        !std::path::Path::new(trail).exists(),
        "no trail is written for a rejected selection"
    );
}

#[test]
fn malformed_flag_values_exit_2_with_one_line() {
    let cases: [(&[&str], &str); 11] = [
        (&["--scale", "abc"], "--scale"),
        (&["--scale", "0"], "--scale"),
        (&["--scale", "1.5"], "--scale"),
        (&["--scale"], "--scale"),
        (&["--jobs", "two"], "--jobs"),
        (&["--seed", "-3"], "--seed"),
        (
            &["--baseline-max-wall-pct", "ten"],
            "--baseline-max-wall-pct",
        ),
        (&["scale", "--rungs", "abc"], "--rungs"),
        (&["scale", "--rungs", "1000,"], "--rungs"),
        (&["scale", "--shards", "x"], "--shards"),
        (&["scale", "--max-rss-mb"], "--max-rss-mb"),
    ];
    for (args, flag) in cases {
        let out = reproduce(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(
            stderr.lines().count(),
            1,
            "{args:?}: one-line error, got:\n{stderr}"
        );
        assert!(
            stderr.starts_with(&format!("{flag} requires ")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    for (args, head) in [
        (&["--help"][..], "usage: reproduce ["),
        (&["-h"], "usage: reproduce ["),
        (&["--scale", "0.01", "--help"], "usage: reproduce ["),
        (&["scale", "--help"], "usage: reproduce scale "),
        (&["scale", "-h"], "usage: reproduce scale "),
        (&["diff", "--help"], "usage: reproduce diff "),
    ] {
        let out = reproduce(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.starts_with(head), "{args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?}: nothing runs");
    }
}

#[test]
fn unknown_flags_exit_2() {
    for args in [
        &["--bogus"][..],
        &["scale", "--bogus"],
        &["scale", "--losses", "3"],
    ] {
        let out = reproduce(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown"), "{args:?}: {stderr}");
    }
}

#[test]
fn known_trace_numbers_run() {
    let out = reproduce(&["--scale", "0.01", "--traces", "4,13"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("WRN950919"));
}

/// Each scale rung runs in a child process that ships its digest levels
/// back on its result line; the parent's trail must be byte-identical to
/// one rendered in-process.
#[test]
fn scale_trail_is_the_same_through_a_child_process() {
    let dir = std::env::temp_dir().join(format!("cesrm-cli-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("writable temp dir");
    let trail = |name: &str, extra: &[&str]| {
        let path = dir.join(name);
        let path_arg = path.to_str().expect("UTF-8 temp path");
        let mut args = vec![
            "scale",
            "--rungs",
            "120,300",
            "--packets",
            "4",
            "--digest",
            path_arg,
        ];
        args.extend_from_slice(extra);
        let out = reproduce(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        // A child whose result line does not parse is rerun in-process,
        // which would hide a broken hop.
        assert!(!stderr.contains("scale-rung child"), "{stderr}");
        std::fs::read(&path).expect("trail written")
    };
    let child = trail("child.json", &[]);
    let in_process = trail("in-process.json", &["--in-process"]);
    assert!(
        child == in_process,
        "child-process and in-process trails differ"
    );
    assert!(child.starts_with(b"{\n  \"schema\": \"cesrm-digest/1\""));
    std::fs::remove_dir_all(&dir).expect("temp dir removable");
}
