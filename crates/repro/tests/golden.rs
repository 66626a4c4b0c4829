//! What `repro` prints, pinned byte for byte: `golden/quick_2014.txt` is
//! the stdout of `repro --quick --seed 2014` for `all`, `hetero`, `era`,
//! `calibration` and `workload`, `#` lines dropped, concatenated in that
//! order. It was recorded at commit c471fe3, before the per-figure row
//! structs and printers were folded into one `Row` and one renderer, and
//! dev and release builds print the same bytes.
//!
//! Re-record only for an intended change of output (TESTING.md, "Repro
//! golden"):
//!
//! ```text
//! cargo build --release --offline -p repro
//! for t in all hetero era calibration workload; do
//!   ./target/release/repro --quick --seed 2014 $t | grep -v '^#'
//! done > crates/repro/tests/golden/quick_2014.txt
//! ```

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn quick_scale_stdout_matches_the_golden() {
    let mut got = String::new();
    for target in ["all", "hetero", "era", "calibration", "workload"] {
        let out = repro(&["--quick", "--seed", "2014", target]);
        assert!(out.status.success(), "repro {target} failed: {out:?}");
        for line in String::from_utf8(out.stdout).expect("utf8 stdout").lines() {
            if !line.starts_with('#') {
                got.push_str(line);
                got.push('\n');
            }
        }
    }
    let want = include_str!("golden/quick_2014.txt");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "repro output differs from the golden, first at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

/// Bad input is refused before anything runs: exit 2, the usage line on
/// stderr, nothing on stdout.
#[test]
fn bad_command_lines_exit_2_with_usage() {
    let bad: [&[&str]; 4] = [
        &["--quik", "table1"],
        &["--seed", "abc", "table1"],
        &["--seed"],
        &["table1", "fig1"],
    ];
    for args in bad {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout: {out:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}
