//! `--only` validation of the table binaries: a name that matches no
//! circuit, or (for `table1`, which runs one circuit) a list of names,
//! exits with status 2 and the list of known circuits before any solve
//! starts.

use std::process::Command;

fn run(bin: &str, only: &str) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(["--only", only])
        .output()
        .expect("binary starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn unknown_only_names_exit_2_with_the_known_list() {
    for bin in [env!("CARGO_BIN_EXE_table1"), env!("CARGO_BIN_EXE_table2")] {
        let (code, stderr) = run(bin, "s9999");
        assert_eq!(code, Some(2), "{bin}: {stderr}");
        assert!(stderr.contains("s9999"), "{bin}: {stderr}");
        assert!(stderr.contains("known: s208"), "{bin}: {stderr}");
    }
}

#[test]
fn table1_rejects_more_than_one_circuit() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_table1"), "s27,s526");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("s27, s526"), "{stderr}");
}
