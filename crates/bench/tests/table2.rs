//! The `table2` binary's argument handling, end to end.

use std::process::Command;

#[test]
fn table2_rejects_unknown_flags_and_bad_values() {
    for args in [&["--bogus"][..], &["--jobs", "zero"]] {
        let o = Command::new(env!("CARGO_BIN_EXE_table2"))
            .args(args)
            .output()
            .expect("spawn table2");
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        assert!(o.stdout.is_empty(), "{args:?} ran the table");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.starts_with("table2: "), "{err}");
    }
}
