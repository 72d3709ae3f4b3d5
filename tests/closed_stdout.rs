//! A closed stdout ends `bioperf-loadchar` the way it ends `yes`: by
//! `SIGPIPE`, with no panic text on stderr (`bioperf-loadchar list |
//! head -1` must not print a backtrace).

#[cfg(unix)]
#[test]
fn closed_stdout_ends_list_by_sigpipe_without_a_panic() {
    use std::os::unix::process::ExitStatusExt;
    use std::process::Command;

    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_bioperf-loadchar"))
        .arg("list")
        .stdout(writer)
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.signal(), Some(13), "status {:?}, stderr: {err}", out.status);
    assert!(!err.contains("panicked"), "stderr: {err}");
}
