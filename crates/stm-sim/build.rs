//! Sets `--cfg stm_tsan` when the crate is built with ThreadSanitizer, so
//! the coroutine engine announces its context switches to TSan as fiber
//! switches.

fn main() {
    println!("cargo::rustc-check-cfg=cfg(stm_tsan)");
    println!("cargo::rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    if flags.split('\x1f').any(|f| f.ends_with("sanitizer=thread")) {
        println!("cargo::rustc-cfg=stm_tsan");
    }
}
