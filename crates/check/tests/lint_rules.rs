//! Rule-by-rule tests for the st-lint scanner (`st_check::lint`), run on
//! inline source snippets so each rule's trigger and its justification are
//! pinned.

use std::path::Path;

use st_check::lint::{lint_source, to_json, Allowlist, Violation};

fn rules(path: &str, src: &str) -> Vec<&'static str> {
    lint_source(Path::new(path), src)
        .into_iter()
        .map(|v| v.rule)
        .collect()
}

#[test]
fn unsafe_block_needs_safety_comment() {
    let bad = "fn f() {\n    let x = unsafe { *p };\n}\n";
    assert_eq!(rules("crates/x/src/a.rs", bad), vec!["unsafe-safety"]);

    let good = "fn f() {\n    // SAFETY: p is valid for reads, checked above.\n    let x = unsafe { *p };\n}\n";
    assert!(rules("crates/x/src/a.rs", good).is_empty());

    let same_line = "fn f() { unsafe { *p } } // SAFETY: p valid\n";
    assert!(rules("crates/x/src/a.rs", same_line).is_empty());
}

#[test]
fn unsafe_impl_needs_safety_but_unsafe_fn_does_not() {
    let impl_bad = "unsafe impl Send for X {}\n";
    assert_eq!(rules("crates/x/src/a.rs", impl_bad), vec!["unsafe-safety"]);

    // `unsafe fn` declarations are covered by deny(unsafe_op_in_unsafe_fn):
    // the *body* must carry explicit (commented) unsafe blocks instead.
    let fn_decl = "pub unsafe fn kernel(p: *const f32) -> f32 {\n    // SAFETY: caller upholds the contract.\n    unsafe { *p }\n}\n";
    assert!(rules("crates/x/src/a.rs", fn_decl).is_empty());
}

#[test]
fn unsafe_inside_strings_and_comments_is_ignored() {
    let src = "fn f() {\n    let s = \"unsafe { }\";\n    // unsafe is discussed here only\n}\n";
    assert!(rules("crates/x/src/a.rs", src).is_empty());
}

#[test]
fn relaxed_ordering_needs_order_comment() {
    let bad = "fn f(a: &AtomicUsize) -> usize {\n    a.load(Ordering::Relaxed)\n}\n";
    assert_eq!(rules("crates/x/src/a.rs", bad), vec!["order-relaxed"]);

    let good = "fn f(a: &AtomicUsize) -> usize {\n    // ORDER: monotonic counter, read for reporting only.\n    a.load(Ordering::Relaxed)\n}\n";
    assert!(rules("crates/x/src/a.rs", good).is_empty());
}

#[test]
fn relaxed_in_test_code_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn f(a: &AtomicUsize) -> usize {\n        a.load(Ordering::Relaxed)\n    }\n}\n";
    assert!(rules("crates/x/src/a.rs", src).is_empty());
    // ...and in integration-test files.
    let file = "fn f(a: &AtomicUsize) -> usize { a.load(Ordering::Relaxed) }\n";
    assert!(rules("crates/x/tests/a.rs", file).is_empty());
    assert_eq!(rules("crates/x/src/a.rs", file), vec!["order-relaxed"]);
}

#[test]
fn unwrap_and_expect_banned_in_serve_and_shm_only() {
    let src =
        "fn f() {\n    let g = m.lock().unwrap();\n    let h = n.lock().expect(\"lock\");\n}\n";
    assert_eq!(
        rules("crates/core/src/serve/reactor.rs", src),
        vec!["no-unwrap", "no-unwrap"]
    );
    assert_eq!(
        rules("crates/net/src/shm.rs", src),
        vec!["no-unwrap", "no-unwrap"]
    );
    // Other files are out of scope for this rule — the serve rules key on
    // the `serve/` directory, and a sibling of it is not in it.
    assert!(rules("crates/core/src/runtime.rs", src).is_empty());
    assert!(rules("crates/core/src/server.rs", src).is_empty());

    // Test modules inside the serve tree are exempt, in line or as the
    // tree's out-of-line `tests.rs`.
    let test_src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { m.lock().unwrap(); }\n}\n";
    assert!(rules("crates/core/src/serve/reactor.rs", test_src).is_empty());
    assert!(rules("crates/core/src/serve/tests.rs", src).is_empty());
}

#[test]
fn native_endian_conversions_banned_in_net() {
    let src = "fn f(x: u32) -> [u8; 4] { x.to_ne_bytes() }\n";
    assert_eq!(rules("crates/net/src/wire.rs", src), vec!["ne-bytes"]);
    assert!(rules("crates/core/src/serve/state.rs", src).is_empty());
}

#[test]
fn thread_sleep_banned_in_reactor_files() {
    let src = "fn f() { std::thread::sleep(Duration::from_millis(1)); }\n";
    assert_eq!(
        rules("crates/core/src/serve/reactor.rs", src),
        vec!["no-sleep"]
    );
    assert_eq!(rules("crates/net/src/poll.rs", src), vec!["no-sleep"]);
    assert!(rules("crates/net/src/shm.rs", src).is_empty());

    let test_src =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { std::thread::sleep(D); }\n}\n";
    assert!(rules("crates/core/src/serve/reactor.rs", test_src).is_empty());
}

#[test]
fn ignored_send_banned_on_failover_and_mailbox_paths() {
    let bad = "fn f() {\n    let _ = downlink.send(bytes, msg);\n}\n";
    assert_eq!(
        rules("crates/core/src/serve/reactor.rs", bad),
        vec!["ignored-send"]
    );
    assert_eq!(
        rules("crates/core/src/runtime/live.rs", bad),
        vec!["ignored-send"]
    );
    // Out-of-scope files and handled results stay clean.
    assert!(rules("crates/core/src/loadgen.rs", bad).is_empty());
    let handled = "fn f() {\n    deliver(&downlink, bytes, msg, &mut lost_acks);\n    if tx.send(e).is_err() { count += 1; }\n}\n";
    assert!(rules("crates/core/src/serve/reactor.rs", handled).is_empty());
    // `let _ =` without a send on the same statement is some other rule's
    // business.
    let other = "fn f() {\n    let _ = guard;\n}\n";
    assert!(rules("crates/core/src/serve/reactor.rs", other).is_empty());

    // Test modules are exempt — scripted endpoints drop sends on purpose.
    let test_src =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = tx.send(1); }\n}\n";
    assert!(rules("crates/core/src/serve/reactor.rs", test_src).is_empty());
}

#[test]
fn raw_strings_and_char_literals_do_not_confuse_the_lexer() {
    let src = concat!(
        "fn f() {\n",
        "    let a = r#\"unsafe { Ordering::Relaxed }\"#;\n",
        "    let b = 'u';\n",
        "    let c: &'static str = \"x\";\n",
        "    let d = b\"unsafe\";\n",
        "}\n"
    );
    assert!(rules("crates/x/src/a.rs", src).is_empty());
}

#[test]
fn allowlist_suppresses_by_rule_and_path() {
    let v = Violation {
        file: Path::new("crates/net/src/shm.rs").to_path_buf(),
        line: 10,
        rule: "order-relaxed",
        message: "m".to_string(),
    };
    let dir = std::env::temp_dir().join(format!("st-lint-allow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("st-lint.allow");
    std::fs::write(&file, "# comment\norder-relaxed crates/net/\n").expect("write");
    let allow = Allowlist::load(&file);
    assert!(allow.permits(&v));
    let other = Violation {
        rule: "no-unwrap",
        ..v.clone()
    };
    assert!(!allow.permits(&other));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_report_is_wellformed_enough() {
    let v = vec![Violation {
        file: Path::new("a \"b\".rs").to_path_buf(),
        line: 3,
        rule: "unsafe-safety",
        message: "needs \\ escaping\n".to_string(),
    }];
    let json = to_json(&v);
    assert!(json.starts_with("[\n"));
    assert!(json.contains("\\\"b\\\""));
    assert!(json.contains("\\\\ escaping\\n"));
    assert!(json.trim_end().ends_with(']'));
    // Byte-for-byte what `to_json` produced before it shared its escaper
    // with the other exporters (strings taken from that commit).
    let first = "  {\"file\": \"a \\\"b\\\".rs\", \"line\": 3, \"rule\": \"unsafe-safety\", \
                 \"message\": \"needs \\\\ escaping\\n\"}";
    assert_eq!(json, format!("[\n{first}\n]\n"));
    let second = Violation {
        file: Path::new("crates/x/src/y.rs").to_path_buf(),
        line: 41,
        rule: "relaxed-order",
        message: "tab\there \u{1}".to_string(),
    };
    assert_eq!(
        to_json(&[v[0].clone(), second]),
        format!(
            "[\n{first},\n  {{\"file\": \"crates/x/src/y.rs\", \"line\": 41, \
             \"rule\": \"relaxed-order\", \"message\": \"tab\\there \\u0001\"}}\n]\n"
        )
    );
    assert_eq!(to_json(&[]), "[\n]\n");
}

#[test]
fn chunk_hashing_is_confined_to_store_and_delta() {
    let src = "fn f(chunk: &[u8]) -> u64 {\n    chunk_hash(chunk)\n}\n";
    // A hot serving loop re-deriving checkpoint identity is exactly the bug.
    assert_eq!(
        rules("crates/core/src/serve/state.rs", src),
        vec!["chunk-hash-confined"]
    );
    let combine = "fn f(hs: &[u64]) -> u64 {\n    combine_hashes(hs)\n}\n";
    assert_eq!(
        rules("crates/core/src/runtime/live.rs", combine),
        vec!["chunk-hash-confined"]
    );
    // The primitives' home modules define and may use them freely.
    assert!(rules("crates/nn/src/store.rs", src).is_empty());
    assert!(rules("crates/nn/src/delta.rs", combine).is_empty());
    // Tests (modules and integration files) may hash to state expectations.
    let test_src =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { chunk_hash(&[1u8]); }\n}\n";
    assert!(rules("crates/core/src/serve/state.rs", test_src).is_empty());
    assert!(rules("crates/nn/tests/a.rs", src).is_empty());
    // Mentions in comments and strings are not calls.
    let prose =
        "fn f() {\n    // chunk_hash( is discussed here only\n    let s = \"chunk_hash(x)\";\n}\n";
    assert!(rules("crates/core/src/serve/state.rs", prose).is_empty());
}

#[test]
fn set4_is_banned_in_kernel_code() {
    let src =
        "fn up(out: &mut Tensor, x: &Tensor) {\n    out.set4(0, 0, 0, 0, x.at4(0, 0, 0, 0));\n}\n";
    for path in [
        "crates/tensor/src/pool.rs",
        "crates/nn/src/student.rs",
        "crates/teacher/src/cnn.rs",
    ] {
        assert_eq!(rules(path, src), vec!["no-set4"], "{path}");
    }
    // The definition itself, other crates and integration tests are out of
    // scope ...
    let definition = "impl Tensor {\n    pub fn set4(&mut self, n: usize, value: f32) {}\n}\n";
    assert!(rules("crates/tensor/src/tensor.rs", definition).is_empty());
    assert!(rules("crates/video/src/generator.rs", src).is_empty());
    assert!(rules("crates/tensor/tests/property_kernels.rs", src).is_empty());
    // ... and so are a kernel file's own tests, comments and strings.
    let test_src =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.set4(0, 0, 0, 0, 1.0); }\n}\n";
    assert!(rules("crates/tensor/src/pool.rs", test_src).is_empty());
    let mentioned = "fn f() {\n    // .set4( is discussed here only\n    let s = \".set4(\";\n}\n";
    assert!(rules("crates/tensor/src/pool.rs", mentioned).is_empty());
}
