//! A self-contained markdown freshness checker over `README.md` and
//! `docs/`: every relative link target must exist on disk (the build
//! environment has no network, so external URLs are only sanity-checked for
//! scheme), and every mention of a repository code path — `crates/...`,
//! `examples/...`, `tests/...`, `docs/...`, `.github/...`, in prose,
//! backticks or fenced blocks — must name something that actually exists,
//! as must every cargo target a command line names (`--bin NAME`,
//! `--test NAME`, `--bench NAME`), so refactors cannot quietly strand the
//! documentation or leave a deleted binary in a runbook. CI runs this as its
//! link-check step.

use std::path::{Path, PathBuf};

/// Collects `README.md` plus every `.md` file directly under `docs/`.
fn markdown_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    let entries = std::fs::read_dir(&docs).expect("docs/ directory exists");
    for entry in entries {
        let path = entry.expect("readable docs/ entry").path();
        if path.extension().is_some_and(|ext| ext == "md") {
            files.push(path);
        }
    }
    files.sort();
    assert!(
        files.len() >= 4,
        "expected README + at least ARCHITECTURE, PERFORMANCE and WIRE_PROTOCOL under docs/, found {files:?}"
    );
    files
}

/// Extracts inline `[text](target)` links, skipping fenced code blocks.
fn extract_links(markdown: &str) -> Vec<String> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            // Find "](", then read to the matching ")".
            if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
                if let Some(close) = line[i + 2..].find(')') {
                    links.push(line[i + 2..i + 2 + close].trim().to_string());
                    i += 2 + close;
                    continue;
                }
            }
            i += 1;
        }
    }
    links
}

#[test]
fn every_relative_markdown_link_resolves() {
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for file in markdown_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        let dir = file.parent().expect("markdown file has a parent");
        for link in extract_links(&text) {
            // External URLs and pure intra-document anchors are out of scope
            // for an offline checker.
            if link.starts_with("http://")
                || link.starts_with("https://")
                || link.starts_with("mailto:")
                || link.starts_with('#')
            {
                continue;
            }
            let target = link.split('#').next().unwrap_or("");
            if target.is_empty() {
                continue;
            }
            checked += 1;
            if !dir.join(target).exists() {
                broken.push(format!("{}: ({link})", file.display()));
            }
        }
    }
    assert!(
        checked >= 5,
        "link extraction found suspiciously few relative links ({checked}); parser regression?"
    );
    assert!(
        broken.is_empty(),
        "broken relative markdown links:\n{}",
        broken.join("\n")
    );
}

/// Extracts every token that looks like a repository code path: it starts
/// with one of the tracked top-level prefixes and contains a `/`. Tokens
/// with placeholder characters (`<`, `*`, `…`) are skipped — they are
/// templates, not paths.
fn extract_code_paths(markdown: &str) -> Vec<String> {
    const PREFIXES: [&str; 5] = ["crates/", "examples/", "tests/", "docs/", ".github/"];
    let mut paths = Vec::new();
    for raw in markdown.split(|c: char| {
        c.is_whitespace() || matches!(c, '(' | ')' | '[' | ']' | '`' | '"' | '|' | ',' | ';')
    }) {
        // Strip markdown emphasis wrappers (`**path**`, `_path_`) so styled
        // mentions stay covered; only *interior* wildcards mark a template.
        let raw = raw.trim_matches(['*', '_']);
        // `path.rs::item` names an item inside a file; check the file part.
        let raw = raw.split("::").next().unwrap_or(raw);
        let token = raw.trim_end_matches(['.', ':', '…', '—']);
        if !PREFIXES.iter().any(|prefix| token.starts_with(prefix)) {
            continue;
        }
        if !token.contains('/') || token.contains(['<', '>', '*', '…']) {
            continue;
        }
        paths.push(token.to_string());
    }
    paths
}

#[test]
fn every_mentioned_code_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stale = Vec::new();
    let mut checked = 0usize;
    for file in markdown_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        for path in extract_code_paths(&text) {
            checked += 1;
            if !root.join(&path).exists() {
                stale.push(format!("{}: {path}", file.display()));
            }
        }
    }
    assert!(
        checked >= 10,
        "code-path extraction found suspiciously few mentions ({checked}); parser regression?"
    );
    assert!(
        stale.is_empty(),
        "documentation mentions code paths that do not exist:\n{}",
        stale.join("\n")
    );
}

/// Extracts every `--bin NAME`, `--test NAME` and `--bench NAME` pair, as
/// `(flag, name)`. Placeholder names (`<name>`, `NAME…`) are skipped.
fn extract_cargo_targets(markdown: &str) -> Vec<(&str, &str)> {
    let mut targets = Vec::new();
    let mut words = markdown
        .split(|c: char| c.is_whitespace() || matches!(c, '`' | '(' | ')' | '"' | ',' | ';'))
        .filter(|word| !word.is_empty())
        .peekable();
    while let Some(flag) = words.next() {
        if !matches!(flag, "--bin" | "--test" | "--bench") {
            continue;
        }
        // `--test` can also end a clause ("pass --test to ..."): only a
        // following identifier is a target name.
        let Some(name) = words.peek().map(|next| next.trim_end_matches(['.', ':'])) else {
            continue;
        };
        let is_identifier = name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-'));
        if !name.is_empty() && is_identifier && !name.starts_with('-') {
            targets.push((flag, name));
        }
    }
    targets
}

/// Whether `<subdir>/<name>.rs` exists in the umbrella package or in any
/// workspace member under `crates/`.
fn target_source_exists(root: &Path, subdir: &str, name: &str) -> bool {
    let source = Path::new(subdir).join(format!("{name}.rs"));
    let members = std::fs::read_dir(root.join("crates")).expect("crates/ directory exists");
    root.join(&source).exists()
        || members
            .map(|entry| entry.expect("readable crates/ entry").path())
            .any(|member| member.join(&source).exists())
}

#[test]
fn every_mentioned_cargo_target_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stale = Vec::new();
    let mut checked = 0usize;
    for file in markdown_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        for (flag, name) in extract_cargo_targets(&text) {
            checked += 1;
            let subdir = match flag {
                "--bin" => "src/bin",
                "--test" => "tests",
                _ => "benches",
            };
            if !target_source_exists(root, subdir, name) {
                stale.push(format!("{}: {flag} {name}", file.display()));
            }
        }
    }
    assert!(
        checked >= 10,
        "cargo-target extraction found suspiciously few mentions ({checked}); parser regression?"
    );
    assert!(
        stale.is_empty(),
        "documentation names cargo targets that do not exist:\n{}",
        stale.join("\n")
    );
}

#[test]
fn cargo_target_extraction_handles_the_basics() {
    let sample = "run `cargo run -p ensembler-bench --bin load_gen --release -- --smoke`, \
                  then cargo test -p ensembler-serve --test loopback --test wire_examples. \
                  (`cargo bench --bench tensor_ops`); a template --bin <name> is skipped, \
                  as is a dangling --test\n--release and a trailing --bin";
    assert_eq!(
        extract_cargo_targets(sample),
        [
            ("--bin", "load_gen"),
            ("--test", "loopback"),
            ("--test", "wire_examples"),
            ("--bench", "tensor_ops"),
        ]
    );
}

#[test]
fn code_path_extraction_handles_the_basics() {
    let sample = "see `crates/serve/src/protocol.rs` and (docs/SERVING.md), \
                  the template crates/<x>/src/<y>.rs is skipped, \
                  the glob crates/*/src is skipped, \
                  **docs/ARCHITECTURE.md** is bold but still checked, \
                  the router tier lives in crates/shard/src/lib.rs, \
                  tests/markdown_links.rs ends a sentence. \
                  .github/workflows/ci.yml runs it; plain words stay out.";
    let paths = extract_code_paths(sample);
    assert_eq!(
        paths,
        vec![
            "crates/serve/src/protocol.rs",
            "docs/SERVING.md",
            "docs/ARCHITECTURE.md",
            "crates/shard/src/lib.rs",
            "tests/markdown_links.rs",
            ".github/workflows/ci.yml",
        ]
    );
}

#[test]
fn link_extraction_handles_the_basics() {
    let sample = "see [a](docs/A.md) and [b](https://x.invalid/y) \
                  and [c](B.md#frag)\n```\n[not](a-link.md)\n```\n";
    let links = extract_links(sample);
    assert_eq!(links, vec!["docs/A.md", "https://x.invalid/y", "B.md#frag"]);
}
