//! The environment-variable inventory is pinned: the `"REFEREE_…"`
//! string literals under `crates/*/src` and `examples/` are exactly the
//! variables listed in the `# Configuration` table of the facade doc
//! (`crates/core/src/lib.rs`). A new knob therefore has to add a row
//! there, where review sees it.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const PREFIX: &str = "\"REFEREE_";

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Every `"REFEREE_[A-Z0-9_]+"` string literal in `src`.
fn env_literals(src: &str, into: &mut BTreeSet<String>) {
    let mut rest = src;
    while let Some(at) = rest.find(PREFIX) {
        let tail = &rest[at + 1..];
        let len = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        if tail[len..].starts_with('"') {
            into.insert(tail[..len].to_string());
        }
        rest = &tail[len..];
    }
}

/// The variable names in the first column of the `# Configuration` table.
fn table_names(facade: &str) -> BTreeSet<String> {
    facade
        .lines()
        .filter_map(|line| line.strip_prefix("//! | `REFEREE_"))
        .map(|rest| format!("REFEREE_{}", &rest[..rest.find('`').expect("closing backtick")]))
        .collect()
}

#[test]
fn env_vars_match_the_configuration_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    rust_files(&root.join("examples"), &mut files);

    let mut literals = BTreeSet::new();
    for file in &files {
        env_literals(&fs::read_to_string(file).unwrap(), &mut literals);
    }
    let facade = fs::read_to_string(root.join("crates/core/src/lib.rs")).unwrap();
    let table = table_names(&facade);

    assert!(!table.is_empty(), "no `# Configuration` rows found in the facade doc");
    assert_eq!(
        literals, table,
        "the REFEREE_* string literals in the source differ from the `# Configuration` \
         table in crates/core/src/lib.rs"
    );
}
