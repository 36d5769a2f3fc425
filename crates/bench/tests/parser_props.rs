//! Parsers of outside input never panic: JSON-like text given to the
//! gate's JSON parser, and journal files of such lines given to
//! `Journal::open`, end in a value or an error.

use aqua_bench::gate::json;
use aqua_bench::journal::Journal;
use proptest::prelude::*;

/// The JSON-like alphabet the fuzz draws from: JSON punctuation, number
/// pieces and keywords, a `\u` escape head, the alert grammar's
/// comparisons, separator and call, and a non-ASCII char.
const TOKENS: [&str; 31] = [
    "{", "}", "[", "]", "\"", ":", ",", ".", "-", "+", "e", "E", "0", "1", "2", "3", "4", "5", "6",
    "7", "8", "9", "true", "null", "\\u", ">", "<", ";", "delta(", ")", "é",
];

/// A well-formed v1 journal record, cut at spaces into the pieces a
/// garbled line inserts tokens between, replaces or deletes, so that some
/// lines get past the JSON parse to the version check and the field reads.
const RECORD: &str = r#"{ "v" : 1 , "key" : "0123456789abcdef" , "label" : "x" , "status" : "ok" , "retriable" : false , "attempts" : 1 , "payload" : { } }"#;

/// The text of drawn token indices.
fn text(tokens: &[usize]) -> String {
    tokens.iter().map(|&i| TOKENS[i]).collect()
}

/// [`RECORD`] after each `(op, at, token)` edit: insert the token before
/// piece `at`, replace piece `at` with it, or delete piece `at`.
fn garbled(edits: &[(u8, usize, usize)]) -> String {
    let mut pieces: Vec<&str> = RECORD.split(' ').collect();
    for &(op, at, token) in edits {
        let at = at % (pieces.len() + 1);
        match op {
            0 => pieces.insert(at, TOKENS[token]),
            _ if at == pieces.len() => {}
            1 => pieces[at] = TOKENS[token],
            _ => {
                pieces.remove(at);
            }
        }
    }
    pieces.concat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Baseline files, journal lines and `/healthz` bodies go through
    /// `gate::json::parse`: any text parses or is an error.
    #[test]
    fn gate_json_parse_never_panics(
        tokens in prop::collection::vec(0usize..TOKENS.len(), 0..64),
    ) {
        let text = text(&tokens);
        if let Err(e) = json::parse(&text) {
            prop_assert!(!e.is_empty(), "{text:?}");
        }
    }

    /// A journal whose lines are drawn text or garbled records opens,
    /// loading at most one record per line, or is an error naming the
    /// journal.
    #[test]
    fn journal_open_never_panics(
        lines in prop::collection::vec(
            (
                any::<bool>(),
                prop::collection::vec(0usize..TOKENS.len(), 0..32),
                prop::collection::vec((0u8..3, 0usize..64, 0usize..TOKENS.len()), 0..4),
            ),
            0..6,
        ),
    ) {
        let body: String = lines
            .iter()
            .map(|(drawn, tokens, edits)| {
                let line = if *drawn { text(tokens) } else { garbled(edits) };
                line + "\n"
            })
            .collect();
        let path = std::env::temp_dir()
            .join(format!("aqua-journal-props-{}.jsonl", std::process::id()));
        std::fs::write(&path, &body).expect("write the journal");
        let opened = Journal::open(&path);
        std::fs::remove_file(&path).expect("remove the journal");
        match opened {
            Ok(journal) => prop_assert!(journal.loaded() <= lines.len(), "{body:?}"),
            Err(e) => prop_assert!(e.starts_with("journal "), "{e}: {body:?}"),
        }
    }
}
