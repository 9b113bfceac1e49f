//! Lexer unit suite: every construct that can hide arbitrary text
//! inside a Rust file must round-trip without leaking fake tokens —
//! `unwrap` inside a raw string or a nested block comment is not a
//! call site.

use vitcod_analysis::lexer::{lex, TokenKind};

fn idents(src: &str) -> Vec<String> {
    lex(src)
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
        .collect()
}

fn kinds(src: &str) -> Vec<TokenKind> {
    lex(src).tokens.iter().map(|t| t.kind).collect()
}

#[test]
fn raw_strings_hide_their_content() {
    let src = r##"let s = r#"x.unwrap() "quoted""#;"##;
    assert_eq!(idents(src), ["let", "s"]);
    let lexed = lex(src);
    let strs: Vec<_> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::StrLit)
        .collect();
    assert_eq!(strs.len(), 1);
    assert!(strs[0].text.starts_with("r#\""));
}

#[test]
fn raw_string_hash_fences_must_match() {
    let src = r###"r##"ends at "# no, here"##"###;
    let lexed = lex(src);
    assert_eq!(lexed.tokens.len(), 1);
    assert_eq!(lexed.tokens[0].kind, TokenKind::StrLit);
    assert!(lexed.tokens[0].text.contains("no, here"));
}

#[test]
fn block_comments_nest() {
    let src = "/* a /* b */ c */ fn f() {}";
    assert_eq!(idents(src), ["fn", "f"]);
    let lexed = lex(src);
    assert_eq!(lexed.comments.len(), 1);
    assert!(lexed.comments[0].text.contains("a /* b */ c"));
}

#[test]
fn lifetimes_are_not_char_literals() {
    let lexed = lex("fn f<'a>(x: &'a str) -> char { 'a' }");
    let lifetimes: Vec<_> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Lifetime)
        .collect();
    let chars: Vec<_> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::CharLit)
        .collect();
    assert_eq!(lifetimes.len(), 2);
    assert!(lifetimes.iter().all(|t| t.text == "'a"));
    assert_eq!(chars.len(), 1);
    assert_eq!(chars[0].text, "'a'");
}

#[test]
fn escaped_chars_and_static_lifetime() {
    assert_eq!(kinds(r"'\n'"), [TokenKind::CharLit]);
    assert_eq!(kinds("'static"), [TokenKind::Lifetime]);
    assert_eq!(kinds(r"'\u{1F600}'"), [TokenKind::CharLit]);
}

#[test]
fn ranges_do_not_merge_into_floats() {
    // `v[1..3]` must lex `1` and `3` as integers, not `1.` as a float.
    let lexed = lex("v[1..3]");
    let nums: Vec<_> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::NumLit)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(nums, ["1", "3"]);
}

#[test]
fn byte_and_c_string_prefixes() {
    assert_eq!(kinds(r#"b"bytes""#), [TokenKind::StrLit]);
    assert_eq!(kinds("b'x'"), [TokenKind::CharLit]);
    assert_eq!(kinds(r###"br#"raw bytes"#"###), [TokenKind::StrLit]);
    assert_eq!(kinds(r#"c"cstr""#), [TokenKind::StrLit]);
    // A bare `b` or `r` followed by something else is an identifier.
    assert_eq!(idents("let b = r + 1;"), ["let", "b", "r"]);
}

#[test]
fn comment_side_channel_positions() {
    let src = "let x = 1; // trailing note\n// standalone line\nlet y = 2;";
    let lexed = lex(src);
    assert_eq!(lexed.comments.len(), 2);
    assert!(lexed.comments[0].has_code_before);
    assert_eq!(lexed.comments[0].line, 1);
    assert_eq!(lexed.comments[0].text, "// trailing note");
    assert!(!lexed.comments[1].has_code_before);
    assert_eq!(lexed.comments[1].line, 2);
}

#[test]
fn line_numbers_survive_multiline_constructs() {
    let src = "let a = \"two\nlines\";\nlet b = 1;";
    let lexed = lex(src);
    let b = lexed.tokens.iter().find(|t| t.is("b")).unwrap();
    assert_eq!(b.line, 3);
}

#[test]
fn unterminated_constructs_never_panic() {
    for src in [
        "\"open string",
        "/* open comment",
        "r#\"open raw",
        "'x",
        "b'",
    ] {
        let _ = lex(src);
    }
}

#[test]
fn equality_is_two_single_puncts() {
    // The rules rely on `==` arriving as two adjacent `=` tokens.
    let lexed = lex("a == b != c");
    let puncts: Vec<String> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Punct)
        .map(|t| t.text.clone())
        .collect();
    assert_eq!(puncts, ["=", "=", "!", "="]);
}
