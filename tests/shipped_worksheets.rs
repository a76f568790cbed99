//! The shipped TOML worksheets in `worksheets/` must stay parseable and in
//! sync with the case-study constants.

use rat::core::params::RatInput;
use rat::core::worksheet::Worksheet;

fn read(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/worksheets/");
    std::fs::read_to_string(format!("{path}{name}.toml"))
        .unwrap_or_else(|e| panic!("reading {name}.toml: {e}"))
}

fn load(name: &str) -> RatInput {
    let input: RatInput = toml::from_str(&read(name)).expect("valid worksheet TOML");
    input.validate().expect("valid parameters");
    input
}

/// The writer's golden: re-encoding a shipped worksheet reproduces the file
/// byte for byte, minus its two leading comment lines.
#[test]
fn to_string_reproduces_the_shipped_worksheets() {
    for name in ["pdf1d", "pdf2d", "md"] {
        let text = read(name);
        let (_, body) = text
            .split_once('\n')
            .and_then(|(_, rest)| rest.split_once('\n'))
            .expect("two header lines");
        assert_eq!(toml::to_string(&load(name)).unwrap(), body, "{name}");
    }
}

/// A `u64` above `i64::MAX` is written as a decimal string and reads back.
#[test]
fn u64_max_round_trips_as_a_string() {
    let mut input = load("pdf1d");
    input.dataset.elements_in = u64::MAX;
    let text = toml::to_string(&input).unwrap();
    assert!(
        text.contains("elements_in = \"18446744073709551615\"\n"),
        "{text}"
    );
    assert_eq!(toml::from_str::<RatInput>(&text).unwrap(), input);
}

#[test]
fn pdf1d_worksheet_matches_table2() {
    let ws = load("pdf1d");
    assert_eq!(ws, rat::apps::pdf1d::rat_input(150.0e6));
    let r = Worksheet::new(ws).analyze().unwrap();
    assert!((r.speedup - 10.6).abs() < 0.05);
}

#[test]
fn pdf2d_worksheet_matches_table5() {
    let ws = load("pdf2d");
    assert_eq!(ws, rat::apps::pdf2d::rat_input(150.0e6));
}

#[test]
fn md_worksheet_matches_table8() {
    let ws = load("md");
    assert_eq!(ws, rat::apps::md::rat::rat_input(100.0e6));
    let r = Worksheet::new(ws).analyze().unwrap();
    assert!((r.speedup - 10.7).abs() < 0.06);
}
