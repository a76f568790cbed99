//! The text a `rat serve` miss reads and writes, fuzzed against the code it
//! replaced, and the allocations it makes, pinned.
//!
//! Each surface runs [`CASES`] seeded cases: the TOML reader on mutated
//! worksheets, the JSON reader on mutated request bodies (and the TOML
//! reader again on every `worksheet_toml` those still carry), the table
//! renderers on generated ragged tables, and the JSON escaper on mutated
//! bodies and character soup. The oracle is the reference in `reference/`:
//! the same tree, text or error message. A SplitMix64 stream drives a
//! mutator that knows the grammars' delimiters: it inserts, deletes and
//! replaces characters and tokens, duplicates and swaps lines (duplicate
//! keys and headers), adds Unicode whitespace and `\u` escapes, truncates,
//! and nests arrays and tables around the depth caps.
//!
//! A counting global allocator pins what a miss allocates, per thread, with
//! the telemetry collector off.

mod reference;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rat_core::engine::Engine;
use rat_core::sweep::SweepParam;
use rat_core::table::TextTable;
use rat_core::telemetry::json;
use rat_serve::api::{self, escape_json, ApiOk};

/// Cases per surface.
const CASES: u64 = 20_000;

// ---- counting allocator ----------------------------------------------------

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation and reallocation the
/// calling thread makes.
struct Counting;

fn count() {
    // A const-initialized `Cell` has no destructor, so the slot is never
    // torn down; `try_with` only guards the case anyway.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; counting
// touches only a thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and count the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

// ---- seeded mutator -----------------------------------------------------------

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// What the grammars give meaning to, and what the readers special-case.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "\"", "'", "\\", "\n", "\r\n", "\t", " ", "=", ":", ",", ".", "#", "[", "]", "[[", "]]",
    "{", "}", "_", "-", "+", "e", "E", "0", "7", "1.5", "1e400", "-inf", "+nan", "nan", "inf",
    "true", "false", "null", "tru", "a", "key", "\"k\"", "'lit'", "é", "😀", "中", "\u{7f}",
    "\u{0}", "\u{1b}", "[dataset]", "[[runs]]", "x = 1\n", "\"x\": 1, ",
];

/// Characters `char::is_whitespace` accepts beyond space, tab and newline,
/// and some it does not.
#[rustfmt::skip]
const WHITESPACE: &[&str] = &[
    "\u{b}", "\u{c}", "\u{85}", "\u{a0}", "\u{1680}", "\u{2000}", "\u{200a}", "\u{2028}",
    "\u{2029}", "\u{202f}", "\u{205f}", "\u{3000}", "\u{1c}", "\u{200b}", "\u{feff}",
];

/// Escapes, well-formed or not, as both readers see them in a string.
#[rustfmt::skip]
const ESCAPES: &[&str] = &[
    "\\u0041", "\\u00e9", "\\u00E9", "\\ud83d\\ude00", "\\uD83D\\uDE00", "\\ud83d", "\\ude00",
    "\\ud83d\\u0041", "\\ud83d\\ud83d\\ude00", "\\ude00\\ud83d", "\\ud83d\\n", "\\u12", "\\u",
    "\\u+041", "\\u-041", "\\uzzzz", "\\u00é", "\\u0000", "\\/", "\\b", "\\f", "\\x", "\\n",
    "\\\"", "\\\\", "\\t", "\\r", "\\ud800\\udc00", "\\udbff\\udfff", "\\udbff\\ue000",
    "\\ud7ff\\udc00", "\\udc00\\udfff",
];

/// Nestings around the depth caps: (open, innermost value, close).
const NESTS: &[(&str, &str, &str)] =
    &[("[", "1", "]"), ("{a = ", "1", "}"), ("{\"a\": ", "1", "}")];

/// A character boundary of `s`, uniformly among them.
fn boundary(rng: &mut Rng, s: &str) -> usize {
    let k = rng.below(s.chars().count() + 1);
    s.char_indices().nth(k).map_or(s.len(), |(i, _)| i)
}

/// The byte length of the `n` characters from `at` (fewer at the end).
fn chars_len(s: &str, at: usize, n: usize) -> usize {
    s[at..]
        .char_indices()
        .nth(n)
        .map_or(s.len() - at, |(i, _)| i)
}

/// One to four structure-aware mutations of `seed`.
fn mutate(rng: &mut Rng, seed: &str) -> String {
    let mut s = seed.to_string();
    for _ in 0..1 + rng.below(4) {
        let at = boundary(rng, &s);
        match rng.below(10) {
            0 => s.insert_str(at, rng.pick(TOKENS)),
            1 => {
                let n = 1 + rng.below(8);
                s.replace_range(at..at + chars_len(&s, at, n), "");
            }
            2 => {
                let n = 1 + rng.below(4);
                let token = rng.pick(TOKENS);
                s.replace_range(at..at + chars_len(&s, at, n), token);
            }
            3 | 4 => {
                // Duplicate or swap whole lines: repeated keys and headers.
                let mut lines: Vec<&str> = s.split('\n').collect();
                let i = rng.below(lines.len());
                let j = rng.below(lines.len());
                if rng.below(2) == 0 {
                    lines.insert(j, lines[i]);
                } else {
                    lines.swap(i, j);
                }
                s = lines.join("\n");
            }
            5 => s.insert_str(at, rng.pick(WHITESPACE)),
            6 => {
                // Escapes land in a string more often right after a quote.
                let at = match s.match_indices('"').nth(rng.below(8)) {
                    Some((q, _)) if rng.below(2) == 0 => q + 1,
                    _ => at,
                };
                s.insert_str(at, rng.pick(ESCAPES));
            }
            7 => s.truncate(at),
            8 => {
                let (open, inner, close) = rng.pick(NESTS);
                let depth = rng.pick(&[1, 2, 127, 128, 129, 200]);
                let nest = format!("{}{inner}{}", open.repeat(depth), close.repeat(depth));
                s.insert_str(at, &nest);
            }
            _ => s.insert_str(at, &rng.pick(TOKENS).repeat(1 + rng.below(3))),
        }
    }
    s
}

// ---- corpora --------------------------------------------------------------------

const SHIPPED: [&str; 3] = [
    include_str!("../../../worksheets/pdf1d.toml"),
    include_str!("../../../worksheets/pdf2d.toml"),
    include_str!("../../../worksheets/md.toml"),
];

/// Every TOML form the reader must handle, beyond what a worksheet uses.
const GRAMMAR: &str = r#"# a comment
name = "n\u00e9 \"quoted\"\ttab" # trailing
'literal key' = 'C:\path'
"quoted key" = -inf
ints = [1_000, -2, +3]
floats = [1.5e3, -0.25, 6E-1, nan, +inf]
nested = [[1, 0.9], [1024, 0.37], []]
inline = { x = 1, y = "two", z = { w = true } }
multi = [
    1,  # one
    2,
]

[a.b]
c = false

[[runs]]
id = 1

[[runs]]
id = 2
"#;

/// The worksheets a serve body carries: the shipped files and the
/// writer's form of each case study, as perfbench sends them.
fn worksheets() -> Vec<String> {
    let written = [
        rat_apps::pdf::pdf1d::rat_input(150.0e6),
        rat_apps::pdf::pdf2d::rat_input(150.0e6),
        rat_apps::md::rat::rat_input(100.0e6),
        rat_apps::sort::rat::rat_input(150.0e6),
    ];
    let mut out: Vec<String> = SHIPPED.iter().map(|s| s.to_string()).collect();
    out.extend(
        written
            .iter()
            .map(|w| toml::to_string(w).expect("worksheet serializes")),
    );
    out
}

/// `s` as Python's `json.dumps` writes it: every non-ASCII character as a
/// `\u` escape, those past the BMP as a surrogate pair.
fn ascii_json(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c.is_ascii() && c >= ' ' => out.push(c),
            c => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
        }
    }
    out
}

/// Request bodies for every mode around each worksheet, one of them with
/// a non-ASCII name sent in ASCII-only escapes.
fn serve_bodies() -> Vec<String> {
    let mut sheets: Vec<String> = worksheets().iter().map(|w| escape_json(w)).collect();
    let named = toml::to_string(&{
        let mut w = rat_apps::pdf::pdf1d::rat_input(150.0e6);
        w.name = "pdf 😀 é".into();
        w
    })
    .expect("worksheet serializes");
    sheets.push(ascii_json(&named));
    let mut out = vec!["{\"app\": \"pdf1d\", \"mhz\": 150.0}".to_string()];
    for ws in &sheets {
        for fields in [
            ", \"target\": 8.0",
            ", \"target\": 4.0, \"strict\": true",
            ", \"param\": \"fclock\", \"values\": [75e6, 100e6, 1.25e8, 150e6]",
            ", \"ranges\": [{\"param\": \"alpha-read\", \"lo\": 0.1, \"hi\": 0.2}], \"samples\": 64",
            ", \"min_speedup\": 5.0, \"fclocks\": [100e6, 150e6], \"bufferings\": [\"single\"]",
            ", \"seed\": 7, \"generations\": 4, \"population\": null",
            "",
        ] {
            out.push(format!("{{\"worksheet_toml\": \"{ws}\"{fields}}}"));
        }
    }
    out
}

// ---- differentials ---------------------------------------------------------------

/// A decoded tree, as the debug text of the `toml::Value` the reader built.
struct Tree(String);

impl TryFrom<&toml::Value<'_>> for Tree {
    type Error = toml::Error;
    fn try_from(value: &toml::Value<'_>) -> Result<Self, toml::Error> {
        Ok(Tree(format!("{value:?}")))
    }
}

/// The TOML reader against the character reader: the same tree or the
/// same error text.
fn check_toml(text: &str) {
    let new = toml::from_str::<Tree>(text)
        .map(|t| t.0)
        .map_err(|e| e.to_string());
    let old = reference::toml::parse_document(text)
        .map(|v| format!("{v:?}"))
        .map_err(|e| e.to_string());
    assert_eq!(new, old, "TOML input {text:?}");
}

#[test]
fn toml_reader_matches_the_char_reader() {
    let mut seeds = worksheets();
    seeds.push(GRAMMAR.to_string());
    for seed in &seeds {
        check_toml(seed);
    }
    let mut rng = Rng(0x70_4d_4c);
    for _ in 0..CASES {
        let seed = &seeds[rng.below(seeds.len())];
        check_toml(&mutate(&mut rng, seed));
    }
}

#[test]
fn json_reader_matches_the_owned_reader() {
    let seeds = serve_bodies();
    let mut rng = Rng(0x4a_53_4f_4e);
    let mut worksheets_checked = 0;
    for case in 0..CASES + seeds.len() as u64 {
        let text = match seeds.get(case as usize) {
            Some(seed) => seed.clone(),
            None => {
                let seed = &seeds[rng.below(seeds.len())];
                mutate(&mut rng, seed)
            }
        };
        let new = json::parse(&text);
        let old = reference::json::parse(&text);
        assert_eq!(
            format!("{new:?}"),
            format!("{old:?}"),
            "JSON input {text:?}"
        );
        if let Ok(doc) = new {
            if let Some(ws) = doc.get("worksheet_toml").and_then(json::Json::as_str) {
                check_toml(ws);
                worksheets_checked += 1;
            }
            assert_eq!(
                format!("{:?}", doc.clone().into_owned()),
                format!("{doc:?}")
            );
        }
    }
    assert!(worksheets_checked > CASES / 4, "{worksheets_checked}");
}

#[test]
fn surrogate_pairs_in_a_worksheet_name_decode_to_its_text() {
    let mut named = rat_apps::pdf::pdf1d::rat_input(150.0e6);
    named.name = "pdf 😀".into();
    let ws = toml::to_string(&named).expect("worksheet serializes");
    let body = format!(
        "{{\"worksheet_toml\": \"{}\", \"target\": 8.0}}",
        ascii_json(&ws)
    );
    assert!(body.is_ascii() && body.contains("\\ud83d\\ude00"), "{body}");
    match api::parse_mode_request("solve", &body).expect("parses") {
        api::ApiRequest::Solve { input, .. } => assert_eq!(input, named),
        other => panic!("{other:?}"),
    }
}

/// Cell texts that stress width and trimming: multi-byte characters, pipes,
/// trailing spaces and Unicode whitespace, section-like prefixes.
#[rustfmt::skip]
const CELLS: &[&str] = &[
    "", "x", "speedup", "1.23", "5.56e-6", "-- ", "-- Dataset --", "--x", "é", "naïve", "😀",
    "中文字", "a|b", "|", "trail ", "  lead", "tab\t", "\u{3000}", "x\u{3000}", "\u{a0}",
    "nbsp\u{a0}", "   ",
];

fn cell(rng: &mut Rng) -> String {
    (0..1 + rng.below(3)).map(|_| rng.pick(CELLS)).collect()
}

#[test]
fn table_renders_match_the_string_per_cell_renders() {
    let mut rng = Rng(0x7a_b1_e5);
    for case in 0..CASES {
        let title = (rng.below(3) > 0).then(|| cell(&mut rng));
        let header: Vec<String> = (0..rng.below(5)).map(|_| cell(&mut rng)).collect();
        let mut table = TextTable::new();
        if let Some(t) = &title {
            table = table.title(t.as_str());
        }
        let mut table = table.header(&header);
        let mut rows = Vec::new();
        for _ in 0..rng.below(8) {
            if rng.below(6) == 0 {
                let label = cell(&mut rng);
                table.section(&label);
                rows.push(vec![format!("-- {label} --")]);
            } else {
                let row: Vec<String> = (0..rng.below(6)).map(|_| cell(&mut rng)).collect();
                table.row(&row);
                rows.push(row);
            }
        }
        let old = reference::table::Table {
            title,
            header,
            rows,
        };
        // The render sizes its output before the first line: two
        // allocations (the widths and the text), never a third to grow.
        let (text, n) = allocations(|| table.render());
        assert_eq!(text, old.render(), "case {case}");
        assert_eq!(n, if text.is_empty() { 0 } else { 2 }, "case {case}");
        assert_eq!(
            table.render_markdown(),
            old.render_markdown(),
            "case {case}"
        );
    }
}

/// Characters the escaper must treat each its own way.
#[rustfmt::skip]
const SOUP: &[char] = &[
    '"', '\\', '\n', '\r', '\t', '\0', '\u{1}', '\u{8}', '\u{b}', '\u{c}', '\u{1b}', '\u{1f}',
    ' ', 'a', 'Z', '~', '\u{7f}', 'é', '\u{85}', '\u{2028}', '😀', '中',
];

#[test]
fn json_escape_matches_the_char_escaper() {
    let bodies = serve_bodies();
    let mut rng = Rng(0xe5_ca_9e);
    for case in 0..CASES {
        let text: String = if case % 2 == 0 {
            let seed = &bodies[rng.below(bodies.len())];
            let mutated = mutate(&mut rng, seed);
            // A body holds escapes, not what they stand for: half the time,
            // escape the worksheet it decodes to instead.
            let decoded = json::parse(&mutated).ok().and_then(|doc| {
                let ws = doc.get("worksheet_toml").and_then(json::Json::as_str);
                ws.map(str::to_string)
            });
            match decoded {
                Some(ws) if rng.below(2) == 0 => ws,
                _ => mutated,
            }
        } else {
            (0..rng.below(40)).map(|_| rng.pick(SOUP)).collect()
        };
        let escaped = escape_json(&text);
        assert_eq!(escaped, reference::escape_json(&text), "input {text:?}");
        assert_eq!(escaped.capacity(), escaped.len(), "input {text:?}");
        let ok = ApiOk {
            mode: "sweep",
            report: text,
        };
        let body = ok.to_json();
        let want = [
            "{\"mode\": \"sweep\", \"report\": \"",
            &reference::escape_json(&ok.report),
            "\"}",
        ]
        .concat();
        assert_eq!(body, want);
        assert_eq!(body.capacity(), body.len());
    }
}

// ---- allocation pins --------------------------------------------------------------

#[test]
fn a_worksheet_parses_in_at_most_12_allocations() {
    assert!(!rat_core::telemetry::enabled(), "the collector is off");
    let text = SHIPPED[1];
    api::parse_worksheet(text).expect("pdf2d parses");
    let (input, n) = allocations(|| api::parse_worksheet(text));
    assert_eq!(input.expect("pdf2d parses").name, "2-D PDF");
    assert!(n <= 12, "parse_worksheet(pdf2d.toml) made {n} allocations");
}

#[test]
fn a_four_value_sweep_computes_and_renders_in_at_most_30_allocations() {
    assert!(!rat_core::telemetry::enabled(), "the collector is off");
    let engine = Engine::sequential();
    let input = rat_apps::pdf::pdf1d::rat_input(150.0e6);
    let values = [75.0e6, 100.0e6, 125.0e6, 150.0e6];
    let sweep = || {
        rat_core::sweep::sweep_with(&engine, &input, SweepParam::Fclock, &values)
            .expect("sweep runs")
            .render()
    };
    let first = sweep();
    let (report, n) = allocations(sweep);
    assert_eq!(report, first);
    assert!(n <= 30, "a 4-value sweep made {n} allocations");
}

#[test]
fn a_success_envelope_is_one_allocation() {
    let ok = ApiOk {
        mode: "sweep",
        report: "Sweep of f_clock\n\"quoted\"\tand é\n".repeat(40),
    };
    let (body, n) = allocations(|| ok.to_json());
    assert_eq!(n, 1);
    assert_eq!(body.capacity(), body.len());
}
