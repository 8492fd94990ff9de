//! Property tests of the JSON codec: both renderers round-trip through
//! the parser, and the parser never panics on hostile input.

use cheriot_trace::json::Json;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestRng;

/// Characters that stress the escaper: controls, quotes, backslashes and
/// one-, two-, three- and four-byte UTF-8.
const CHARS: &str = "aZ0 \"\\/\n\r\t\u{0}\u{1}\u{1f}\u{7f}éß€\u{2028}\u{fffd}😀\u{10ffff}";

/// Bytes JSON syntax is made of, so that arbitrary strings get past the
/// first byte often enough to reach deep parser states.
const SYNTAX: &[u8] = b"{}[],:\"\\/ \n\t-+.eE0123456789abcdefuntrlsx";

fn string(rng: &mut TestRng) -> String {
    let chars: Vec<char> = CHARS.chars().collect();
    (0..rng.below(8))
        .map(|_| chars[rng.below(chars.len() as u64) as usize])
        .collect()
}

/// Random JSON trees up to `depth` levels of nesting. Integers cover the
/// whole `u64` range and negative `i64`s (the parser reads non-negative
/// literals as `UInt`); floats are any finite `f64`.
struct Tree {
    depth: u32,
}

impl Strategy for Tree {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let kinds = if self.depth == 0 { 6 } else { 8 };
        let child = Tree {
            depth: self.depth.saturating_sub(1),
        };
        match rng.below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64() & 1 == 1),
            2 => Json::UInt(rng.next_u64() >> rng.below(64)),
            3 => Json::Int(-1 - (rng.next_u64() >> (1 + rng.below(63))) as i64),
            4 => {
                let v = f64::from_bits(rng.next_u64());
                Json::Num(if v.is_finite() { v } else { rng.unit_f64() })
            }
            5 => Json::Str(string(rng)),
            6 => Json::Arr((0..rng.below(5)).map(|_| child.generate(rng)).collect()),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (string(rng), child.generate(rng)))
                    .collect(),
            ),
        }
    }
}

proptest! {
    #[test]
    fn both_renderings_parse_back_to_the_same_tree(v in Tree { depth: 4 }) {
        prop_assert_eq!(Json::parse(&v.render()), Ok(v.clone()));
        prop_assert_eq!(Json::parse(&v.render_line()), Ok(v.clone()));
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in vec(prop_oneof![
            any::<u8>(),
            (0..SYNTAX.len()).prop_map(|i| SYNTAX[i]),
        ], 0..96)
    ) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncated_documents_are_errors_not_panics(v in Tree { depth: 3 }) {
        let doc = Json::Arr(vec![v]).render_line();
        for (cut, _) in doc.char_indices() {
            prop_assert!(Json::parse(&doc[..cut]).is_err(), "prefix {:?}", &doc[..cut]);
        }
        prop_assert!(Json::parse(&doc).is_ok());
    }
}
