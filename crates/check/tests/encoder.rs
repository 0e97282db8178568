//! Properties of the canonical writer itself, independent of any snapshot
//! type: what [`Json::to_line`] writes parses back to the same value, and the
//! two sinks agree wherever the byte stream is cut.

use contig_check::json::{self, parse, Enc, Json};
use contig_types::{fnv1a64, splitmix64, Fnv1a64};
use proptest::prelude::*;

/// Strings that exercise every escaping arm next to multi-byte scalars.
const STRINGS: &[&str] = &[
    "",
    "plain",
    "a \"quoted\" \\ back\\slash",
    "line\nfeed\r\ttab",
    "\u{0}\u{1}\u{8}\u{b}\u{c}\u{e}\u{1f} controls",
    "é\n日本\"語\\🦀",
    "\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}",
    "\"",
    "\\",
];

const NUMBERS: &[i128] = &[
    0,
    1,
    -1,
    9,
    10,
    99,
    100,
    u64::MAX as i128,
    u64::MAX as i128 + 1,
    -(u64::MAX as i128),
    i64::MIN as i128,
    i128::MAX,
    i128::MIN,
    i128::MIN + 1,
];

fn pick<T: Copy>(rng: &mut u64, from: &[T]) -> T {
    from[(splitmix64(rng) % from.len() as u64) as usize]
}

/// A random tree over all six variants, at most `depth` containers deep.
fn tree(rng: &mut u64, depth: usize) -> Json {
    let leaf = depth == 0;
    match splitmix64(rng) % if leaf { 4 } else { 6 } {
        0 => Json::Null,
        1 => Json::Bool(splitmix64(rng).is_multiple_of(2)),
        2 if splitmix64(rng).is_multiple_of(2) => Json::Num(pick(rng, NUMBERS)),
        // Any 128-bit pattern, scaled down by a random shift.
        2 => {
            let wide = (i128::from(splitmix64(rng)) << 64) | i128::from(splitmix64(rng));
            Json::Num(wide >> (splitmix64(rng) % 128))
        }
        3 => Json::Str(pick(rng, STRINGS).to_owned()),
        4 => Json::Arr((0..splitmix64(rng) % 5).map(|_| tree(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..splitmix64(rng) % 5)
                .map(|_| (pick(rng, STRINGS).to_owned(), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The writer and the parser are inverses on every tree, duplicate and
    /// empty keys, escapes and 128-bit extremes included.
    #[test]
    fn what_to_line_writes_parses_back(seed in any::<u64>(), depth in 0usize..6) {
        let mut rng = seed;
        let value = tree(&mut rng, depth);
        let line = value.to_line();
        prop_assert_eq!(parse(&line), Ok(value.clone()), "{}", line);
        // Both sinks see the same bytes.
        prop_assert_eq!(json::digest(|e| value.encode(e)), fnv1a64(line.as_bytes()));
    }

    /// Feeding a line to the hash in pieces gives the hash of the line,
    /// wherever it is cut — which is all the hash sink ever does.
    #[test]
    fn the_hash_sink_is_split_point_independent(seed in any::<u64>(), cuts in 0usize..12) {
        let mut rng = seed;
        let line = tree(&mut rng, 5).to_line();
        let mut at: Vec<usize> =
            (0..cuts).map(|_| (splitmix64(&mut rng) % (line.len() as u64 + 1)) as usize).collect();
        at.extend([0, line.len()]);
        at.sort_unstable();
        let mut hash = Fnv1a64::new();
        for pair in at.windows(2) {
            hash.update(&line.as_bytes()[pair[0]..pair[1]]);
        }
        prop_assert_eq!(hash.finish(), fnv1a64(line.as_bytes()));
    }
}

/// Integers are spelled exactly as `core::fmt` spells them: the digest
/// values recorded before the writer stopped using it depend on that.
#[test]
fn numbers_are_spelled_as_display_spells_them() {
    let mut rng = 0x5EED_CAFE;
    let spelled = |n: i128| json::line(|e: &mut Enc<Vec<u8>>| e.num(n));
    for &n in NUMBERS {
        assert_eq!(spelled(n), n.to_string());
    }
    for _ in 0..20_000 {
        let n = splitmix64(&mut rng) >> (splitmix64(&mut rng) % 64);
        assert_eq!(spelled(n.into()), n.to_string());
        assert_eq!(spelled(-i128::from(n)), (-i128::from(n)).to_string());
    }
}
