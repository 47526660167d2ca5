//! Fuzz seeds: how a `--seed` argument becomes a base seed, and how the
//! base seed and an iteration index become the seed of one generated app.
//! The `dfdbg-fuzz` driver and the E10 experiment both derive seeds here,
//! so a divergence either one counts reproduces under the other with the
//! same seed text.

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// A base seed from its text: a number (`42`, `0xbeef`) stands for
/// itself; any other string is FNV-hashed, so `ci` and `soak-2024-01-01`
/// are both seeds.
pub fn parse_seed(text: &str) -> u64 {
    if let Some(hex) = text.strip_prefix("0x") {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    if let Ok(v) = text.parse::<u64>() {
        return v;
    }
    fnv64(text.as_bytes())
}

/// The seed of iteration `iter` of a run with base seed `base`.
pub fn iter_seed(base: u64, iter: u64) -> u64 {
    fnv64(&[base.to_le_bytes(), iter.to_le_bytes()].concat())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_stand_for_themselves_and_text_is_hashed() {
        assert_eq!(parse_seed("42"), 42);
        assert_eq!(parse_seed("0xbeef"), 0xbeef);
        assert_eq!(parse_seed("ci"), fnv64(b"ci"));
        assert_ne!(parse_seed("ci"), parse_seed("soak"));
        assert_ne!(iter_seed(1, 0), iter_seed(1, 1));
    }
}
