//! A small LZ77 codec for the text a finished job keeps.
//!
//! A finished job's NDJSON stream repeats itself line after line — the
//! same keys, the same event shapes, the same names — and its result
//! document repeats its field names, so one greedy LZ77 pass packs them
//! several times over. The packed form is a sequence of tokens:
//!
//! * a control byte `n` below 128 is followed by `n + 1` literal bytes;
//! * a control byte `128 + n` is a match of `MIN_MATCH + n` bytes (when
//!   `n` is 127, a varint follows with the length beyond that), followed
//!   by the match's distance back into the output as a varint.
//!
//! Varints are LEB128: seven bits per byte, low bits first, the high bit
//! set on every byte but the last. A match may overlap the bytes it
//! produces (a distance shorter than its length repeats a run).

/// The shortest match worth a token: a control byte and a distance.
const MIN_MATCH: usize = 4;

/// Bits of the match finder's hash of the next `MIN_MATCH` bytes.
const HASH_BITS: u32 = 14;

/// Packs `input`; [`unpack`] gives it back byte for byte.
pub(crate) fn pack(input: &[u8]) -> Box<[u8]> {
    let mut out = Vec::with_capacity(input.len() / 4 + 8);
    // The last position each hash of `MIN_MATCH` bytes was seen at.
    let mut seen = vec![usize::MAX; 1 << HASH_BITS];
    let mut literal_start = 0;
    let mut at = 0;
    while at + MIN_MATCH <= input.len() {
        let slot = hash(&input[at..at + MIN_MATCH]);
        let candidate = std::mem::replace(&mut seen[slot], at);
        let len = if candidate == usize::MAX {
            0
        } else {
            common_prefix(&input[candidate..], &input[at..])
        };
        if len < MIN_MATCH {
            at += 1;
            continue;
        }
        push_literals(&mut out, &input[literal_start..at]);
        push_match(&mut out, len, at - candidate);
        for inside in at + 1..(at + len).min(input.len() + 1 - MIN_MATCH) {
            seen[hash(&input[inside..inside + MIN_MATCH])] = inside;
        }
        at += len;
        literal_start = at;
    }
    push_literals(&mut out, &input[literal_start..]);
    out.into_boxed_slice()
}

/// Unpacks what [`pack`] produced.
///
/// # Panics
///
/// Panics on bytes [`pack`] did not produce.
pub(crate) fn unpack(packed: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(packed.len() * 4);
    let mut at = 0;
    while at < packed.len() {
        let control = packed[at];
        at += 1;
        if control < 0x80 {
            let end = at + usize::from(control) + 1;
            out.extend_from_slice(&packed[at..end]);
            at = end;
            continue;
        }
        let mut len = MIN_MATCH + usize::from(control & 0x7f);
        if control == 0xff {
            len += read_varint(packed, &mut at);
        }
        let distance = read_varint(packed, &mut at);
        let start = out
            .len()
            .checked_sub(distance)
            .expect("a match reaches back into the output");
        if distance >= len {
            out.extend_from_within(start..start + len);
        } else {
            for index in start..start + len {
                out.push(out[index]);
            }
        }
    }
    out
}

/// The slot of `bytes` (`MIN_MATCH` of them) in the match finder's table.
fn hash(bytes: &[u8]) -> usize {
    let word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (word.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// How many leading bytes `earlier` and `later` share. `earlier` starts
/// before `later` in the same input, so it may run into it.
fn common_prefix(earlier: &[u8], later: &[u8]) -> usize {
    earlier
        .iter()
        .zip(later)
        .take_while(|(a, b)| a == b)
        .count()
}

fn push_literals(out: &mut Vec<u8>, literals: &[u8]) {
    for chunk in literals.chunks(128) {
        out.push((chunk.len() - 1) as u8);
        out.extend_from_slice(chunk);
    }
}

fn push_match(out: &mut Vec<u8>, len: usize, distance: usize) {
    let extra = len - MIN_MATCH;
    if extra < 0x7f {
        out.push(0x80 | extra as u8);
    } else {
        out.push(0xff);
        push_varint(out, extra - 0x7f);
    }
    push_varint(out, distance);
}

fn push_varint(out: &mut Vec<u8>, mut value: usize) {
    while value >= 0x80 {
        out.push((value & 0x7f) as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn read_varint(packed: &[u8], at: &mut usize) -> usize {
    let mut value = 0;
    let mut shift = 0;
    loop {
        let byte = packed[*at];
        *at += 1;
        value |= usize::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return value;
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(input: &[u8]) -> usize {
        let packed = pack(input);
        assert_eq!(unpack(&packed), input, "{} bytes", input.len());
        packed.len()
    }

    #[test]
    fn short_inputs_round_trip() {
        for input in [&b""[..], b"a", b"ab", b"abc", b"abcd", b"aaaa", b"aaaaa"] {
            round_trip(input);
        }
        assert_eq!(pack(b"").len(), 0);
    }

    /// A run packs into one long match that overlaps what it produces, its
    /// length past the control byte's range in a varint; so does a repeated
    /// phrase shorter than its repeat.
    #[test]
    fn runs_and_overlapping_matches_round_trip() {
        let run = vec![b'x'; 100_000];
        assert!(round_trip(&run) < 16);
        let phrase = b"abc".repeat(10_000);
        assert!(round_trip(&phrase) < 16);
        for len in [129, 130, 131, 132, 133, 250, 300] {
            round_trip(&vec![b'y'; len]);
        }
        let mut mixed = b"{\"seq\":1}".repeat(50);
        mixed.extend(vec![0u8; 1000]);
        mixed.extend(b"tail");
        round_trip(&mixed);
    }

    /// Bytes with no repeats come back whole, a little larger than they
    /// went in.
    #[test]
    fn random_bytes_round_trip() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let random: Vec<u8> = (0..50_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect();
        let packed = round_trip(&random);
        assert!(packed <= random.len() + random.len() / 128 + 1);
    }
}
