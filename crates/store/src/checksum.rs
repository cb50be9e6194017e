//! Page checksums: a hand-rolled CRC32 (IEEE 802.3 polynomial) and the
//! frame seal/verify helpers built on it.
//!
//! Every physical frame written by the buffer pool carries an 8-byte
//! trailer after its [`PAGE_SIZE`](crate::PAGE_SIZE) payload: a CRC32 of
//! the payload followed by a seal magic. The pool seals frames on every
//! physical write and verifies them on every physical read, so torn
//! writes and bit rot surface as [`StoreError::Corrupt`](crate::StoreError)
//! instead of silently feeding garbage to the index codecs.
//!
//! The CRC is table-driven and implemented here (no external crate: the
//! workspace must build with an offline registry). The reflected IEEE
//! polynomial is the same one used by zip/png/ethernet, with the standard
//! check value `crc32(b"123456789") == 0xCBF4_3926`. It folds eight bytes
//! per step through eight tables (slicing-by-8), about four times the
//! speed of the byte-at-a-time loop over a page, with the same values: a
//! page is checksummed on every physical read and write.

use crate::{FRAME_SIZE, PAGE_SIZE};

/// Lookup tables for the reflected IEEE polynomial `0xEDB88320`:
/// `t[0][b]` folds byte `b` into a zero state, and `t[j][b]` folds `b`
/// followed by `j` zero bytes.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut j = 1;
        while j < 8 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            j += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Initial state for incremental CRC computation.
pub const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Folds `bytes` into an in-progress CRC state (start from [`CRC_INIT`]).
pub fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        state = t[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Finalizes an incremental CRC state into the checksum value.
pub fn crc32_finish(state: u32) -> u32 {
    state ^ 0xFFFF_FFFF
}

/// CRC32 (IEEE) of `bytes` in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC_INIT, bytes))
}

/// Magic marking a frame trailer as written by this layer.
///
/// Shares the trailer with the CRC so a frame whose tail was never
/// persisted (torn write over a fresh page) is distinguishable from a
/// frame with a damaged payload.
pub const SEAL_MAGIC: u32 = 0x5EA1_EDA5;

/// Writes the CRC + magic trailer over `frame[PAGE_SIZE..]`.
///
/// # Panics
///
/// Panics if `frame` is not exactly [`FRAME_SIZE`] bytes.
pub fn seal_frame(frame: &mut [u8]) {
    assert_eq!(frame.len(), FRAME_SIZE, "seal_frame needs a full frame");
    let crc = crc32(&frame[..PAGE_SIZE]);
    frame[PAGE_SIZE..PAGE_SIZE + 4].copy_from_slice(&crc.to_le_bytes());
    frame[PAGE_SIZE + 4..].copy_from_slice(&SEAL_MAGIC.to_le_bytes());
}

/// Checks a frame read back from a backend.
///
/// Returns `Ok(())` for a correctly sealed frame *or* an entirely zeroed
/// one (a freshly allocated page that was never physically written — both
/// backends allocate zero-filled), and `Err(reason)` otherwise.
///
/// # Panics
///
/// Panics if `frame` is not exactly [`FRAME_SIZE`] bytes.
pub fn verify_frame(frame: &[u8]) -> std::result::Result<(), &'static str> {
    assert_eq!(frame.len(), FRAME_SIZE, "verify_frame needs a full frame");
    let magic = u32::from_le_bytes(frame[PAGE_SIZE + 4..].try_into().unwrap());
    if magic != SEAL_MAGIC {
        if frame.iter().all(|&b| b == 0) {
            return Ok(()); // fresh page, never sealed
        }
        return Err("page trailer missing or torn");
    }
    let stored = u32::from_le_bytes(frame[PAGE_SIZE..PAGE_SIZE + 4].try_into().unwrap());
    if stored != crc32(&frame[..PAGE_SIZE]) {
        return Err("page checksum mismatch");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_value() {
        // The standard CRC-32/ISO-HDLC check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"all nearest neighbor queries";
        let mut state = CRC_INIT;
        for chunk in data.chunks(5) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(crc32_finish(state), crc32(data));
    }

    /// The byte-at-a-time CRC the tables are derived for.
    fn bytewise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state = CRC_TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
        state
    }

    /// Slicing-by-8 equals the bytewise fold for every length up to past
    /// a page, from every start alignment, split at arbitrary points.
    #[test]
    fn slicing_by_8_equals_bytewise() {
        const MAX_LEN: usize = 8200;
        let mut rng = ann_datagen::Rng::new(0xC3C3);
        let data: Vec<u8> = (0..MAX_LEN + 8).map(|_| rng.range(0, 256) as u8).collect();
        // The reference state of `data[start..start + len]`, one per start,
        // extended by one byte per length.
        let mut want = [CRC_INIT; 8];
        for len in 0..=MAX_LEN {
            let start = len % 8;
            let bytes = &data[start..start + len];
            assert_eq!(crc32_update(CRC_INIT, bytes), want[start], "len {len}");
            let split = rng.range(0, len + 1);
            let (a, b) = bytes.split_at(split);
            assert_eq!(
                crc32_update(crc32_update(CRC_INIT, a), b),
                want[start],
                "len {len} split at {split}"
            );
            for (s, w) in want.iter_mut().enumerate() {
                *w = bytewise(*w, &data[s + len..s + len + 1]);
            }
        }
    }

    #[test]
    fn sealed_frame_verifies() {
        let mut frame = vec![0u8; FRAME_SIZE];
        frame[123] = 0xAB;
        seal_frame(&mut frame);
        assert_eq!(verify_frame(&frame), Ok(()));
    }

    #[test]
    fn zero_frame_is_a_valid_fresh_page() {
        let frame = vec![0u8; FRAME_SIZE];
        assert_eq!(verify_frame(&frame), Ok(()));
    }

    #[test]
    fn payload_damage_is_detected() {
        let mut frame = vec![0u8; FRAME_SIZE];
        frame[0] = 1;
        seal_frame(&mut frame);
        frame[4000] ^= 0x10;
        assert!(verify_frame(&frame).is_err());
    }

    #[test]
    fn torn_tail_is_detected() {
        let mut frame = vec![0u8; FRAME_SIZE];
        frame[0] = 1;
        seal_frame(&mut frame);
        // Simulate a torn write over a fresh page: only the first 100
        // bytes of the sealed frame persisted, the rest stayed zero.
        let mut torn = vec![0u8; FRAME_SIZE];
        torn[..100].copy_from_slice(&frame[..100]);
        assert!(verify_frame(&torn).is_err());
    }
}
