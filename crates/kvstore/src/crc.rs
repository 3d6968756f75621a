//! CRC-32 (IEEE 802.3 polynomial), used to detect torn WAL records.

/// The byte-at-a-time lookup table, built at compile time.
const TABLE: [u32; 256] = table();

const fn table() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB88320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[i] = c;
        i += 1;
    }
    t
}

/// Computes the CRC-32 checksum of `data`.
///
/// # Example
///
/// ```
/// assert_eq!(deltacfs_kvstore::crc32(b"123456789"), 0xCBF43926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLE;
    let mut c: u32 = 0xFFFFFFFF;
    for &b in data {
        c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFFFFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414FA339
        );
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"hello world".to_vec();
        let original = crc32(&data);
        data[3] ^= 0x10;
        assert_ne!(crc32(&data), original);
    }
}
