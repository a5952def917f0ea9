//! The append-only write-ahead log.
//!
//! One file per replica (`wal.log` under its data directory) holding a
//! sequence of checksummed records, each one canonically-encoded
//! [`splitbft_types::DurableEvent`] bytes. The format is designed for
//! exactly one failure mode: a crash (or `SIGKILL`) mid-write leaves a
//! *torn tail* — a final record that is truncated or corrupt. Recovery
//! keeps the longest valid prefix and truncates the rest; it never
//! panics on garbage.
//!
//! # Record format
//!
//! ```text
//! offset  size  field     contents
//! 0       1     magic     0xD7 — resync / sanity byte
//! 1       4     length    payload byte count, u32 little-endian
//! 5       4     crc32     IEEE CRC-32 of the payload
//! 9       len   payload   opaque record bytes
//! ```
//!
//! Growth is bounded by the sealed-checkpoint garbage collector in
//! [`crate::durable`]: whenever a checkpoint is sealed, the log is
//! atomically rewritten with only the records still needed beyond it.
//!
//! # Example: record framing and torn-tail recovery
//!
//! [`encode_record`] frames a payload; [`scan`] recovers the longest
//! valid prefix of a raw log image, treating anything after it —
//! including a record cut mid-write — as the torn tail to truncate:
//!
//! ```
//! use splitbft_store::wal::{crc32, encode_record, scan, RECORD_HEADER_LEN, RECORD_MAGIC};
//!
//! let record = encode_record(b"committed slot 7");
//! assert_eq!(record[0], RECORD_MAGIC);
//! assert_eq!(record.len(), RECORD_HEADER_LEN + 16);
//! assert_eq!(
//!     u32::from_le_bytes(record[5..9].try_into().unwrap()),
//!     crc32(b"committed slot 7"),
//! );
//!
//! // Two intact records followed by a crash mid-append…
//! let mut image = encode_record(b"first");
//! image.extend(encode_record(b"second"));
//! image.extend(&encode_record(b"torn")[..7]); // header cut short
//!
//! // …recover exactly the intact prefix; the tail is corruption.
//! let (records, valid_len) = scan(&image);
//! assert_eq!(records, vec![b"first".to_vec(), b"second".to_vec()]);
//! assert_eq!(valid_len, image.len() - 7);
//! ```

use splitbft_types::wire::Encode;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// First byte of every record.
pub const RECORD_MAGIC: u8 = 0xD7;

/// Fixed bytes before each record's payload: magic (1) + length (4) +
/// crc32 (4).
pub const RECORD_HEADER_LEN: usize = 9;

/// Upper bound on a single record's payload. Recovery treats a larger
/// declared length as corruption (it would exceed anything the codec
/// can legally produce, see `MAX_FRAME_LEN`) rather than allocating it.
pub const MAX_RECORD_LEN: u32 = 32 * 1024 * 1024;

/// The reflected IEEE CRC-32 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables: `CRC32_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight input bytes fold into the running
/// value with eight independent loads instead of 64 dependent shifts.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 (the polynomial used by zlib/PNG/Ethernet), eight bytes
/// per step: the log carries every committed batch, a couple of KiB per
/// request under a key-value workload.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = !0;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Frames one record in `record` (cleared first): the header, then
/// whatever `payload` appends, then the header's length and checksum
/// filled in over what it wrote.
fn frame_record(record: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    record.clear();
    record.push(RECORD_MAGIC);
    record.extend_from_slice(&[0; RECORD_HEADER_LEN - 1]);
    payload(record);
    let (header, body) = record.split_at_mut(RECORD_HEADER_LEN);
    assert!(body.len() <= MAX_RECORD_LEN as usize, "WAL record too large");
    header[1..5].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[5..9].copy_from_slice(&crc32(body).to_le_bytes());
}

/// Frames one payload as a WAL record.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    frame_record(&mut out, |out| out.extend_from_slice(payload));
    out
}

/// Scans a raw WAL image and returns `(records, valid_len)`: the
/// payloads of every valid record in order, and the byte length of the
/// valid prefix. Anything after `valid_len` — a torn final record, a
/// flipped bit, appended garbage — is corruption to be truncated away.
/// Never panics on hostile input.
pub fn scan(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= RECORD_HEADER_LEN {
        let header = &bytes[pos..pos + RECORD_HEADER_LEN];
        if header[0] != RECORD_MAGIC {
            break;
        }
        let len = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD_LEN as usize || bytes.len() - pos - RECORD_HEADER_LEN < len {
            break; // corrupt length or torn tail
        }
        let expected_crc = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes"));
        let payload = &bytes[pos + RECORD_HEADER_LEN..pos + RECORD_HEADER_LEN + len];
        if crc32(payload) != expected_crc {
            break; // bit rot or torn overwrite
        }
        records.push(payload.to_vec());
        pos += RECORD_HEADER_LEN + len;
    }
    (records, pos)
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    len: u64,
    /// The record being framed, reused from one append to the next.
    record: Vec<u8>,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, recovering its
    /// contents: the longest valid record prefix is returned and any
    /// torn tail is truncated off the file before new appends.
    pub fn open(path: &Path) -> io::Result<(Wal, Vec<Vec<u8>>)> {
        let mut file = OpenOptions::new().read(true).write(true).create(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_len) = scan(&bytes);
        if (valid_len as u64) < bytes.len() as u64 {
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_len as u64))?;
        Ok((Wal { file, path: path.to_path_buf(), len: valid_len as u64, record: Vec::new() }, records))
    }

    /// Appends one record. Not durable until [`Wal::sync`] returns.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        self.append_framed(|record| record.extend_from_slice(payload))
    }

    /// Appends one record holding `value`'s canonical encoding, written
    /// straight into the record being framed.
    pub fn append_value<T: Encode + ?Sized>(&mut self, value: &T) -> io::Result<()> {
        self.append_framed(|record| value.encode_to(record))
    }

    fn append_framed(&mut self, payload: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        frame_record(&mut self.record, payload);
        self.file.write_all(&self.record)?;
        self.len += self.record.len() as u64;
        Ok(())
    }

    /// Forces appended records to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Current log size in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Atomically replaces the log's contents with `records` — the
    /// garbage-collection primitive. A new file is written and synced
    /// next to the old one, then renamed over it, so a crash during GC
    /// leaves either the old or the new log, never a mix.
    pub fn rewrite<'a>(&mut self, records: impl Iterator<Item = &'a [u8]>) -> io::Result<()> {
        let tmp = self.path.with_extension("log.tmp");
        let mut out = File::create(&tmp)?;
        let mut len = 0u64;
        for payload in records {
            frame_record(&mut self.record, |record| record.extend_from_slice(payload));
            out.write_all(&self.record)?;
            len += self.record.len() as u64;
        }
        out.sync_data()?;
        std::fs::rename(&tmp, &self.path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.len = len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "splitbft-wal-{}-{}",
            name,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    /// The definition: one bit at a time.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &byte in bytes {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_by_eight_agrees_with_the_bitwise_definition() {
        // Every length to 64 (all remainders, both sides of a word), then
        // seeded random lengths to 4 KiB over seeded random bytes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let lengths: Vec<usize> =
            (0..=64).chain((0..200).map(|_| (next() % 4097) as usize)).collect();
        for len in lengths {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "length {len}");
        }
    }

    #[test]
    fn a_value_appended_in_place_is_the_record_of_its_encoding() {
        let path = tmp("in-place");
        let event = splitbft_types::DurableEvent::StableCheckpoint {
            seq: splitbft_types::SeqNum(128),
        };
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append_value(&event).unwrap();
        wal.append_value(&event).unwrap();
        wal.sync().unwrap();
        let record = encode_record(&splitbft_types::wire::encode(&event));
        assert_eq!(std::fs::read(&path).unwrap(), [record.clone(), record].concat());
    }

    #[test]
    fn append_reopen_roundtrip() {
        let path = tmp("roundtrip");
        {
            let (mut wal, records) = Wal::open(&path).unwrap();
            assert!(records.is_empty());
            wal.append(b"one").unwrap();
            wal.append(b"two").unwrap();
            wal.append(&[0u8; 1000]).unwrap();
            wal.sync().unwrap();
        }
        let (wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![b"one".to_vec(), b"two".to_vec(), vec![0u8; 1000]]);
        assert_eq!(wal.len(), std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn torn_tail_is_truncated_on_recovery() {
        let path = tmp("torn");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(b"intact").unwrap();
            wal.sync().unwrap();
        }
        // Simulate a crash mid-append: half a record at the tail.
        let half = &encode_record(b"torn record")[..7];
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(half);
        std::fs::write(&path, &bytes).unwrap();

        let (wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![b"intact".to_vec()]);
        // The torn tail is gone from the file, and appends continue.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), wal.len());
        drop(wal);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(b"after").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![b"intact".to_vec(), b"after".to_vec()]);
    }

    #[test]
    fn bit_flip_truncates_from_the_flip() {
        let path = tmp("flip");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
            wal.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let second_payload_at = bytes.len() - 3;
        bytes[second_payload_at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![b"first".to_vec()]);
    }

    #[test]
    fn rewrite_replaces_contents_atomically() {
        let path = tmp("rewrite");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for i in 0..100u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        wal.sync().unwrap();
        let big = wal.len();

        let keep: Vec<Vec<u8>> = (90..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        wal.rewrite(keep.iter().map(Vec::as_slice)).unwrap();
        assert!(wal.len() < big);

        // Appends after a rewrite land after the kept records.
        wal.append(b"new").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 11);
        assert_eq!(records[0], 90u32.to_le_bytes().to_vec());
        assert_eq!(records[10], b"new".to_vec());
    }

    #[test]
    fn scan_survives_garbage() {
        // Pure garbage, hostile lengths, empty input: no panic, no
        // records.
        assert_eq!(scan(&[]).0.len(), 0);
        assert_eq!(scan(&[0xFF; 64]).0.len(), 0);
        let mut bomb = vec![RECORD_MAGIC];
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        bomb.extend_from_slice(&[0u8; 4]);
        let (records, valid) = scan(&bomb);
        assert!(records.is_empty());
        assert_eq!(valid, 0);
    }
}
