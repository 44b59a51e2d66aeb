//! The one place that knows how durable bytes are framed, checked,
//! scanned and replaced.
//!
//! Four formats keep the daemon's state on disk: the PDCK checkpoint
//! ([`crate::Engine::checkpoint`]), the PDTJ decision journal
//! ([`crate::trace`]), and, in `paydemand-serve`, the event WAL and the
//! PDLI lineage index. Each owns only its payload layout and shares
//! one of each piece here: the [`fnv1a64`] checksum (and its word-wise
//! [`fnv1a64_words`] for whole-file hashes), the bounds-checked
//! [`Cursor`], the magic+version [`Header`], the [`RecordLog`] of
//! `[tag u8][len u32 LE][payload][fnv1a-64-lo u32 LE]` records (the
//! checksum covers the payload only, not the tag or the length) and
//! [`write_atomic`].

use std::borrow::Borrow;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// The little-endian writers every format encodes with.
pub use bytes::BufMut;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, 64-bit. Record checksums keep its low 32 bits; the PDCK
/// scenario fingerprint is the full hash.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_words(bytes.iter().map(|&b| u64::from(b)))
}

/// FNV-1a's xor-multiply step applied to 64-bit words instead of bytes:
/// one multiply per eight bytes, for hashes over megabytes (the PDCK
/// trailer and workload hash). Bytes travel as little-endian words.
/// The prime is odd, so each step is a bijection of the running hash:
/// changing any one word, hence any one byte, changes the result.
#[must_use]
pub fn fnv1a64_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(FNV_OFFSET, |hash, word| (hash ^ word).wrapping_mul(FNV_PRIME))
}

/// Why a [`Cursor`] read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorError {
    /// The read needed more bytes than remained.
    Truncated {
        /// Bytes the read needed.
        need: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// A flag byte was neither 0 nor 1.
    InvalidFlag(u8),
}

/// A bounds-checked little-endian reader: corrupt input is a
/// [`CursorError`], never a panic.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf }
    }

    /// Bytes not yet read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fails unless at least `n` bytes remain.
    #[inline]
    pub fn need(&self, n: usize) -> Result<(), CursorError> {
        if self.buf.len() < n {
            return Err(CursorError::Truncated { need: n, have: self.buf.len() });
        }
        Ok(())
    }

    /// Reads the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CursorError> {
        self.need(n)?;
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads the next `count` chunks of `N` bytes in one bounds check.
    /// A count read off the input is checked against the bytes that
    /// remain here, before anything is sized from it.
    #[inline]
    pub fn chunks<const N: usize>(&mut self, count: usize) -> Result<&'a [[u8; N]], CursorError> {
        let len = count.saturating_mul(N);
        Ok(self.take(len)?.as_chunks().0)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CursorError> {
        let Some((head, rest)) = self.buf.split_first_chunk::<N>() else {
            return Err(CursorError::Truncated { need: N, have: self.buf.len() });
        };
        self.buf = rest;
        Ok(*head)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CursorError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CursorError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CursorError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CursorError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads a 0/1 flag byte.
    #[inline]
    pub fn flag(&mut self) -> Result<bool, CursorError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CursorError::InvalidFlag(other)),
        }
    }
}

/// A format's opening bytes: a 4-byte magic, then a version byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// The format's magic.
    pub magic: [u8; 4],
    /// The version this build reads and writes.
    pub version: u8,
}

const HEADER_LEN: usize = 5;

/// Why [`Header::check`] refused a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// Too short to hold the header.
    Truncated(CursorError),
    /// Another format's magic.
    Magic,
    /// This format at a version this build does not read.
    Version(u8),
}

impl Header {
    /// The header as written to disk.
    #[must_use]
    pub fn bytes(&self) -> [u8; HEADER_LEN] {
        let [a, b, c, d] = self.magic;
        [a, b, c, d, self.version]
    }

    /// Reads the magic and version from `cursor`.
    pub fn check(&self, cursor: &mut Cursor<'_>) -> Result<(), HeaderError> {
        if cursor.take(self.magic.len()).map_err(HeaderError::Truncated)? != self.magic {
            return Err(HeaderError::Magic);
        }
        match cursor.u8().map_err(HeaderError::Truncated)? {
            v if v == self.version => Ok(()),
            v => Err(HeaderError::Version(v)),
        }
    }
}

/// The payload layout of one [`RecordLog`] format.
pub trait Record: Sized {
    /// The file header, for formats that have one.
    const HEADER: Option<Header>;
    /// Largest payload a well-formed record carries; a larger length
    /// field is torn-tail garbage, and is never allocated for.
    const MAX_PAYLOAD: u32;
    /// Typical framed size of one record, for sizing a batch buffer.
    const SIZE_HINT: usize;

    /// Appends this record's payload to `out` and returns its tag.
    fn encode(&self, out: &mut Vec<u8>) -> u8;

    /// Decodes one checksummed payload, which must be read to its end.
    /// `Ok(None)` is a tag or value the format does not know.
    fn decode(tag: u8, payload: &mut Cursor<'_>) -> Result<Option<Self>, CursorError>;
}

/// What a scan of a record log found.
#[derive(Debug)]
pub struct Scan<R> {
    /// Every good record before the first bad one.
    pub records: Vec<R>,
    /// The offset each record starts at.
    pub offsets: Vec<u64>,
    /// Bytes past the last good record: a torn tail or a torn header.
    pub torn: usize,
}

/// Why a record log could not be opened.
#[derive(Debug)]
pub enum LogError {
    /// A file-system error.
    Io(std::io::Error),
    /// Another format, or this one at another version.
    Header(HeaderError),
}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e)
    }
}

impl From<LogError> for std::io::Error {
    fn from(e: LogError) -> Self {
        match e {
            LogError::Io(e) => e,
            LogError::Header(e) => Self::new(std::io::ErrorKind::InvalidData, format!("{e:?}")),
        }
    }
}

/// Scans a record log's bytes up to the first record whose length,
/// checksum or payload does not hold. A buffer shorter than its header
/// whose bytes are a prefix of it is a header torn while being
/// written: all of it reads as torn.
pub fn scan<R: Record>(bytes: &[u8]) -> Result<Scan<R>, HeaderError> {
    let mut at = 0;
    if let Some(header) = R::HEADER {
        if bytes.len() < HEADER_LEN && header.bytes().starts_with(bytes) {
            return Ok(Scan { records: Vec::new(), offsets: Vec::new(), torn: bytes.len() });
        }
        header.check(&mut Cursor::new(bytes))?;
        at = HEADER_LEN;
    }
    let (mut records, mut offsets) = (Vec::new(), Vec::new());
    while let Some((record, used)) = next_record(&bytes[at..]) {
        records.push(record);
        offsets.push(at as u64);
        at += used;
    }
    Ok(Scan { records, offsets, torn: bytes.len() - at })
}

fn next_record<R: Record>(bytes: &[u8]) -> Option<(R, usize)> {
    let mut cursor = Cursor::new(bytes);
    let tag = cursor.u8().ok()?;
    let len = cursor.u32().ok()?;
    if len > R::MAX_PAYLOAD {
        return None;
    }
    let payload = cursor.take(len as usize).ok()?;
    if cursor.u32().ok()? != fnv1a64(payload) as u32 {
        return None;
    }
    let mut payload = Cursor::new(payload);
    match R::decode(tag, &mut payload) {
        Ok(Some(record)) if payload.remaining() == 0 => Some((record, 9 + len as usize)),
        _ => None,
    }
}

/// Frames `records` onto `out`, pushing each one's offset (counting
/// `out`'s first byte as `base`) onto `offsets` when given.
fn encode<R: Record, B: Borrow<R>>(
    out: &mut Vec<u8>,
    base: u64,
    records: impl IntoIterator<Item = B>,
    mut offsets: Option<&mut Vec<u64>>,
) {
    for record in records {
        let start = out.len();
        if let Some(offsets) = offsets.as_mut() {
            offsets.push(base + start as u64);
        }
        out.extend_from_slice(&[0; 5]);
        out[start] = record.borrow().encode(out);
        let len = (out.len() - start - 5) as u32;
        out[start + 1..start + 5].copy_from_slice(&len.to_le_bytes());
        let checksum = fnv1a64(&out[start + 5..]) as u32;
        out.put_u32_le(checksum);
    }
}

/// An append-only file of checksummed records.
#[derive(Debug)]
pub struct RecordLog<R> {
    file: File,
    path: PathBuf,
    fsync: bool,
    len: u64,
    record: PhantomData<fn() -> R>,
}

impl<R: Record> RecordLog<R> {
    /// Opens (creating if absent) the log at `path` and returns what is
    /// on disk. A torn tail is truncated; a missing or torn header is
    /// written again. `fsync: false` trades durability for speed in
    /// tests and load runs that measure the protocol, not the disk.
    pub fn open(path: &Path, fsync: bool) -> Result<(Self, Scan<R>), LogError> {
        let bytes = match std::fs::read(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        let scan = scan::<R>(&bytes).map_err(LogError::Header)?;
        let mut len = (bytes.len() - scan.torn) as u64;
        if let Some(header) = R::HEADER.filter(|_| len == 0) {
            write_atomic(path, &header.bytes(), fsync)?;
            len = HEADER_LEN as u64;
        } else if scan.torn > 0 {
            // Appends continue from the last good record instead of
            // burying garbage.
            OpenOptions::new().write(true).open(path)?.set_len(len)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let path = path.to_path_buf();
        Ok((RecordLog { file, path, fsync, len, record: PhantomData }, scan))
    }

    /// Appends `records` in one write and one fsync, pushing the offset
    /// each record starts at onto `offsets` when given.
    pub fn append<B: Borrow<R>>(
        &mut self,
        records: impl IntoIterator<Item = B>,
        offsets: Option<&mut Vec<u64>>,
    ) -> std::io::Result<()> {
        let records = records.into_iter();
        let mut buf = Vec::with_capacity(records.size_hint().0 * R::SIZE_HINT);
        encode(&mut buf, self.len, records, offsets);
        self.file.write_all(&buf)?;
        if self.fsync {
            self.file.sync_data()?;
        }
        self.len += buf.len() as u64;
        Ok(())
    }

    /// Replaces the log with exactly `records` through [`write_atomic`]
    /// and reopens it for appending; offsets as for [`RecordLog::append`].
    pub fn rewrite<B: Borrow<R>>(
        &mut self,
        records: impl IntoIterator<Item = B>,
        offsets: Option<&mut Vec<u64>>,
    ) -> std::io::Result<()> {
        let records = records.into_iter();
        let mut buf = Vec::with_capacity(HEADER_LEN + records.size_hint().0 * R::SIZE_HINT);
        if let Some(header) = R::HEADER {
            buf.extend_from_slice(&header.bytes());
        }
        encode(&mut buf, 0, records, offsets);
        write_atomic(&self.path, &buf, self.fsync)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.len = buf.len() as u64;
        Ok(())
    }

    /// Current size of the log in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.len
    }
}

/// Replaces `path` with `bytes`: writes `<file name>.tmp`, syncs it
/// when `fsync` is on, then renames it over `path`, so a crash leaves
/// the old bytes or the new, never a mix.
pub fn write_atomic(path: &Path, bytes: &[u8], fsync: bool) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    if fsync {
        file.sync_all()?;
    }
    drop(file);
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn word_hash_is_fnv1a_over_words_and_sees_every_byte() {
        // A word below 256 is one FNV-1a byte step.
        assert_eq!(fnv1a64_words([]), fnv1a64(b""));
        assert_eq!(fnv1a64_words([u64::from(b'a')]), fnv1a64(b"a"));
        let words = [0x0123_4567_89ab_cdefu64, 0, u64::MAX];
        let hash = fnv1a64_words(words);
        for i in 0..words.len() {
            for bit in [0, 7, 8, 63] {
                let mut damaged = words;
                damaged[i] ^= 1 << bit;
                assert_ne!(fnv1a64_words(damaged), hash, "word {i} bit {bit}");
            }
        }
    }

    #[test]
    fn cursor_reads_little_endian_and_reports_what_was_missing() {
        let mut bytes = vec![7u8, 2];
        bytes.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        bytes.extend_from_slice(&(-2.5f64).to_le_bytes());
        let mut c = Cursor::new(&bytes);
        assert_eq!(c.u8(), Ok(7));
        assert_eq!(c.flag(), Err(CursorError::InvalidFlag(2)));
        assert_eq!(c.u32(), Ok(0xdead_beef));
        assert_eq!(c.remaining(), 8);
        assert_eq!(c.u64().map(f64::from_bits), Ok(-2.5));
        assert_eq!(c.f64(), Err(CursorError::Truncated { need: 8, have: 0 }));
        assert_eq!(c.take(0), Ok(&[][..]));
        assert_eq!(Cursor::new(&[1, 2]).take(3), Err(CursorError::Truncated { need: 3, have: 2 }));
    }

    #[test]
    fn chunks_are_bounds_checked_before_any_read() {
        let bytes = [1u8, 2, 3, 4, 5];
        let mut c = Cursor::new(&bytes);
        assert_eq!(c.chunks::<2>(2), Ok(&[[1, 2], [3, 4]][..]));
        assert_eq!(c.chunks::<2>(1), Err(CursorError::Truncated { need: 2, have: 1 }));
        assert_eq!(c.chunks::<4>(0), Ok(&[][..]));
        let huge = Cursor::new(&bytes).chunks::<8>(usize::MAX);
        assert_eq!(huge, Err(CursorError::Truncated { need: usize::MAX, have: 5 }));
    }

    #[test]
    fn header_check_names_the_first_mismatch() {
        let header = Header { magic: *b"TEST", version: 3 };
        let check = |bytes: &[u8]| header.check(&mut Cursor::new(bytes));
        assert_eq!(check(b"TEST\x03rest"), Ok(()));
        assert_eq!(
            check(b"TE"),
            Err(HeaderError::Truncated(CursorError::Truncated { need: 4, have: 2 }))
        );
        assert_eq!(check(b"NOPE\x03"), Err(HeaderError::Magic));
        assert_eq!(
            check(b"TEST"),
            Err(HeaderError::Truncated(CursorError::Truncated { need: 1, have: 0 }))
        );
        assert_eq!(check(b"TEST\x09"), Err(HeaderError::Version(9)));
    }

    #[test]
    fn write_atomic_replaces_through_a_sibling_tmp_file() {
        let dir = std::env::temp_dir().join(format!("paydemand-frame-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ck");
        std::fs::write(dir.join("state.ck.tmp"), b"stale").unwrap();
        write_atomic(&path, b"old", false).unwrap();
        write_atomic(&path, b"new", true).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!dir.join("state.ck.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
