//! Resumable campaign journals: append-only JSONL, one completed cell per
//! line.
//!
//! A campaign appends each finished cell to
//! `results/<campaign>.journal.jsonl` as soon as its last run lands, so a
//! killed grid resumes from the last durable line instead of restarting
//! from zero. On load the journal is also the **result cache**: any cell
//! whose [content hash](crate::Cell::content_hash) already appears is
//! skipped, and journals from *other* campaigns can be imported for
//! cross-campaign dedup (the hash covers every execution-relevant
//! parameter, so a hit is always safe to reuse).
//!
//! The loader is truncation-tolerant by construction: a line that does not
//! parse — the half-written tail of a killed process, or an event kind
//! from a newer writer — is skipped, never fatal.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use synran_sim::json::{lossy_lines, Escaped, FlatObject};

use crate::cell::{from_object, to_jsonl, Cell, CellResult};

/// A content-keyed map of completed cells: hash → result.
pub type CellCache = BTreeMap<String, CellResult>;

/// The provenance header a campaign run appends first (see
/// [`Journal::append_header`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Campaign name.
    pub name: String,
    /// Cell count of the spec that wrote the header.
    pub cells: usize,
    /// Content hash of that spec.
    pub spec_hash: String,
}

/// Everything a full pass over a journal file learns — the cache plus the
/// line-level accounting `synran campaign status` and `synran report`
/// surface (how many lines truncation recovery actually dropped, not just
/// what survived).
#[derive(Debug, Clone, Default)]
pub struct JournalScan {
    /// Parsed cell results, content-hash keyed.
    pub cache: CellCache,
    /// Total lines in the file.
    pub lines: usize,
    /// Cell lines that parsed.
    pub entries: usize,
    /// Lines dropped by truncation recovery: not blank, not a header, not
    /// a parseable cell. Includes the half-written tail of a killed run.
    pub skipped: usize,
    /// The last `"type":"campaign"` header, if any.
    pub header: Option<JournalHeader>,
    /// Distinct cells in first-appearance order, **last line wins** per
    /// hash — a journal read from disk may hold the same cell twice (two
    /// runs appending to one file, or a journal written by an older
    /// build), and the later line supersedes. This is the row list
    /// `synran report` renders into a per-cell table.
    pub rows: Vec<(Cell, CellResult)>,
}

/// Reads a journal file line by line, classifying every line. A missing
/// file scans as empty; a line that is not valid UTF-8 (a multi-byte
/// character torn by a crash mid-append) counts as skipped.
///
/// # Errors
///
/// Returns an I/O error only for a file that exists but cannot be read.
pub fn scan_journal(path: &Path) -> std::io::Result<JournalScan> {
    let mut scan = JournalScan::default();
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(scan),
        Err(e) => return Err(e),
    };
    let mut row_of: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for line in lossy_lines(BufReader::new(file)) {
        let line = line?;
        scan.lines += 1;
        if line.trim().is_empty() {
            continue;
        }
        let Some(obj) = FlatObject::parse(&line) else {
            scan.skipped += 1;
            continue;
        };
        if let Some((hash, cell, result)) = from_object(&obj) {
            match row_of.get(&hash) {
                Some(&p) => scan.rows[p] = (cell, result.clone()),
                None => {
                    row_of.insert(hash.clone(), scan.rows.len());
                    scan.rows.push((cell, result.clone()));
                }
            }
            scan.cache.insert(hash, result);
            scan.entries += 1;
            continue;
        }
        if obj.str("type") == Some("campaign") {
            if let (Some(name), Some(cells), Some(spec_hash)) =
                (obj.str("name"), obj.u64("cells"), obj.str("spec_hash"))
            {
                scan.header = Some(JournalHeader {
                    name: name.to_string(),
                    cells: usize::try_from(cells).unwrap_or(usize::MAX),
                    spec_hash: spec_hash.to_string(),
                });
                continue;
            }
        }
        scan.skipped += 1;
    }
    Ok(scan)
}

/// Reads every parseable cell line of a journal file into a cache.
/// A missing file is an empty cache; unparseable lines (truncated tails,
/// unknown event kinds) are skipped — [`scan_journal`] reports how many.
///
/// # Errors
///
/// Returns an I/O error only for a file that exists but cannot be read.
pub fn load_cache(path: &Path) -> std::io::Result<CellCache> {
    Ok(scan_journal(path)?.cache)
}

/// An open, append-mode campaign journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    out: BufWriter<File>,
}

impl Journal {
    /// Opens `path` for appending (creating parent directories and the
    /// file as needed) and loads the entries already present, which become
    /// the campaign's warm cache.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating directories, reading the
    /// existing journal, or opening it for append.
    pub fn open(path: &Path) -> std::io::Result<(Journal, CellCache)> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let cache = load_cache(path)?;
        let out = BufWriter::new(OpenOptions::new().create(true).append(true).open(path)?);
        Ok((
            Journal {
                path: path.to_path_buf(),
                out,
            },
            cache,
        ))
    }

    /// Like [`Journal::open`] but truncates first — a `--fresh` run that
    /// deliberately discards the cache.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating directories or the file.
    pub fn create_fresh(path: &Path) -> std::io::Result<Journal> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let out = BufWriter::new(File::create(path)?);
        Ok(Journal {
            path: path.to_path_buf(),
            out,
        })
    }

    /// The journal's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a session header line (`"type":"campaign"`) recording the
    /// campaign name, its cell count, and the spec's content hash. Loaders
    /// skip it; humans and tooling get provenance.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write or flush.
    pub fn append_header(
        &mut self,
        campaign: &str,
        cells: usize,
        spec_hash: &str,
    ) -> std::io::Result<()> {
        writeln!(
            self.out,
            "{{\"type\":\"campaign\",\"name\":\"{}\",\"cells\":{cells},\"spec_hash\":\"{}\"}}",
            Escaped(campaign),
            Escaped(spec_hash)
        )?;
        self.out.flush()
    }

    /// Appends one completed cell and flushes, so the line is durable
    /// before the next cell lands.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write or flush.
    pub fn append(&mut self, cell: &Cell, result: &CellResult) -> std::io::Result<()> {
        writeln!(self.out, "{}", to_jsonl(cell, result))?;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("synran-lab-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cell(seed: u64) -> Cell {
        Cell {
            seed,
            ..Cell::new("synran", "passive", 8)
        }
    }

    fn result(r: u32) -> CellResult {
        CellResult {
            rounds: vec![r, r + 1],
            kills: vec![0, 1],
            timeouts: 0,
            violations: 0,
        }
    }

    #[test]
    fn append_then_load_round_trips() {
        let path = tmpdir("roundtrip").join("demo.journal.jsonl");
        let (mut journal, cache) = Journal::open(&path).unwrap();
        assert!(cache.is_empty());
        journal.append_header("demo", 2, "abcd").unwrap();
        journal.append(&cell(1), &result(4)).unwrap();
        journal.append(&cell(2), &result(9)).unwrap();
        drop(journal);

        let (_, cache) = Journal::open(&path).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache[&cell(1).content_hash()], result(4));
        assert_eq!(cache[&cell(2).content_hash()], result(9));
    }

    #[test]
    fn loader_skips_truncated_tail_and_unknown_lines() {
        let path = tmpdir("truncated").join("demo.journal.jsonl");
        let mut text = String::new();
        text.push_str(
            "{\"type\":\"campaign\",\"name\":\"demo\",\"cells\":3,\"spec_hash\":\"x\"}\n",
        );
        text.push_str(&to_jsonl(&cell(1), &result(4)));
        text.push('\n');
        text.push_str("{\"type\":\"from_the_future\",\"x\":1}\n");
        let full_line = to_jsonl(&cell(2), &result(9));
        text.push_str(&full_line[..full_line.len() / 2]); // killed mid-line
        std::fs::write(&path, text).unwrap();

        let cache = load_cache(&path).unwrap();
        assert_eq!(cache.len(), 1, "only the complete cell line survives");
        assert!(cache.contains_key(&cell(1).content_hash()));
    }

    #[test]
    fn scan_accounts_for_every_line() {
        let path = tmpdir("scan").join("demo.journal.jsonl");
        let mut text = String::new();
        // An escaped quote in the name is unescaped, not cut at.
        text.push_str(
            "{\"type\":\"campaign\",\"name\":\"de\\\"mo\",\"cells\":3,\"spec_hash\":\"x\"}\n",
        );
        text.push_str(&to_jsonl(&cell(1), &result(4)));
        text.push('\n');
        text.push_str("{\"type\":\"from_the_future\",\"x\":1}\n");
        let full_line = to_jsonl(&cell(2), &result(9));
        text.push_str(&full_line[..full_line.len() / 2]); // killed mid-line
        std::fs::write(&path, text).unwrap();

        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.lines, 4);
        assert_eq!(scan.entries, 1);
        assert_eq!(scan.skipped, 2, "unknown type + truncated tail");
        assert_eq!(scan.cache.len(), 1);
        assert_eq!(
            scan.header,
            Some(JournalHeader {
                name: "de\"mo".to_string(),
                cells: 3,
                spec_hash: "x".to_string(),
            })
        );

        let empty = scan_journal(Path::new("/nonexistent/never/x.jsonl")).unwrap();
        assert_eq!(empty.lines, 0);
        assert!(empty.header.is_none());
    }

    #[test]
    fn duplicate_cell_lines_keep_one_row_last_wins() {
        // A journal on disk can hold the same cell twice (two runs
        // appending to one file, or an older build's journal). The scan
        // must surface one row per distinct cell, carrying the *last*
        // line's result.
        let path = tmpdir("dup").join("demo.journal.jsonl");
        let mut text = String::new();
        text.push_str(&to_jsonl(&cell(1), &result(4)));
        text.push('\n');
        text.push_str(&to_jsonl(&cell(2), &result(9)));
        text.push('\n');
        text.push_str(&to_jsonl(&cell(1), &result(7))); // later line supersedes
        text.push('\n');
        std::fs::write(&path, text).unwrap();

        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.entries, 3, "every parsed line still counts");
        assert_eq!(scan.rows.len(), 2, "one row per distinct cell");
        assert_eq!(scan.rows[0].0.seed, 1, "first-appearance order kept");
        assert_eq!(scan.rows[0].1, result(7), "last line wins");
        assert_eq!(scan.rows[1].1, result(9));
        assert_eq!(scan.cache[&cell(1).content_hash()], result(7));
    }

    #[test]
    fn missing_journal_is_empty_cache() {
        let cache = load_cache(Path::new("/nonexistent/never/demo.journal.jsonl")).unwrap();
        assert!(cache.is_empty());
    }

    #[test]
    fn fresh_truncates() {
        let path = tmpdir("fresh").join("demo.journal.jsonl");
        let (mut journal, _) = Journal::open(&path).unwrap();
        journal.append(&cell(1), &result(4)).unwrap();
        drop(journal);
        let journal = Journal::create_fresh(&path).unwrap();
        assert_eq!(journal.path(), path);
        drop(journal);
        assert!(load_cache(&path).unwrap().is_empty());
    }
}
