//! Crash-resume determinism: an interrupted campaign, resumed at any
//! thread count, renders byte-identical output to an uninterrupted serial
//! run — the acceptance contract of the campaign engine.
//!
//! "Interrupted" is simulated the honest way: by truncating the journal
//! file, both at a cell boundary (a clean kill between cells) and
//! mid-line (a kill during the append itself).

use std::fs;
use std::path::{Path, PathBuf};

use synran_lab::{load_cache, presets, CampaignSpec, Engine, Journal};
use synran_sim::Telemetry;

const SPEC: &str = "\
campaign  = resume-demo
adversary = balancer
runs      = 3
seed      = 11
sweep n   = 8,10,12
sweep t   = half,max
";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synran-lab-resume-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec() -> CampaignSpec {
    CampaignSpec::parse(SPEC, "resume-demo").unwrap()
}

/// Renders the campaign, journalling into `journal` when given.
fn render(threads: usize, journal: Option<&Path>) -> Vec<u8> {
    let mut engine = match journal {
        Some(path) => {
            let (journal, cache) = Journal::open(path).unwrap();
            Engine::new(threads, Telemetry::off()).with_journal(journal, cache)
        }
        None => Engine::new(threads, Telemetry::off()),
    };
    let mut out = Vec::new();
    presets::run_campaign(&spec(), &mut engine, &mut out).unwrap();
    out
}

#[test]
fn journalled_run_matches_journal_free_serial_run() {
    let dir = tmpdir("baseline");
    let journal = dir.join("resume-demo.journal.jsonl");
    let baseline = render(1, None);
    assert_eq!(render(1, Some(&journal)), baseline);
    assert_eq!(
        load_cache(&journal).unwrap().len(),
        6,
        "all cells journalled"
    );
}

#[test]
fn resume_after_cell_boundary_truncation_is_byte_identical() {
    let dir = tmpdir("boundary");
    let full = dir.join("full.journal.jsonl");
    let baseline = render(1, Some(&full));
    let text = fs::read_to_string(&full).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 4, "expected several journal lines");

    for threads in [1usize, 2, 8] {
        for keep in [1, lines.len() / 2, lines.len() - 1] {
            let journal = dir.join(format!("t{threads}-k{keep}.journal.jsonl"));
            fs::write(&journal, format!("{}\n", lines[..keep].join("\n"))).unwrap();
            let resumed = render(threads, Some(&journal));
            assert_eq!(
                resumed,
                baseline,
                "threads = {threads}, kept {keep}/{} lines",
                lines.len()
            );
            assert_eq!(
                load_cache(&journal).unwrap().len(),
                6,
                "journal complete again after resume"
            );
        }
    }
}

#[test]
fn resume_after_mid_line_truncation_is_byte_identical() {
    let dir = tmpdir("midline");
    let full = dir.join("full.journal.jsonl");
    let baseline = render(1, Some(&full));
    let text = fs::read_to_string(&full).unwrap();

    for threads in [1usize, 2, 8] {
        // Kill the writer partway through the 4th journal line.
        let boundary = text.match_indices('\n').nth(2).map(|(i, _)| i + 1).unwrap();
        let cut = boundary + (text.len() - boundary) / 3;
        let journal = dir.join(format!("t{threads}.journal.jsonl"));
        fs::write(&journal, &text[..cut]).unwrap();
        let resumed = render(threads, Some(&journal));
        assert_eq!(resumed, baseline, "threads = {threads}");
    }
}

#[test]
fn resume_after_a_cut_inside_a_multibyte_character_is_byte_identical() {
    let dir = tmpdir("multibyte");
    let full = dir.join("full.journal.jsonl");
    let baseline = render(1, Some(&full));
    let text = fs::read_to_string(&full).unwrap();
    // Keep three cells, then a fourth cell line whose protocol holds a
    // `\u{20ac}`, torn after the character's first byte.
    let kept: Vec<&str> = text.lines().take(3).collect();
    let torn = text
        .lines()
        .nth(3)
        .unwrap()
        .replacen("synran", "synran\u{20ac}", 1);
    let mut bytes = format!("{}\n", kept.join("\n")).into_bytes();
    bytes.extend_from_slice(&torn.as_bytes()[..torn.find('\u{20ac}').unwrap() + 1]);
    assert!(
        String::from_utf8(bytes.clone()).is_err(),
        "the cut must tear the character"
    );

    for threads in [1usize, 2] {
        let journal = dir.join(format!("t{threads}.journal.jsonl"));
        fs::write(&journal, &bytes).unwrap();
        let scan = synran_lab::scan_journal(&journal).unwrap();
        assert_eq!((scan.entries, scan.skipped), (3, 1), "threads = {threads}");
        assert_eq!(
            render(threads, Some(&journal)),
            baseline,
            "threads = {threads}"
        );
    }
}

#[test]
fn imported_journal_short_circuits_a_sibling_campaign() {
    let dir = tmpdir("import");
    let donor = dir.join("donor.journal.jsonl");
    let baseline = render(1, Some(&donor));

    // A journal-free engine that imports the donor's cache executes
    // nothing and still renders identically.
    let mut engine = Engine::new(4, Telemetry::off());
    assert_eq!(engine.import_cache(&donor).unwrap(), 6);
    let mut out = Vec::new();
    presets::run_campaign(&spec(), &mut engine, &mut out).unwrap();
    assert_eq!(out, baseline);
    assert_eq!(engine.executed(), 0, "fully served from the import");
    assert_eq!(engine.cache_hits(), 6);
}
