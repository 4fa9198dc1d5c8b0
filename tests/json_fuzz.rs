//! Deterministic fuzzing of the workspace's one JSON grammar.
//!
//! Real lines — a run report, event-bus lines, on-disk cache entries of
//! every artifact kind (the STT and SOT cell libraries and a current
//! sim-report among them) and a sweep journal — are mutated by a seeded
//! PRNG (byte flips, truncations, splices, duplicated slices and nesting
//! bombs) and fed to every reader:
//!
//! - `Value::parse` must return a value or an error naming a byte offset;
//! - `Report::parse_ndjson` must return a report or an error, naming the
//!   line of any syntax error;
//! - a damaged cache entry must be a disk hit or a counted miss, and each
//!   artifact's decoder must see a stated number of damaged payloads
//!   behind an intact header;
//! - a damaged journal must replay, skipping what it cannot read.
//!
//! Nothing may panic. The run is the same on every machine: the seed, the
//! corpus and the mutation schedule are all fixed.

use std::path::{Path, PathBuf};

use great_mss::gemsim::stats::SimReport;
use great_mss::mtj::{MssStack, SotParams};
use great_mss::nvsim::model::ArrayMetrics;
use great_mss::obs::events::{BusEvent, EventPayload};
use great_mss::obs::json::Value;
use great_mss::obs::{Mode, Registry};
use great_mss::pdk::charlib::{characterize_sot_cached, CellLibrary, SotCellLibrary};
use great_mss::pdk::tech::TechNode;
use great_mss::pipe::{Artifact, PipeCache, Stage, SweepJournal};
use great_mss::units::rng::{Rng, SplitMix64};
use mss_prof::Report;

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/pipe_v1");
const CASES: usize = 24_000;
const JOURNAL_SWEEP: &str = "5eed5eed5eed5eed";
/// Key of the current-version sim-report entry the test writes.
const SIM_REPORT_KEY: &str = "5143f2a1b0c0ffee";

/// Loads one cache entry of a fixed artifact type; `true` on a disk hit.
type Loader = fn(&PipeCache, Stage, &str) -> bool;

/// What a corpus document is, and so which readers it goes to.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Report,
    Cache(Stage, &'static str, Loader),
    Journal,
}

struct Doc {
    kind: Kind,
    /// Cache entries: the file name the entry must be written under.
    file: String,
    text: String,
    /// Cache entries: the header a damaged copy must keep for its payload
    /// to reach the decoder; `None` when even the undamaged entry stops at
    /// the header (an old artifact version).
    header: Option<Vec<String>>,
}

fn run_report() -> String {
    let reg = Registry::new(Mode::Metrics);
    reg.counter_add("vaet.mc.samples", 20_000);
    reg.counter_add("big \"counter\"", u64::MAX);
    reg.gauge_set("pipe.mem_occupancy", 0.25);
    for v in [1e-6, 2e-3, 4.5e-2] {
        reg.record_value("vaet.mc.wall_seconds", v);
    }
    let mut text = reg.to_ndjson();
    // Span times are wall clock, so the span line is a fixed capture.
    text.push_str(
        "{\"type\":\"span\",\"path\":\"flow/leg\",\"count\":2,\"total_seconds\":7.5e-1,\
         \"self_seconds\":7.5e-1,\"min_seconds\":2.5e-1,\"max_seconds\":5e-1,\
         \"by_thread\":[[1,1,5e-1],[2,1,2.5e-1]]}\n",
    );
    text
}

fn event_stream() -> String {
    let payloads = [
        EventPayload::SpanOpen {
            path: "flow/sim".into(),
        },
        EventPayload::SpanClose {
            path: "flow/sim".into(),
            duration_seconds: 1e-3,
        },
        EventPayload::CounterDelta {
            name: "c".into(),
            delta: 3,
        },
        EventPayload::GaugeSet {
            name: "g".into(),
            value: f64::NAN,
        },
        EventPayload::Progress {
            sweep: "sw".into(),
            done: 1,
            total: 2,
            retried: 0,
            budget_seconds: None,
        },
        EventPayload::Heartbeat {
            sweep: "sw".into(),
            worker: 1,
            tasks_done: 4,
            busy_seconds: 0.5,
        },
        EventPayload::Failure {
            sweep: "sw".into(),
            index: 1,
            attempts: 2,
            kind: "panicked".into(),
            message: "boom \"q\"\n".into(),
        },
    ];
    let mut text = great_mss::obs::json::meta_line("events", 0, None);
    for (seq, payload) in payloads.into_iter().enumerate() {
        let event = BusEvent {
            seq: seq as u64,
            tid: 0,
            t_seconds: 0.125,
            payload,
        };
        text.push_str(&event.to_json_line());
        text.push('\n');
    }
    text
}

fn load<T: Artifact>(cache: &PipeCache, stage: Stage, key: &str) -> bool {
    cache
        .get_or_compute_artifact::<T, _, _>(stage, key, || Err(()))
        .is_ok()
}

/// The artifact kinds and their loaders.
const LOADERS: [(&str, Loader); 4] = [
    (CellLibrary::KIND, load::<CellLibrary>),
    (SotCellLibrary::KIND, load::<SotCellLibrary>),
    (ArrayMetrics::KIND, load::<ArrayMetrics>),
    (SimReport::KIND, load::<SimReport>),
];

/// Per loader, the fewest damaged entries whose payload must reach its
/// decoder. The schedule reaches the four decoders 1 195, 1 344, 6 438
/// (five entries) and 1 647 times; a decoder the fuzz stops reaching fails
/// the test instead of passing unexercised.
const DECODED_FLOOR: [usize; LOADERS.len()] = [900, 1_000, 5_000, 1_200];

/// The kind and loader for an undamaged entry, picked by its header's
/// `kind`.
fn loader_for(entry: &str) -> (&'static str, Loader) {
    let header = Value::parse(entry.lines().next().unwrap()).unwrap();
    let kind = header.get("kind").and_then(Value::as_str);
    LOADERS
        .into_iter()
        .find(|&(k, _)| Some(k) == kind)
        .unwrap_or_else(|| panic!("no loader for {kind:?}"))
}

/// The header fields the disk tier checks before it decodes a payload:
/// `type`, `schema`, `stage`, `kind`, `version` and `key`. `None` when the
/// first line is not a JSON object holding all six.
fn header_fields(entry: &str) -> Option<Vec<String>> {
    let header = Value::parse(entry.split_once('\n')?.0).ok()?;
    let text = |k: &str| header.get(k).and_then(Value::as_str).map(str::to_string);
    let number = |k: &str| header.get(k).and_then(Value::as_u64).map(|n| n.to_string());
    Some(vec![
        text("type")?,
        number("schema")?,
        text("stage")?,
        text("kind")?,
        number("version")?,
        text("key")?,
    ])
}

/// The committed fixtures, plus a SOT cell-library entry characterised
/// into `dir` and a current-version sim-report entry written there (no
/// fixture holds either: the fixtures' sim-reports are version 1, which
/// the disk tier rejects at the header).
fn corpus(dir: &Path) -> Vec<Doc> {
    let mut docs = vec![
        Doc {
            kind: Kind::Report,
            file: String::new(),
            text: run_report(),
            header: None,
        },
        Doc {
            kind: Kind::Report,
            file: String::new(),
            text: event_stream(),
            header: None,
        },
        Doc {
            kind: Kind::Journal,
            file: String::new(),
            text: std::fs::read_to_string(format!("{FIXTURES}/journal.ndjson")).unwrap(),
            header: None,
        },
    ];
    let mut entries: Vec<PathBuf> = std::fs::read_dir(format!("{FIXTURES}/cache"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    let stack = MssStack::builder().build().unwrap();
    let disk = PipeCache::with_disk(dir);
    characterize_sot_cached(TechNode::N45, &stack, &SotParams::default(), &disk).unwrap();
    // A fixture's sim-report payload, stored again at the current version.
    let v1 = entries
        .iter()
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .starts_with("simulate-kernel")
        })
        .unwrap();
    let v1 = std::fs::read_to_string(v1).unwrap();
    let report = SimReport::decode(v1.split_once('\n').unwrap().1).unwrap();
    disk.get_or_compute_artifact(Stage::SimulateKernel, SIM_REPORT_KEY, || {
        Ok::<_, ()>(report)
    })
    .unwrap();
    let written: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(written.len(), 2, "{written:?}");
    entries.extend(written);
    for path in entries {
        let file = path.file_name().unwrap().to_str().unwrap().to_string();
        let stage = Stage::ALL
            .into_iter()
            .find(|s| file.starts_with(s.name()))
            .expect("fixture named after its stage");
        let text = std::fs::read_to_string(&path).unwrap();
        let (kind, loader) = loader_for(&text);
        let mut doc = Doc {
            kind: Kind::Cache(stage, kind, loader),
            file,
            text,
            header: None,
        };
        if load_damaged_entry(dir, &doc, stage, loader, &doc.text) {
            doc.header = header_fields(&doc.text);
        }
        docs.push(doc);
    }
    docs
}

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n.max(1) as u64) as usize
}

/// Bytes that move a JSON parser between states.
const TOKENS: &[u8] = b"{}[]\",:\\ 0-e";

/// One to four mutations of `text`, splicing against `other`.
fn mutate(rng: &mut SplitMix64, text: &str, other: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..=below(rng, 3) {
        let at = below(rng, bytes.len() + 1);
        match below(rng, 6) {
            0 | 1 => {
                if let Some(b) = bytes.get_mut(at) {
                    *b = match below(rng, 4) {
                        0 => *b ^ (1 << below(rng, 8)),
                        1 => TOKENS[below(rng, TOKENS.len())],
                        _ => rng.next_u64() as u8,
                    };
                }
            }
            2 => bytes.truncate(at),
            3 => {
                let from = below(rng, other.len() + 1);
                bytes.truncate(at);
                bytes.extend_from_slice(&other.as_bytes()[from..]);
            }
            4 => {
                let end = (at + below(rng, 64)).min(bytes.len());
                let slice = bytes[at..end].to_vec();
                bytes.splice(at..at, slice);
            }
            _ => {
                let unit: &[u8] = match below(rng, 3) {
                    0 => b"[",
                    1 => b"{\"k\":",
                    _ => b"[{\"a\":[",
                };
                let depth = if below(rng, 32) == 0 {
                    20_000
                } else {
                    1 + below(rng, 400)
                };
                let bomb = unit.repeat(depth);
                bytes.splice(at..at, bomb);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn assert_parse_is_total(text: &str) {
    if let Err(e) = Value::parse(text) {
        assert!(e.offset <= text.len(), "offset past the end: {e}");
        assert!(e.to_string().contains(" at byte "), "no offset in: {e}");
    }
}

/// Loads a damaged entry through the disk tier; `true` on a disk hit. The
/// stage computation fails, so `Ok` can only be a disk hit and `Err` only
/// a miss.
fn load_damaged_entry(dir: &Path, doc: &Doc, stage: Stage, loader: Loader, text: &str) -> bool {
    std::fs::write(dir.join(&doc.file), text).unwrap();
    let key = doc.file[stage.name().len() + 1..].trim_end_matches(".ndjson");
    let cache = PipeCache::with_disk(dir);
    let hit = loader(&cache, stage, key);
    let s = cache.stats(stage);
    assert_eq!((s.disk_hits, s.misses), (u64::from(hit), u64::from(!hit)));
    // The file exists, so a miss is always a counted load failure.
    assert_eq!(s.load_failures, s.misses, "{s:?}");
    hit
}

#[test]
fn mutated_json_lines_never_panic_and_errors_name_a_byte_offset() {
    let dir = std::env::temp_dir().join(format!("mss-json-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let docs = corpus(&dir);
    let journal = dir.join("journal.ndjson");
    let mut rng = SplitMix64::new(0x6a73_6f6e_6675_7a7a);
    let (mut rejected, mut cache_cases, mut journal_cases) = (0, 0, 0);
    // Per artifact kind: damaged entries whose header still passed, so the
    // payload reached the kind's decoder.
    let mut decoded = [0usize; LOADERS.len()];
    for case in 0..CASES {
        let doc = &docs[case % docs.len()];
        let other = &docs[below(&mut rng, docs.len())].text;
        let text = mutate(&mut rng, &doc.text, other);
        assert_parse_is_total(&text);
        for line in text.lines() {
            assert_parse_is_total(line);
            rejected += usize::from(Value::parse(line).is_err());
        }
        match doc.kind {
            Kind::Report => {
                // A syntax error names its line; whole-file rules (no meta
                // line, wrong mode) have none to name.
                if let Err(e) = Report::parse_ndjson(&text) {
                    assert!(
                        e.starts_with("line ") || !e.contains(" at byte "),
                        "no line number in: {e}"
                    );
                }
            }
            Kind::Cache(stage, kind, loader) => {
                let hit = load_damaged_entry(&dir, doc, stage, loader, &text);
                cache_cases += 1;
                let reached = doc.header.is_some() && header_fields(&text) == doc.header;
                assert!(reached || !hit, "a disk hit past a failed header");
                if reached {
                    decoded[LOADERS.iter().position(|&(k, _)| k == kind).unwrap()] += 1;
                }
            }
            Kind::Journal => {
                std::fs::write(&journal, &text).unwrap();
                let replayed =
                    SweepJournal::open(&journal, JOURNAL_SWEEP).expect("damage is never an error");
                assert!(replayed.len() <= text.lines().count());
                journal_cases += 1;
            }
        }
    }
    // The schedule really exercised every reader and the error paths.
    assert!(cache_cases > CASES / 2 && journal_cases > CASES / 20);
    assert!(rejected > CASES / 2, "only {rejected} lines rejected");
    for ((kind, _), (n, floor)) in LOADERS.iter().zip(decoded.iter().zip(DECODED_FLOOR)) {
        assert!(
            *n >= floor,
            "{kind}: {n} damaged payloads decoded, floor {floor}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
