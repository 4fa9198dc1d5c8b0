//! Sweep checkpoint journals: crash-tolerant resume manifests.
//!
//! The two-tier [`PipeCache`](crate::PipeCache) already makes a killed
//! sweep cheap to *recompute* — completed stage artifacts come back as disk
//! hits. What it cannot say is which sweep *tasks* had finished, which had
//! failed, and where a resumed run should pick up. A [`SweepJournal`]
//! records exactly that: one append-only NDJSON file per sweep, one line
//! per terminal task event, written with the same durability discipline as
//! the disk tier (flush + fsync per append) and read with the same damage
//! tolerance (a torn or garbled line — the signature of a mid-write kill —
//! is skipped, never an error).
//!
//! The journal is keyed by a *sweep digest* (the structural hash of the
//! sweep's inputs, see [`crate::digest_of`]): a journal written by a
//! different sweep configuration is ignored wholesale, so a stale file can
//! never convince a new sweep that its work is already done.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::json::{Line, Value};

/// Journal format version; bumped on incompatible line-shape changes.
const JOURNAL_SCHEMA: u32 = 1;

/// Terminal state of one journaled task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskState {
    /// The task completed; the payload is the caller's result digest
    /// (hex), letting a resume cross-check cached artifacts.
    Done {
        /// Structural digest of the task's result.
        digest: String,
    },
    /// The task failed terminally; the payload is a rendered cause.
    Failed {
        /// Human-readable failure cause.
        cause: String,
    },
}

/// An append-only, crash-tolerant sweep manifest.
///
/// ```
/// use mss_pipe::checkpoint::{SweepJournal, TaskState};
///
/// let dir = std::env::temp_dir().join(format!("mss-journal-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let path = dir.join("sweep.ndjson");
///
/// // First run: two of three tasks complete before a (simulated) kill.
/// let mut journal = SweepJournal::open(&path, "0123456789abcdef").unwrap();
/// journal.record(&"task-0", TaskState::Done { digest: "aa".into() }).unwrap();
/// journal.record(&"task-1", TaskState::Failed { cause: "boom".into() }).unwrap();
///
/// // Resumed run: the journal knows what happened.
/// let resumed = SweepJournal::open(&path, "0123456789abcdef").unwrap();
/// assert!(resumed.is_done(&"task-0"));
/// assert!(!resumed.is_done(&"task-1"));   // failed, not done
/// assert!(!resumed.is_done(&"task-2"));   // never ran
/// assert_eq!(resumed.len(), 2);
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    sweep: String,
    entries: BTreeMap<String, TaskState>,
}

impl SweepJournal {
    /// Opens (or creates) the journal at `path` for the sweep identified by
    /// `sweep_digest`, replaying any existing entries.
    ///
    /// Replay is damage-tolerant: lines that are garbled, torn (no final
    /// newline) or belong to a different sweep digest or schema are counted
    /// into the `pipe.journal.skipped_lines` observability counter and
    /// ignored. A later entry for the same task supersedes an earlier one.
    ///
    /// # Errors
    ///
    /// Only real I/O errors (unreadable existing file, uncreatable parent
    /// directory) — never data damage.
    pub fn open(path: &Path, sweep_digest: &str) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut entries = BTreeMap::new();
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let mut skipped = 0u64;
                let complete_up_to = text.rfind('\n').map_or(0, |i| i + 1);
                // Anything after the last newline is a torn final line from
                // a mid-append kill: unreadable by construction, skip it.
                if complete_up_to < text.len() {
                    skipped += 1;
                }
                for line in text[..complete_up_to].lines() {
                    match parse_line(line, sweep_digest) {
                        Some((task, state)) => {
                            entries.insert(task, state);
                        }
                        None => skipped += 1,
                    }
                }
                if skipped > 0 {
                    mss_obs::counter_add("pipe.journal.skipped_lines", skipped);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Self {
            path: path.to_path_buf(),
            sweep: sweep_digest.to_string(),
            entries,
        })
    }

    /// Number of journaled tasks (done + failed).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when `task` completed successfully in this or a previous run.
    pub fn is_done(&self, task: &impl std::fmt::Display) -> bool {
        matches!(
            self.entries.get(&task.to_string()),
            Some(TaskState::Done { .. })
        )
    }

    /// The journaled state of `task`, if any.
    #[cfg(test)]
    pub(crate) fn state(&self, task: &impl std::fmt::Display) -> Option<&TaskState> {
        self.entries.get(&task.to_string())
    }

    /// Completed tasks with their result digests, in task-key order.
    pub fn done(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().filter_map(|(k, v)| match v {
            TaskState::Done { digest } => Some((k.as_str(), digest.as_str())),
            TaskState::Failed { .. } => None,
        })
    }

    /// Terminally failed tasks with their causes, in task-key order.
    pub fn failed(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().filter_map(|(k, v)| match v {
            TaskState::Failed { cause } => Some((k.as_str(), cause.as_str())),
            TaskState::Done { .. } => None,
        })
    }

    /// Appends one terminal task event and makes it durable (flush +
    /// fsync) before returning, so a kill after `record` returns can never
    /// lose the entry.
    ///
    /// # Errors
    ///
    /// The underlying I/O error; the in-memory state is only updated after
    /// a durable append.
    pub fn record(
        &mut self,
        task: &impl std::fmt::Display,
        state: TaskState,
    ) -> std::io::Result<()> {
        let task = task.to_string();
        let line = Line::new()
            .str("type", "mss-sweep")
            .u64("schema", u64::from(JOURNAL_SCHEMA))
            .str("sweep", &self.sweep)
            .str("task", &task);
        let line = match &state {
            TaskState::Done { digest } => line.str("status", "done").str("digest", digest),
            TaskState::Failed { cause } => line.str("status", "failed").str("cause", cause),
        }
        .finish();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()?;
        mss_obs::counter_add("pipe.journal.records", 1);
        self.entries.insert(task, state);
        Ok(())
    }
}

/// Parses one journal line for `sweep`; `None` skips it.
fn parse_line(line: &str, sweep: &str) -> Option<(String, TaskState)> {
    let v = Value::parse(line).ok()?;
    let str_field = |k: &str| v.get(k).and_then(Value::as_str);
    if str_field("type") != Some("mss-sweep")
        || v.get("schema").and_then(Value::as_u64) != Some(u64::from(JOURNAL_SCHEMA))
        || str_field("sweep") != Some(sweep)
    {
        return None;
    }
    let state = match str_field("status")? {
        "done" => TaskState::Done {
            digest: str_field("digest")?.to_string(),
        },
        "failed" => TaskState::Failed {
            cause: str_field("cause")?.to_string(),
        },
        _ => return None,
    };
    Some((str_field("task")?.to_string(), state))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mss-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("sweep.ndjson")
    }

    #[test]
    fn records_replay_across_reopens() {
        let path = temp_path("replay");
        let mut j = SweepJournal::open(&path, "deadbeef00000000").unwrap();
        assert!(j.is_empty());
        j.record(
            &"pair-0-0",
            TaskState::Done {
                digest: "aaaa".into(),
            },
        )
        .unwrap();
        j.record(
            &"pair-0-1",
            TaskState::Failed {
                cause: "panicked: chaos".into(),
            },
        )
        .unwrap();
        j.record(
            &"pair-1-0",
            TaskState::Done {
                digest: "bbbb".into(),
            },
        )
        .unwrap();

        let j2 = SweepJournal::open(&path, "deadbeef00000000").unwrap();
        assert_eq!(j2.len(), 3);
        assert!(j2.is_done(&"pair-0-0"));
        assert!(j2.is_done(&"pair-1-0"));
        assert!(!j2.is_done(&"pair-0-1"));
        assert_eq!(
            j2.state(&"pair-0-1"),
            Some(&TaskState::Failed {
                cause: "panicked: chaos".into()
            })
        );
        assert_eq!(j2.done().count(), 2);
        assert_eq!(j2.failed().count(), 1);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn journal_lines_are_pinned() {
        let path = temp_path("pinned");
        let mut j = SweepJournal::open(&path, "0f0f0f0f0f0f0f0f").unwrap();
        j.record(
            &"pair-0-0",
            TaskState::Done {
                digest: "00ff".into(),
            },
        )
        .unwrap();
        j.record(
            &"pair \"1\"",
            TaskState::Failed {
                cause: "panicked: \"x\"\nnext\u{1}".into(),
            },
        )
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"type\":\"mss-sweep\",\"schema\":1,\"sweep\":\"0f0f0f0f0f0f0f0f\",\"task\":\"pair-0-0\",\"status\":\"done\",\"digest\":\"00ff\"}\n\
             {\"type\":\"mss-sweep\",\"schema\":1,\"sweep\":\"0f0f0f0f0f0f0f0f\",\"task\":\"pair \\\"1\\\"\",\"status\":\"failed\",\"cause\":\"panicked: \\\"x\\\"\\nnext\\u0001\"}\n"
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn later_entries_supersede_earlier_ones() {
        let path = temp_path("supersede");
        let mut j = SweepJournal::open(&path, "feedface00000000").unwrap();
        j.record(
            &"t",
            TaskState::Failed {
                cause: "attempt 0 failed".into(),
            },
        )
        .unwrap();
        j.record(
            &"t",
            TaskState::Done {
                digest: "cc".into(),
            },
        )
        .unwrap();
        assert!(j.is_done(&"t"));
        let j2 = SweepJournal::open(&path, "feedface00000000").unwrap();
        assert!(j2.is_done(&"t"), "retry success must win on replay");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_final_line_is_skipped_never_an_error() {
        let path = temp_path("torn");
        let mut j = SweepJournal::open(&path, "0011223344556677").unwrap();
        j.record(
            &"a",
            TaskState::Done {
                digest: "11".into(),
            },
        )
        .unwrap();
        j.record(
            &"b",
            TaskState::Done {
                digest: "22".into(),
            },
        )
        .unwrap();
        // Simulate a mid-append kill: chop bytes off the end.
        let full = std::fs::read_to_string(&path).unwrap();
        for cut in [full.len() - 1, full.len() - 10, full.rfind('\n').unwrap()] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let j2 = SweepJournal::open(&path, "0011223344556677").unwrap();
            assert!(j2.is_done(&"a"), "cut at {cut}");
            assert!(!j2.is_done(&"b"), "cut at {cut} kept a torn entry");
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn foreign_sweep_digests_are_ignored() {
        let path = temp_path("foreign");
        let mut j = SweepJournal::open(&path, "aaaaaaaaaaaaaaaa").unwrap();
        j.record(
            &"t",
            TaskState::Done {
                digest: "00".into(),
            },
        )
        .unwrap();
        // A new sweep configuration opens the same path: nothing carries
        // over, and its own records coexist in the same file.
        let mut other = SweepJournal::open(&path, "bbbbbbbbbbbbbbbb").unwrap();
        assert!(other.is_empty());
        other
            .record(
                &"t",
                TaskState::Done {
                    digest: "ff".into(),
                },
            )
            .unwrap();
        // Both sweeps replay their own view.
        assert!(SweepJournal::open(&path, "aaaaaaaaaaaaaaaa")
            .unwrap()
            .is_done(&"t"));
        assert!(SweepJournal::open(&path, "bbbbbbbbbbbbbbbb")
            .unwrap()
            .is_done(&"t"));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn garbage_lines_are_counted_and_skipped() {
        let path = temp_path("garbage");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let line = |body: &str| {
            format!(
                "{{\"type\":\"mss-sweep\",\"schema\":1,\"sweep\":\"cafebabe00000000\",{body}}}\n"
            )
        };
        let text = [
            "total garbage\n".to_string(),
            "{\"type\":\"mss-sweep\",\"schema\":999}\n".to_string(),
            // Not the writer's JSON: a duplicate key, a number written as a
            // string, a bare token, two values for one key, a nesting bomb.
            line("\"task\":\"a\",\"task\":\"b\",\"status\":\"done\",\"digest\":\"00\""),
            line("\"task\":\"a\",\"status\":\"done\",\"digest\":\"00\"")
                .replace("\"schema\":1", "\"schema\":\"1\""),
            line("\"task\":\"a\",\"status\":\"done\",\"digest\":abc"),
            line("\"task\":\"a\",\"status\":\"done\",\"digest\":1 2"),
            format!("{}\n", "[".repeat(1_000_000)),
            // Valid escapes replay.
            line("\"task\":\"b\",\"status\":\"failed\",\"cause\":\"a\\/b \\ud83d\\ude00\""),
        ]
        .concat();
        std::fs::write(&path, text).unwrap();
        let j = SweepJournal::open(&path, "cafebabe00000000").unwrap();
        assert_eq!(j.len(), 1, "{j:?}");
        assert_eq!(
            j.state(&"b"),
            Some(&TaskState::Failed {
                cause: "a/b 😀".into()
            })
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
