//! Output sinks for the Write stage.
//!
//! The last stage of Figure 1: correlated records are taken off the Write
//! queues and persisted. The paper writes TSV output files per time
//! interval with "a maximum delay of 45 seconds"; [`RotatingFileSink`]
//! reproduces exactly that — one file per configured window of record
//! time, finished files made visible by an atomic rename.
//!
//! Since the sharded-egress refactor each Write worker **owns** its sink
//! (records are partitioned by flow-key hash), so sinks are plain
//! single-threaded `&mut self` objects and no lock sits on the
//! per-record write path. The old `SharedWriter` (one mutexed sink shared
//! by every worker) is gone; see `pipeline.rs` for the worker loop and
//! `docs/MIGRATION.md` for migration notes.

use std::fs::File;
use std::io::{BufWriter, Write as IoWrite};
use std::path::{Path, PathBuf};

use flowdns_types::{CorrelatedRecord, FlowDnsError, SimDuration, VolumeAccumulator};

/// Statistics of the write stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WriteStats {
    /// Records written.
    pub records_written: u64,
    /// Byte-volume accounting (correlated vs. total).
    pub volumes: VolumeAccumulator,
}

impl WriteStats {
    /// Merge another stats block into this one (thread-local flush).
    pub fn merge(&mut self, other: &WriteStats) {
        self.records_written += other.records_written;
        self.volumes.merge(&other.volumes);
    }
}

/// Anything that can receive correlated output records.
pub trait OutputSink: Send {
    /// Persist one record.
    fn write_record(&mut self, record: &CorrelatedRecord) -> Result<(), FlowDnsError>;
    /// Flush any buffered output.
    fn flush(&mut self) -> Result<(), FlowDnsError> {
        Ok(())
    }
    /// Finish the sink at end of run: flush buffers and complete any
    /// pending file work (e.g. the rotation rename). Write workers call
    /// this before dropping the sink so failures surface through
    /// `Correlator::finish()`; the `Drop` impls only remain as a
    /// best-effort backstop for abnormal exits.
    fn finalize(&mut self) -> Result<(), FlowDnsError> {
        self.flush()
    }
}

/// Wrap one sink as a write-stage sink factory.
///
/// A single sink can only be owned by a single Write worker, so this
/// errors unless `write_workers == 1` — the shared guard behind
/// `Correlator::start_with_sink` and `IngestRuntime::start_with_sink`.
pub fn single_sink_factory(
    write_workers: usize,
    sink: Box<dyn OutputSink>,
) -> Result<impl FnMut(usize) -> Result<Box<dyn OutputSink>, FlowDnsError>, FlowDnsError> {
    if write_workers != 1 {
        return Err(FlowDnsError::Config(
            "a single output sink requires write_workers = 1; \
             use a sink factory for sharded egress"
                .into(),
        ));
    }
    let mut sink = Some(sink);
    Ok(move |_| {
        sink.take().ok_or_else(|| {
            FlowDnsError::Config("single sink factory invoked more than once".into())
        })
    })
}

/// A sink that keeps records in memory (tests, examples, analyses).
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Vec<CorrelatedRecord>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The records collected so far.
    pub fn records(&self) -> &[CorrelatedRecord] {
        &self.records
    }

    /// Consume the sink, returning the records.
    pub fn into_records(self) -> Vec<CorrelatedRecord> {
        self.records
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the sink empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl OutputSink for MemorySink {
    fn write_record(&mut self, record: &CorrelatedRecord) -> Result<(), FlowDnsError> {
        self.records.push(record.clone());
        Ok(())
    }
}

/// A sink that discards records after the Write stage has done its
/// volume accounting — the daemon default when no `output` is
/// configured.
#[derive(Debug, Default)]
pub struct DiscardSink;

impl OutputSink for DiscardSink {
    fn write_record(&mut self, _record: &CorrelatedRecord) -> Result<(), FlowDnsError> {
        Ok(())
    }
}

/// Format `record` into `line` (reused, so a warmed buffer allocates
/// nothing) and hand the finished line to `writer` in one `write_all`.
fn write_line(
    writer: &mut BufWriter<File>,
    line: &mut Vec<u8>,
    record: &CorrelatedRecord,
) -> Result<(), FlowDnsError> {
    line.clear();
    record.write_tsv(line);
    line.push(b'\n');
    writer.write_all(line)?;
    Ok(())
}

/// A sink that appends TSV lines to a single file.
#[derive(Debug)]
pub struct TsvFileSink {
    writer: BufWriter<File>,
    line: Vec<u8>,
}

impl TsvFileSink {
    /// Create (truncate) the output file.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self, FlowDnsError> {
        let file = File::create(path)?;
        Ok(TsvFileSink {
            writer: BufWriter::new(file),
            line: Vec::new(),
        })
    }
}

impl OutputSink for TsvFileSink {
    fn write_record(&mut self, record: &CorrelatedRecord) -> Result<(), FlowDnsError> {
        write_line(&mut self.writer, &mut self.line, record)
    }

    fn flush(&mut self) -> Result<(), FlowDnsError> {
        IoWrite::flush(&mut self.writer)?;
        Ok(())
    }
}

impl Drop for TsvFileSink {
    /// Buffered lines must survive a drop without an explicit `flush()`
    /// — a worker that exits via an error path still persists its tail.
    fn drop(&mut self) {
        let _ = IoWrite::flush(&mut self.writer);
    }
}

/// The currently open window file of a [`RotatingFileSink`].
#[derive(Debug)]
struct ActiveWindow {
    window_start: u64,
    part_path: PathBuf,
    final_path: PathBuf,
    writer: BufWriter<File>,
}

/// A sink writing one TSV file per window of *record time* — the
/// paper-style per-interval output files.
///
/// Records land in the file whose window covers their flow timestamp's
/// window start; when a record from a later window arrives, the current
/// file is flushed and atomically renamed from its `.part` name to its
/// final name (so downstream consumers only ever see finished files),
/// and a new window file is opened. Records that arrive *late* (their
/// window already rotated away) stay in the currently open file — the
/// bounded-delay semantics of the paper's deployment rather than
/// unbounded reordering.
///
/// Dropping the sink finalizes the open window, so an end-of-run file is
/// never lost.
#[derive(Debug)]
pub struct RotatingFileSink {
    dir: PathBuf,
    prefix: String,
    shard_tag: String,
    window_secs: u64,
    current: Option<ActiveWindow>,
    completed: Vec<PathBuf>,
    line: Vec<u8>,
}

impl RotatingFileSink {
    /// A sink writing `{prefix}-{window_start:010}.tsv` files under
    /// `dir` (created if missing), rotating every `window`.
    pub fn new<P: AsRef<Path>>(
        dir: P,
        prefix: &str,
        window: SimDuration,
    ) -> Result<Self, FlowDnsError> {
        if window == SimDuration::ZERO {
            return Err(FlowDnsError::Config(
                "rotation window must be positive".into(),
            ));
        }
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(RotatingFileSink {
            dir,
            prefix: prefix.to_string(),
            shard_tag: String::new(),
            window_secs: window.as_secs(),
            current: None,
            completed: Vec::new(),
            line: Vec::new(),
        })
    }

    /// Tag this sink's files with a write-worker shard id
    /// (`{prefix}-{window}-w{shard}.tsv`), so the shards of one
    /// deployment never collide in the shared output directory.
    pub fn with_shard(mut self, shard: usize) -> Self {
        self.shard_tag = format!("-w{shard}");
        self
    }

    /// Window files completed (rotated and renamed) so far.
    pub fn completed_files(&self) -> &[PathBuf] {
        &self.completed
    }

    /// The path the currently open window will get once finished.
    pub fn active_file(&self) -> Option<&Path> {
        self.current.as_ref().map(|w| w.final_path.as_path())
    }

    fn open_window(&mut self, window_start: u64) -> Result<(), FlowDnsError> {
        let name = format!("{}-{:010}{}.tsv", self.prefix, window_start, self.shard_tag);
        let final_path = self.dir.join(&name);
        let part_path = self.dir.join(format!("{name}.part"));
        let writer = BufWriter::new(File::create(&part_path)?);
        self.current = Some(ActiveWindow {
            window_start,
            part_path,
            final_path,
            writer,
        });
        Ok(())
    }

    fn close_window(&mut self) -> Result<(), FlowDnsError> {
        if let Some(mut window) = self.current.take() {
            IoWrite::flush(&mut window.writer)?;
            drop(window.writer);
            std::fs::rename(&window.part_path, &window.final_path)?;
            self.completed.push(window.final_path);
        }
        Ok(())
    }
}

impl OutputSink for RotatingFileSink {
    fn write_record(&mut self, record: &CorrelatedRecord) -> Result<(), FlowDnsError> {
        let window_start = record.flow.ts.as_secs() / self.window_secs * self.window_secs;
        match &self.current {
            Some(open) if window_start <= open.window_start => {}
            Some(_) => {
                self.close_window()?;
                self.open_window(window_start)?;
            }
            None => self.open_window(window_start)?,
        }
        // The match above just ensured a window is open; surface an
        // error instead of panicking the write worker if that ever
        // stops holding.
        let Some(open) = self.current.as_mut() else {
            return Err(FlowDnsError::Io("rotating sink has no open window".into()));
        };
        write_line(&mut open.writer, &mut self.line, record)
    }

    fn flush(&mut self) -> Result<(), FlowDnsError> {
        if let Some(open) = self.current.as_mut() {
            IoWrite::flush(&mut open.writer)?;
        }
        Ok(())
    }

    /// Flush and finish the open window file under its final name.
    fn finalize(&mut self) -> Result<(), FlowDnsError> {
        self.close_window()
    }
}

impl Drop for RotatingFileSink {
    fn drop(&mut self) {
        let _ = self.close_window();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdns_types::{CorrelationOutcome, DomainName, FlowRecord, SimTime};
    use std::net::Ipv4Addr;

    fn record(bytes: u64, correlated: bool) -> CorrelatedRecord {
        record_at(1, bytes, correlated)
    }

    fn record_at(ts: u64, bytes: u64, correlated: bool) -> CorrelatedRecord {
        CorrelatedRecord::new(
            FlowRecord::inbound(
                SimTime::from_secs(ts),
                Ipv4Addr::new(203, 0, 113, 1).into(),
                Ipv4Addr::new(10, 0, 0, 1).into(),
                bytes,
            ),
            if correlated {
                CorrelationOutcome::Name(DomainName::literal("svc.example"))
            } else {
                CorrelationOutcome::NotFound
            },
        )
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn memory_sink_collects_records() {
        let mut sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.write_record(&record(100, true)).unwrap();
        sink.write_record(&record(50, false)).unwrap();
        assert_eq!(sink.len(), 2);
        assert!(sink.records()[0].is_correlated());
        assert_eq!(sink.into_records().len(), 2);
    }

    #[test]
    fn write_stats_merge_accumulates() {
        let mut a = WriteStats {
            records_written: 1,
            ..Default::default()
        };
        a.volumes.record(800, true);
        let mut b = WriteStats {
            records_written: 1,
            ..Default::default()
        };
        b.volumes.record(200, false);
        a.merge(&b);
        assert_eq!(a.records_written, 2);
        assert!((a.volumes.correlation_rate_pct() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn tsv_file_sink_writes_lines() {
        let dir = temp_dir("flowdns-test-sink");
        let path = dir.join("out.tsv");
        {
            let mut sink = TsvFileSink::create(&path).unwrap();
            sink.write_record(&record(123, true)).unwrap();
            sink.write_record(&record(7, false)).unwrap();
            sink.flush().unwrap();
        }
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("svc.example"));
        assert!(lines[1].ends_with("-\t-"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tsv_file_sink_flushes_on_drop() {
        let dir = temp_dir("flowdns-test-sink-drop");
        let path = dir.join("dropped.tsv");
        {
            let mut sink = TsvFileSink::create(&path).unwrap();
            sink.write_record(&record(999, true)).unwrap();
            // No explicit flush: the Drop impl must persist the line.
        }
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotating_sink_cuts_files_on_window_boundaries() {
        let dir = temp_dir("flowdns-test-rotate");
        {
            let mut sink = RotatingFileSink::new(&dir, "corr", SimDuration::from_secs(60)).unwrap();
            sink.write_record(&record_at(10, 100, true)).unwrap();
            sink.write_record(&record_at(59, 100, true)).unwrap();
            assert_eq!(sink.completed_files().len(), 0);
            assert!(sink.active_file().unwrap().ends_with("corr-0000000000.tsv"));
            // Crossing into the next window rotates.
            sink.write_record(&record_at(61, 100, false)).unwrap();
            assert_eq!(sink.completed_files().len(), 1);
            // A late record stays in the open window (bounded delay).
            sink.write_record(&record_at(40, 100, true)).unwrap();
            sink.write_record(&record_at(125, 100, true)).unwrap();
            assert_eq!(sink.completed_files().len(), 2);
            sink.finalize().unwrap();
        }
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "corr-0000000000.tsv",
                "corr-0000000060.tsv",
                "corr-0000000120.tsv"
            ]
        );
        // No `.part` leftovers, and the late record is in the 60s file.
        let middle = std::fs::read_to_string(dir.join("corr-0000000060.tsv")).unwrap();
        assert_eq!(middle.lines().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotating_sink_finalizes_on_drop_and_tags_shards() {
        let dir = temp_dir("flowdns-test-rotate-drop");
        {
            let mut sink = RotatingFileSink::new(&dir, "corr", SimDuration::from_secs(30))
                .unwrap()
                .with_shard(3);
            sink.write_record(&record_at(5, 100, true)).unwrap();
            // Dropped without finalize(): the window must still appear.
        }
        let content = std::fs::read_to_string(dir.join("corr-0000000000-w3.tsv")).unwrap();
        assert_eq!(content.lines().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotating_sink_rejects_zero_window() {
        let dir = std::env::temp_dir().join("flowdns-test-rotate-zero");
        assert!(RotatingFileSink::new(&dir, "x", SimDuration::ZERO).is_err());
    }
}
