//! The sink the daemon writes through during a run: the real
//! `RotatingFileSink`, wrapped to count what came out and when.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use flowdns_core::{OutputSink, RotatingFileSink};
use flowdns_types::{CorrelatedRecord, FlowDnsError, Protocol};

use crate::reference::Sums;
use crate::wire::PROBE_PROTO;

/// What the write worker publishes for the generator to read.
#[derive(Default)]
pub struct SinkShared {
    /// Records written so far: the generator's credit and progress signal.
    written: AtomicU64,
    totals: Mutex<Sums>,
    /// (probe id, instant `write_record` returned).
    probes: Mutex<Vec<(u32, Instant)>>,
}

impl SinkShared {
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Acquire)
    }

    /// Totals over everything written, published when the sink is finalized.
    pub fn totals(&self) -> Sums {
        *self.totals.lock().expect("sink totals lock")
    }

    pub fn take_probes(&self) -> Vec<(u32, Instant)> {
        std::mem::take(&mut *self.probes.lock().expect("probe lock"))
    }
}

pub struct TimingSink {
    inner: RotatingFileSink,
    shared: Arc<SinkShared>,
    local: Sums,
}

impl TimingSink {
    pub fn new(inner: RotatingFileSink, shared: Arc<SinkShared>) -> Self {
        TimingSink {
            inner,
            shared,
            local: Sums::default(),
        }
    }
}

impl OutputSink for TimingSink {
    fn write_record(&mut self, record: &CorrelatedRecord) -> Result<(), FlowDnsError> {
        self.inner.write_record(record)?;
        if record.flow.key.proto == Protocol::Other(PROBE_PROTO) {
            let id = (record.flow.key.src_port as u32) << 16 | record.flow.key.dst_port as u32;
            self.shared
                .probes
                .lock()
                .expect("probe lock")
                .push((id, Instant::now()));
        }
        self.local.add_record(record);
        // Release, paired with the Acquire in `written()`: whoever reads
        // this count also sees the file renames that preceded it. The
        // totals are published by `finalize`, under the mutex.
        self.shared
            .written
            .store(self.local.records, Ordering::Release);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), FlowDnsError> {
        self.inner.flush()
    }

    fn finalize(&mut self) -> Result<(), FlowDnsError> {
        *self.shared.totals.lock().expect("sink totals lock") = self.local;
        self.inner.finalize()
    }
}
