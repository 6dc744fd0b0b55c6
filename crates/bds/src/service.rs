//! The Basic Data Source service instance.
//!
//! One `BdsService` runs per storage node. "BDS instances execute on
//! storage nodes and accept requests for sub-tables corresponding to local
//! chunks": given a sub-table id `(i, j)`, the instance looks the chunk up
//! in the MetaData service, verifies locality, reads the chunk bytes from
//! its node's store, resolves an extractor, and returns the extracted
//! sub-table. Byte counters feed the run statistics of the threaded
//! runtime.

use crate::deployment::Deployment;
use orv_chunk::format::ChunkStore;
use orv_chunk::{ExtractorRegistry, SubTable};
use orv_cluster::{checksum, ByteCounter, CancelToken, FaultInjector};
use orv_metadata::MetadataService;
use orv_obs::{names, EventLog, Spans};
use orv_types::{Error, NodeId, Result, SubTableId};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// A BDS instance bound to one storage node.
pub struct BdsService {
    node: NodeId,
    store: Arc<Mutex<Box<dyn ChunkStore>>>,
    metadata: Arc<MetadataService>,
    registry: Arc<RwLock<ExtractorRegistry>>,
    bytes_read: ByteCounter,
    corruptions_detected: ByteCounter,
    chunk_reads: Arc<std::sync::atomic::AtomicU64>,
    faults: Arc<FaultInjector>,
    spans: Spans,
    events: EventLog,
    cancel: CancelToken,
}

impl BdsService {
    /// Create the instance for `node` out of a deployment.
    pub fn new(deployment: &Deployment, node: NodeId) -> Result<Self> {
        BdsService::with_faults(deployment, node, FaultInjector::disabled())
    }

    /// Create the instance for `node` with a fault injector attached:
    /// every chunk read first consults the injector, which may slow it
    /// down, fail it with a transient `Error::Cluster`, or flip a byte of
    /// a checksummed page so read-side verification has to catch it.
    pub fn with_faults(
        deployment: &Deployment,
        node: NodeId,
        faults: Arc<FaultInjector>,
    ) -> Result<Self> {
        BdsService::with_instruments(
            deployment,
            node,
            faults,
            Spans::disabled(),
            EventLog::disabled(),
            CancelToken::none(),
        )
    }

    /// Fully instrumented instance: faults, span collection (each
    /// `subtable` call records `bds{n}/read` and `bds{n}/extract` spans),
    /// an event log receiving `corruption_detected` events, and the
    /// query's cancellation token (checked before every read).
    pub fn with_instruments(
        deployment: &Deployment,
        node: NodeId,
        faults: Arc<FaultInjector>,
        spans: Spans,
        events: EventLog,
        cancel: CancelToken,
    ) -> Result<Self> {
        Ok(BdsService {
            node,
            store: Arc::clone(deployment.store(node)?),
            metadata: Arc::clone(deployment.metadata()),
            registry: Arc::clone(deployment.registry()),
            bytes_read: ByteCounter::new(),
            corruptions_detected: ByteCounter::new(),
            chunk_reads: deployment.chunk_read_counter(),
            faults,
            spans,
            events,
            cancel,
        })
    }

    /// One instance per storage node of the deployment.
    pub fn for_all_nodes(deployment: &Deployment) -> Result<Vec<Arc<BdsService>>> {
        BdsService::for_all_nodes_with_faults(deployment, FaultInjector::disabled())
    }

    /// One instance per storage node, all sharing one fault injector (so
    /// plan budgets apply across the whole execution).
    pub fn for_all_nodes_with_faults(
        deployment: &Deployment,
        faults: Arc<FaultInjector>,
    ) -> Result<Vec<Arc<BdsService>>> {
        BdsService::for_all_nodes_with_instruments(
            deployment,
            faults,
            Spans::disabled(),
            EventLog::disabled(),
            CancelToken::none(),
        )
    }

    /// One instance per storage node, sharing a fault injector, a span
    /// collector, an event log and a cancellation token.
    pub fn for_all_nodes_with_instruments(
        deployment: &Deployment,
        faults: Arc<FaultInjector>,
        spans: Spans,
        events: EventLog,
        cancel: CancelToken,
    ) -> Result<Vec<Arc<BdsService>>> {
        (0..deployment.num_storage_nodes())
            .map(|k| {
                Ok(Arc::new(BdsService::with_instruments(
                    deployment,
                    NodeId(k as u32),
                    Arc::clone(&faults),
                    spans.clone(),
                    events.clone(),
                    cancel.clone(),
                )?))
            })
            .collect()
    }

    /// This instance's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Produce the sub-table for chunk `id`, which must be local to this
    /// node.
    pub fn subtable(&self, id: SubTableId) -> Result<SubTable> {
        self.cancel.check()?;
        let meta = self.metadata.chunk_meta(id)?;
        if meta.node != self.node {
            return Err(Error::Cluster(format!(
                "chunk {id} lives on node {} but was requested from BDS instance on node {}",
                meta.node, self.node
            )));
        }
        let bytes = {
            let _read = self.spans.span_with(|| names::span_bds_read(self.node.0));
            self.faults
                .before_chunk_read(self.node.0 as u64, &self.cancel)?;
            let mut bytes = self.store.lock().read(&meta.location)?;
            self.bytes_read.add(bytes.len() as u64);
            self.chunk_reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            // Verify pages that carry a generation-time checksum. The
            // injector only targets those — it flips the *returned copy*
            // after checksumming, so verification must catch it and a
            // retry re-reads the pristine store.
            if let Some(expected) = meta.checksum {
                if self.faults.plan().chunk_corrupt_prob > 0.0 {
                    let mut copy = bytes.to_vec();
                    self.faults
                        .corrupt_chunk_page(self.node.0 as u64, &mut copy);
                    bytes = copy.into();
                }
                if let Err(e) = checksum::verify(expected, &bytes, format_args!("chunk {id}")) {
                    self.corruptions_detected.add(1);
                    self.events.emit(names::CORRUPTION_DETECTED, || {
                        vec![
                            ("site", "chunk_read".into()),
                            ("what", format!("{id}").into()),
                            ("node", self.node.0.into()),
                        ]
                    });
                    return Err(e);
                }
            }
            bytes
        };
        let _extract = self
            .spans
            .span_with(|| names::span_bds_extract(self.node.0));
        let extractor = self.registry.read().resolve(&meta.extractors)?;
        extractor.extract(id, &bytes)
    }

    /// Total chunk bytes read from this node's store.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.get()
    }

    /// Checksum mismatches this instance caught (each one surfaced as a
    /// retryable `Error::Integrity`).
    pub fn corruptions_detected(&self) -> u64 {
        self.corruptions_detected.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_dataset, scalar_value, DatasetSpec};

    fn deployed() -> (Deployment, crate::generator::DatasetHandle) {
        let d = Deployment::in_memory(2);
        let spec = DatasetSpec::builder("t1")
            .grid([4, 4, 2])
            .partition([2, 2, 2])
            .scalar_attrs(&["oilp"])
            .seed(11)
            .build();
        let h = generate_dataset(&spec, &d).unwrap();
        (d, h)
    }

    #[test]
    fn extracts_local_chunks_with_correct_values() {
        let (d, h) = deployed();
        let services = BdsService::for_all_nodes(&d).unwrap();
        // Chunk 0 is on node 0 (block-cyclic).
        let st = services[0]
            .subtable(SubTableId::new(h.table.0, 0u32))
            .unwrap();
        assert_eq!(st.num_rows(), 8);
        // First record is grid point (0,0,0) with its deterministic oilp.
        let r = st.record(0).unwrap();
        assert_eq!(r.values()[0], orv_types::Value::I32(0));
        assert_eq!(
            r.values()[3],
            orv_types::Value::F32(scalar_value(11, 0, [0, 0, 0]))
        );
        assert!(services[0].bytes_read() > 0);
    }

    #[test]
    fn rejects_remote_chunks() {
        let (d, h) = deployed();
        let services = BdsService::for_all_nodes(&d).unwrap();
        // Chunk 1 is on node 1; asking node 0 must fail.
        let err = services[0]
            .subtable(SubTableId::new(h.table.0, 1u32))
            .unwrap_err();
        assert!(err.to_string().contains("node"));
        assert!(services[1]
            .subtable(SubTableId::new(h.table.0, 1u32))
            .is_ok());
    }

    #[test]
    fn unknown_chunk_errors() {
        let (d, h) = deployed();
        let svc = BdsService::new(&d, NodeId(0)).unwrap();
        assert!(svc.subtable(SubTableId::new(h.table.0, 99u32)).is_err());
        assert!(svc.subtable(SubTableId::new(9u32, 0u32)).is_err());
    }

    #[test]
    fn injected_read_faults_are_transient_under_retry() {
        use orv_cluster::{FaultPlan, RecoveryPolicy};
        let (d, h) = deployed();
        let plan = FaultPlan {
            seed: 5,
            read_error_prob: 1.0,
            max_read_errors: 2,
            max_faults: 2,
            ..FaultPlan::none()
        };
        let svc = BdsService::with_faults(&d, NodeId(0), plan.injector()).unwrap();
        let id = SubTableId::new(h.table.0, 0u32);
        // First two reads are injected failures; the budget then runs dry
        // and the bounded retry succeeds.
        let (st, retries) = RecoveryPolicy::default().run(|| svc.subtable(id));
        assert_eq!(st.unwrap().num_rows(), 8);
        assert_eq!(retries, 2);
    }

    #[test]
    fn instrumented_service_records_read_and_extract_spans() {
        let (d, h) = deployed();
        let spans = Spans::enabled();
        let svc = BdsService::with_instruments(
            &d,
            NodeId(0),
            FaultInjector::disabled(),
            spans.clone(),
            EventLog::disabled(),
            CancelToken::none(),
        )
        .unwrap();
        svc.subtable(SubTableId::new(h.table.0, 0u32)).unwrap();
        let paths: Vec<String> = spans.records().into_iter().map(|r| r.path).collect();
        assert_eq!(
            paths,
            vec!["bds0/read".to_string(), "bds0/extract".to_string()]
        );
    }

    #[test]
    fn corrupted_page_is_detected_and_recovers_under_retry() {
        use orv_cluster::{FaultPlan, RecoveryPolicy};
        let (d, h) = deployed();
        let plan = FaultPlan {
            seed: 17,
            chunk_corrupt_prob: 1.0,
            max_chunk_corruptions: 2,
            max_faults: 2,
            ..FaultPlan::none()
        };
        let events = EventLog::enabled();
        let injector = plan.injector_with_events(events.clone());
        let svc = BdsService::with_instruments(
            &d,
            NodeId(0),
            injector.clone(),
            Spans::disabled(),
            events.clone(),
            CancelToken::none(),
        )
        .unwrap();
        let id = SubTableId::new(h.table.0, 0u32);
        // First attempt: injected flip, verification must catch it.
        let err = svc.subtable(id).unwrap_err();
        assert!(matches!(err, Error::Integrity(_)), "{err}");
        // Under the standard policy the corruption budget drains and the
        // re-read returns verified clean data.
        let (st, retries) = RecoveryPolicy::default().run(|| svc.subtable(id));
        assert_eq!(st.unwrap().num_rows(), 8);
        assert_eq!(retries, 1, "one more injected corruption, then clean");
        assert_eq!(svc.corruptions_detected(), 2);
        assert_eq!(injector.stats().chunk_corruptions, 2);
        // Every injected corruption was detected and logged.
        assert_eq!(events.events_of_kind("corruption_detected").len(), 2);
    }

    #[test]
    fn cancelled_token_stops_reads() {
        let (d, h) = deployed();
        let cancel = CancelToken::new();
        let svc = BdsService::with_instruments(
            &d,
            NodeId(0),
            FaultInjector::disabled(),
            Spans::disabled(),
            EventLog::disabled(),
            cancel.clone(),
        )
        .unwrap();
        let id = SubTableId::new(h.table.0, 0u32);
        assert!(svc.subtable(id).is_ok());
        cancel.cancel();
        assert!(matches!(svc.subtable(id), Err(Error::Cancelled)));
    }

    #[test]
    fn every_chunk_extractable_via_its_home_node() {
        let (d, h) = deployed();
        let services = BdsService::for_all_nodes(&d).unwrap();
        let mut total = 0;
        for c in d.metadata().all_chunks(h.table).unwrap() {
            let id = SubTableId {
                table: h.table,
                chunk: c,
            };
            let node = d.metadata().chunk_meta(id).unwrap().node;
            let st = services[node.index()].subtable(id).unwrap();
            total += st.num_rows();
        }
        assert_eq!(total as u64, h.total_tuples());
    }
}
