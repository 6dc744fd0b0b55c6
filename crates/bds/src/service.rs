//! The Basic Data Source service instance, and its one client.
//!
//! One `BdsService` runs per storage node. "BDS instances execute on
//! storage nodes and accept requests for sub-tables corresponding to local
//! chunks": given a sub-table id `(i, j)`, the instance looks the chunk up
//! in the MetaData service, verifies locality, reads the chunk bytes from
//! its node's store, verifies the page checksum, resolves an extractor,
//! and returns the extracted sub-table.
//!
//! Everything above storage — a base-table scan, the Indexed Join QES, the
//! Grace Hash QES — asks for a sub-table the same way, through
//! [`SubTableReader::fetch`]: locate the chunk's home node, read it there
//! under the execution's [`RecoveryPolicy`] and [`CancelToken`], range-
//! filter it, and charge the traffic to the caller's [`RunStats`]. The
//! reader is the only place the engine builds `BdsService` instances, so
//! fault injection, `bds{n}/read|extract` spans, retries and corruption
//! accounting reach every read or none.

use crate::deployment::Deployment;
use orv_chunk::format::ChunkStore;
use orv_chunk::{ChunkMeta, ExtractorRegistry, SubTable};
use orv_cluster::{
    checksum, ByteCounter, CancelToken, Fault, FaultInjector, RecoveryPolicy, RunStats,
};
use orv_metadata::MetadataService;
use orv_obs::{names, Spans};
use orv_types::{BoundingBox, Error, NodeId, Result, SubTableId};
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
    cancel: CancelToken,
}

impl BdsService {
    /// The instance for `node`, instrumented with an execution's fault
    /// injector (every chunk read first consults it: it may slow the read
    /// down, fail it with a transient `Error::Cluster`, or flip a byte of
    /// a checksummed page so read-side verification has to catch it; its
    /// event log receives the `corruption_detected` events), span
    /// collector (each `subtable` call records `bds{n}/read` and
    /// `bds{n}/extract`) and cancellation token (checked before every
    /// read).
    fn with_instruments(
        deployment: &Deployment,
        node: NodeId,
        faults: Arc<FaultInjector>,
        spans: Spans,
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
            cancel,
        })
    }

    /// One instance per storage node, all sharing the instruments.
    fn per_node(
        deployment: &Deployment,
        faults: Arc<FaultInjector>,
        spans: Spans,
        cancel: CancelToken,
    ) -> Result<Vec<BdsService>> {
        (0..deployment.num_storage_nodes())
            .map(|k| {
                BdsService::with_instruments(
                    deployment,
                    NodeId(k as u32),
                    Arc::clone(&faults),
                    spans.clone(),
                    cancel.clone(),
                )
            })
            .collect()
    }

    /// One bare instance per storage node: no faults, no spans, no
    /// retries. This is what the reference oracle and the benchmark's
    /// `bds.subtable` rung read through; the engine reads through a
    /// [`SubTableReader`].
    pub fn for_all_nodes(deployment: &Deployment) -> Result<Vec<Arc<BdsService>>> {
        let bare = BdsService::per_node(
            deployment,
            FaultInjector::disabled(),
            Spans::disabled(),
            CancelToken::none(),
        )?;
        Ok(bare.into_iter().map(Arc::new).collect())
    }

    /// Produce the sub-table for chunk `id`, which must be local to this
    /// node.
    pub fn subtable(&self, id: SubTableId) -> Result<SubTable> {
        let meta = self.metadata.chunk_meta(id)?;
        self.subtable_with(id, &meta)
    }

    /// [`BdsService::subtable`] of chunk `id`, whose catalog entry the
    /// caller has already read as `meta`.
    fn subtable_with(&self, id: SubTableId, meta: &ChunkMeta) -> Result<SubTable> {
        self.cancel.check()?;
        if meta.node != self.node {
            return Err(Error::Cluster(format!(
                "chunk {id} lives on node {} but was requested from BDS instance on node {}",
                meta.node, self.node
            )));
        }
        // Every fetch of a sub-table in one execution comes from one
        // thread, so its fault draws are a pure function of the seed.
        let stream = ((id.table.0 as u64) << 32) | id.chunk.0 as u64;
        let bytes = {
            let _read = self.spans.span_with(|| names::span_bds_read(self.node.0));
            self.faults.before_chunk_read(stream, &self.cancel)?;
            let mut bytes = self.store.lock().read(&meta.location)?;
            self.bytes_read.add(bytes.len() as u64);
            self.chunk_reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            // Verify pages that carry a generation-time checksum. The
            // injector only targets those — it flips the *returned copy*
            // after checksumming, so verification must catch it and a
            // retry re-reads the pristine store.
            if let Some(expected) = meta.checksum {
                if self.faults.armed(Fault::ChunkCorrupt) {
                    let mut copy = bytes.to_vec();
                    self.faults.corrupt_chunk_page(stream, &mut copy);
                    bytes = copy.into();
                }
                if let Err(e) = checksum::verify(expected, &bytes, format_args!("chunk {id}")) {
                    self.corruptions_detected.add(1);
                    self.faults.events().emit(names::CORRUPTION_DETECTED, || {
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
}

/// The one client of the BDS interface: fetches sub-tables from their home
/// nodes on behalf of one execution (a scan, an Indexed Join, a Grace Hash
/// join). Built once per execution from what already travels with it.
pub struct SubTableReader {
    metadata: Arc<MetadataService>,
    services: Vec<BdsService>,
    recovery: RecoveryPolicy,
    cancel: CancelToken,
}

impl SubTableReader {
    /// A reader over every storage node of `deployment`. All instances
    /// share the one fault injector (so plan budgets apply across the
    /// whole execution; its `events()` log receives the
    /// `corruption_detected` events), span collector and cancellation
    /// token; every fetch retries under `recovery`.
    pub fn new(
        deployment: &Deployment,
        faults: Arc<FaultInjector>,
        spans: Spans,
        recovery: RecoveryPolicy,
        cancel: CancelToken,
    ) -> Result<Self> {
        Ok(SubTableReader {
            metadata: Arc::clone(deployment.metadata()),
            services: BdsService::per_node(deployment, faults, spans, cancel.clone())?,
            recovery,
            cancel,
        })
    }

    /// The MetaData Service the reader locates chunks in.
    pub fn metadata(&self) -> &MetadataService {
        &self.metadata
    }

    /// Fetch sub-table `id` from its home node, keeping only the rows
    /// inside `range`. The read and the filter are one attempt under the
    /// recovery policy: an injected or real read error, or a page that
    /// fails its checksum, is retried with backoff; cancellation (checked
    /// before every attempt and inside every backoff sleep) is not.
    /// Retries — also those of a fetch that finally failed — and, on
    /// success, the chunk's stored size are charged to `stats`.
    pub fn fetch(
        &self,
        id: SubTableId,
        range: Option<&BoundingBox>,
        stats: &mut RunStats,
    ) -> Result<SubTable> {
        let meta = self.metadata.chunk_meta(id)?;
        let svc = self.services.get(meta.node.index()).ok_or_else(|| {
            Error::Cluster(format!(
                "chunk {id} lives on node {}, which this deployment does not have",
                meta.node
            ))
        })?;
        let (st, retries) = self.recovery.run_cancellable(&self.cancel, || {
            let st = svc.subtable_with(id, &meta)?;
            match range {
                Some(rg) => st.filter_range(rg),
                None => Ok(st),
            }
        });
        stats.read_retries += retries;
        let st = st?;
        stats.bytes_read_storage += meta.size_bytes();
        Ok(st)
    }

    /// Checksum mismatches caught at chunk read across all nodes (each one
    /// surfaced as a retryable `Error::Integrity`).
    pub fn corruptions_detected(&self) -> u64 {
        self.services
            .iter()
            .map(|svc| svc.corruptions_detected.get())
            .sum()
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

    fn reader(
        d: &Deployment,
        faults: Arc<FaultInjector>,
        spans: Spans,
        cancel: CancelToken,
    ) -> SubTableReader {
        SubTableReader::new(d, faults, spans, RecoveryPolicy::default(), cancel).unwrap()
    }

    fn plain_reader(d: &Deployment) -> SubTableReader {
        reader(
            d,
            FaultInjector::disabled(),
            Spans::disabled(),
            CancelToken::none(),
        )
    }

    #[test]
    fn unknown_chunk_errors() {
        let (d, h) = deployed();
        let rd = plain_reader(&d);
        let mut stats = RunStats::default();
        assert!(rd
            .fetch(SubTableId::new(h.table.0, 99u32), None, &mut stats)
            .is_err());
        assert!(rd
            .fetch(SubTableId::new(9u32, 0u32), None, &mut stats)
            .is_err());
        assert_eq!(
            (stats.bytes_read_storage, stats.read_retries),
            (0, 0),
            "nothing read, nothing charged"
        );
    }

    #[test]
    fn fetch_finds_the_home_node_filters_and_charges_the_caller() {
        let (d, h) = deployed();
        let rd = plain_reader(&d);
        let mut stats = RunStats::default();
        let mut total = 0;
        let mut stored = 0;
        for c in d.metadata().all_chunks(h.table).unwrap() {
            let id = SubTableId {
                table: h.table,
                chunk: c,
            };
            total += rd.fetch(id, None, &mut stats).unwrap().num_rows();
            stored += d.metadata().chunk_meta(id).unwrap().size_bytes();
        }
        assert_eq!(total as u64, h.total_tuples());
        assert_eq!(stats.bytes_read_storage, stored);
        assert_eq!(stats.read_retries, 0);
        // A range keeps the matching rows of the chunk and still charges
        // the whole stored chunk: that is what was read.
        let range = BoundingBox::from_dims([("x", orv_types::Interval::new(0.0, 0.0))]);
        let id = SubTableId::new(h.table.0, 0u32);
        let mut one = RunStats::default();
        let st = rd.fetch(id, Some(&range), &mut one).unwrap();
        assert_eq!(st.num_rows(), 4, "x = 0 plane of a 2x2x2 chunk");
        assert_eq!(
            one.bytes_read_storage,
            d.metadata().chunk_meta(id).unwrap().size_bytes()
        );
    }

    #[test]
    fn injected_read_faults_are_transient_under_retry() {
        use orv_cluster::FaultPlan;
        use orv_obs::EventLog;
        let (d, h) = deployed();
        let plan = FaultPlan {
            seed: 5,
            max_faults: 2,
            ..FaultPlan::none()
        }
        .with(Fault::ReadError, 1.0, 2);
        let injector = FaultInjector::new(plan, EventLog::disabled());
        let rd = reader(&d, injector, Spans::disabled(), CancelToken::none());
        let id = SubTableId::new(h.table.0, 0u32);
        // First two reads are injected failures; the budget then runs dry
        // and the bounded retry succeeds.
        let mut stats = RunStats::default();
        let st = rd.fetch(id, None, &mut stats);
        assert_eq!(st.unwrap().num_rows(), 8);
        assert_eq!(stats.read_retries, 2);
    }

    #[test]
    fn a_chunks_faults_do_not_depend_on_what_its_node_read_before() {
        use orv_cluster::FaultPlan;
        use orv_obs::EventLog;
        let (d, h) = deployed();
        // Chunks 0 and 2 both live on node 0 (block-cyclic).
        let [a, b] = [0u32, 2].map(|c| SubTableId::new(h.table.0, c));
        let node = |id| d.metadata().chunk_meta(id).unwrap().node;
        assert_eq!(node(a), node(b));
        for seed in 1..=16 {
            // Per chunk, in reading order: the kinds injected into its
            // fetch, its retries, and whether it was read.
            let run = |order: [SubTableId; 2]| {
                let plan = FaultPlan {
                    seed,
                    max_faults: 1_000,
                    ..FaultPlan::none()
                }
                .with(Fault::ReadError, 0.5, 1_000);
                let events = EventLog::enabled();
                let injector = FaultInjector::new(plan, events.clone());
                let rd = reader(&d, injector, Spans::disabled(), CancelToken::none());
                let injected = || events.events_of_kind(names::FAULT_INJECTED);
                order.map(|id| {
                    let before = injected().len();
                    let mut stats = RunStats::default();
                    let read = rd.fetch(id, None, &mut stats).is_ok();
                    let kinds: Vec<String> = injected()[before..]
                        .iter()
                        .map(|e| e.fields["kind"].as_str().unwrap().to_string())
                        .collect();
                    (kinds, stats.read_retries, read)
                })
            };
            let [a_first, b_second] = run([a, b]);
            let [b_first, a_second] = run([b, a]);
            assert_eq!(a_first, a_second, "seed {seed}: chunk 0");
            assert_eq!(b_first, b_second, "seed {seed}: chunk 2");
        }
    }

    #[test]
    fn exhausted_policy_returns_the_read_error_and_charges_its_retries() {
        use orv_cluster::FaultPlan;
        use orv_obs::EventLog;
        let (d, h) = deployed();
        let plan = FaultPlan {
            seed: 5,
            max_faults: 100,
            ..FaultPlan::none()
        }
        .with(Fault::ReadError, 1.0, 100);
        let injector = FaultInjector::new(plan, EventLog::disabled());
        let rd = reader(&d, injector.clone(), Spans::disabled(), CancelToken::none());
        let mut stats = RunStats::default();
        let err = rd
            .fetch(SubTableId::new(h.table.0, 0u32), None, &mut stats)
            .unwrap_err();
        assert!(matches!(err, Error::Cluster(_)), "{err}");
        let attempts = RecoveryPolicy::default().max_attempts as u64;
        assert_eq!(injector.stats()[Fault::ReadError], attempts);
        assert_eq!(stats.read_retries, attempts - 1);
        assert_eq!(stats.bytes_read_storage, 0, "a failed fetch read nothing");
    }

    #[test]
    fn instrumented_service_records_read_and_extract_spans() {
        let (d, h) = deployed();
        let spans = Spans::enabled();
        let rd = reader(
            &d,
            FaultInjector::disabled(),
            spans.clone(),
            CancelToken::none(),
        );
        rd.fetch(
            SubTableId::new(h.table.0, 0u32),
            None,
            &mut RunStats::default(),
        )
        .unwrap();
        let paths: Vec<String> = spans.records().into_iter().map(|r| r.path).collect();
        assert_eq!(
            paths,
            vec!["bds0/read".to_string(), "bds0/extract".to_string()]
        );
    }

    #[test]
    fn corrupted_page_is_detected_and_recovers_under_retry() {
        use orv_cluster::FaultPlan;
        use orv_obs::EventLog;
        let (d, h) = deployed();
        let plan = FaultPlan {
            seed: 17,
            max_faults: 2,
            ..FaultPlan::none()
        }
        .with(Fault::ChunkCorrupt, 1.0, 2);
        let events = EventLog::enabled();
        let injector = FaultInjector::new(plan, events.clone());
        let rd = reader(&d, injector.clone(), Spans::disabled(), CancelToken::none());
        let id = SubTableId::new(h.table.0, 0u32);
        // First attempt, straight at the instance: injected flip,
        // verification must catch it.
        let err = rd.services[0].subtable(id).unwrap_err();
        assert!(matches!(err, Error::Integrity(_)), "{err}");
        // Under the standard policy the corruption budget drains and the
        // re-read returns verified clean data.
        let mut stats = RunStats::default();
        let st = rd.fetch(id, None, &mut stats);
        assert_eq!(st.unwrap().num_rows(), 8);
        assert_eq!(
            stats.read_retries, 1,
            "one more injected corruption, then clean"
        );
        assert_eq!(rd.corruptions_detected(), 2);
        assert_eq!(injector.stats()[Fault::ChunkCorrupt], 2);
        // Every injected corruption was detected and logged.
        assert_eq!(events.events_of_kind("corruption_detected").len(), 2);
    }

    #[test]
    fn cancelled_token_stops_reads() {
        let (d, h) = deployed();
        let cancel = CancelToken::new();
        let rd = reader(
            &d,
            FaultInjector::disabled(),
            Spans::disabled(),
            cancel.clone(),
        );
        let id = SubTableId::new(h.table.0, 0u32);
        let mut stats = RunStats::default();
        assert!(rd.fetch(id, None, &mut stats).is_ok());
        cancel.cancel();
        assert!(matches!(
            rd.fetch(id, None, &mut stats),
            Err(Error::Cancelled)
        ));
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
